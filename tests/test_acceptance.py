"""Acceptance suite: one test per criterion, each at its stated tolerance
and runtime budget, printing one pass/fail line per criterion (visible with
pytest -s or -rA). A criterion that the `verify` battery states runs that
check instead of restating it."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from adiclab.construct import (
    ColumnSchedule,
    ProbabilityVector,
    ScheduleSpec,
    block_boundaries,
    block_stream,
    greedy_stream,
    mean_target_stream,
    validate_schedule,
)
from adiclab.digits import BASE4, expand
from adiclab.entropy import be_dimension, neg_entropy_minimum
from adiclab.stats import convergence_trace, freq_report
from adiclab.verify import CHECKS, enumerated_prefixes


@contextmanager
def criterion(label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        print(f"[acceptance] {label}: FAIL (runtime {elapsed:.2f}s >= {budget_seconds}s)")
        raise AssertionError(f"{label}: runtime {elapsed:.2f}s exceeds {budget_seconds}s budget")
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")


def assert_check(name):
    result = CHECKS[name]()
    assert result.passed, (name, result.observed)


def test_c01_degenerate_means():
    with criterion("C1 degenerate means and dimensions", 1.0):
        assert mean_target_stream(0).prefix(1000).digits == (0,) * 1000
        assert mean_target_stream(3).prefix(1000).digits == (3,) * 1000
        assert be_dimension((1, 0, 0, 0)) == 0.0
        assert be_dimension((0, 0, 0, 1)) == 0.0


def test_c02_dimension_spot_values():
    with criterion("C2 dimension formula spot values", 1.0):
        assert abs(be_dimension((0.25, 0.25, 0.25, 0.25)) - 1.0) <= 1e-12
        assert abs(be_dimension((0.5, 0.5, 0.0, 0.0)) - 0.5) <= 1e-12
        assert_check("entropy/permutation_invariance")


def test_c03_entropy_minimum_dual_method():
    with criterion("C3 constrained entropy minimum, dual method", 30.0):
        assert_check("entropy/closed_form_vs_grid")
        assert_check("entropy/reflection_symmetry")
        mid = neg_entropy_minimum(1.5)
        assert abs(mid.m_value - (-math.log(4))) <= 1e-8
        assert all(abs(t - 0.25) <= 1e-6 for t in mid.argmin)


def test_c04_frequency_mean_identities():
    with criterion("C4 frequency/mean identities, exact", 30.0):
        prefixes = enumerated_prefixes(BASE4, 1000)
        for tau in ("1/4,1/4,1/4,1/4", "1/2,1/3,1/6,0", "1/10,2/10,3/10,4/10"):
            prefixes.append(greedy_stream(ProbabilityVector.parse(tau)).prefix(1000))
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/6,1/3,1/3,1/6"))
        prefixes.append(block_stream(columns, ScheduleSpec.polynomial(1)).prefix(1000))
        for x in (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)):
            prefixes.append(expand(x).prefix(1000))
        for p in prefixes:
            rep = freq_report(p)
            assert sum(rep.freqs) == 1  # zero tolerance
            assert rep.mean == Fraction(sum(p.digits), rep.n)  # zero tolerance
            assert rep.mean == sum(i * f for i, f in enumerate(rep.freqs))


def test_c05_greedy_exact_counts():
    with criterion("C5 greedy construction exact counts", 10.0):
        assert_check("construct/greedy_exact_counts")  # zero tolerance


def test_c06_greedy_frequency_convergence():
    with criterion("C6 greedy frequency convergence at 1e6", 30.0):
        tau = ProbabilityVector.parse("1/10,2/10,3/10,4/10")
        rep = convergence_trace(greedy_stream(tau), (10**6,)).reports[0]
        worst = max(abs(f - t) for f, t in zip(rep.freqs, tau.entries))
        assert worst <= Fraction(1, 1000)
        assert abs(rep.mean - 2) <= Fraction(1, 1000)


def test_c07_block_mean_convergence():
    with criterion("C7 block construction mean convergence", 30.0):
        tau = ProbabilityVector.parse("1/6,1/3,1/3,1/6")
        assert tau.mean() == Fraction(3, 2)
        columns = ColumnSchedule.constant(tau)
        spec = ScheduleSpec.polynomial(1)
        boundary = block_boundaries(columns, spec, 10**6)[-1]
        rep = convergence_trace(block_stream(columns, spec), (boundary,)).reports[0]
        assert abs(rep.mean - Fraction(3, 2)) <= Fraction(1, 100)


def test_c08_block_frequency_limit():
    with criterion("C8 block construction frequency limit", 30.0):
        limit = ProbabilityVector.parse("1/2,1/2,0,0")
        columns = ColumnSchedule.converging(limit, mix_digit=2)
        spec = ScheduleSpec.polynomial(2)
        boundary = block_boundaries(columns, spec, 10**6)[-1]
        assert boundary >= 10**5
        rep = convergence_trace(block_stream(columns, spec), (boundary,)).reports[0]
        assert abs(rep.freqs[0] - Fraction(1, 2)) <= Fraction(1, 100)


def test_c09_schedule_validator():
    with criterion("C9 schedule validator verdicts", 30.0):
        assert_check("construct/schedule_validator_verdicts")
        rejection = validate_schedule(ScheduleSpec.geometric(2))
        assert "s_{k+1}" in rejection.failed()[0].formula


def test_c10_expansion_round_trips():
    with criterion("C10 rational expansion round trips", 10.0):
        assert_check("digits/expand_roundtrip")  # exact tail bound
        assert_check("digits/dual_value_equality")  # exact


def test_c11_injectivity_probes():
    with criterion("C11 block matrix injectivity probes", 5.0):
        assert_check("construct/distinguish_pairs")
