"""Cross-module invariant battery behind the `verify` subcommand.

Every check is deterministic. The "varied prefix" battery is the fixed
enumeration of the base-s digit strings of the integers 1..N (most
significant digit first), so reruns are bit-identical; all other checks
use fixed parameter tables. A check returns its parameters, observed
values, and a verdict -- failures are report content, not exceptions.
Each invariant is stated here once; the acceptance tests run these checks
rather than restating them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Callable, NamedTuple, Sequence

from .construct import (
    CONDITION_NEXT_TERM,
    MEAN_DEFICIT,
    ColumnSchedule,
    ProbabilityVector,
    ScheduleSpec,
    block_boundaries,
    block_stream,
    floor_counts,
    greedy_increments,
    greedy_stream,
    prefix_distinguish,
    validate_schedule,
    _mean_vector,
)
from .digits import BASE4, Base, DigitPrefix, dual_representation, expand, prefix_value, stream_value
from .entropy import be_dimension, exp_family_vector, neg_entropy_minima, neg_entropy_minimum_grid
from .stats import convergence_trace, freq_report

__all__ = ["CHECKS", "CheckResult", "MODULES", "enumerated_prefixes", "run_checks", "report_dict"]

MODULES = ("digits", "stats", "construct", "entropy")

# Fixed frequency-vector battery shared by the greedy checks.
TAU_BATTERY = (
    ProbabilityVector.parse("1/4,1/4,1/4,1/4"),
    ProbabilityVector.parse("1/2,1/3,1/6,0"),
    ProbabilityVector.parse("1/10,2/10,3/10,4/10"),
)

# Constant-column matrix pairs probed for prefix distinctions (same schedule).
DISTINGUISH_PAIRS = (
    ("1/4,1/4,1/4,1/4", "1/2,1/2,0,0"),
    ("1/4,1/4,1/4,1/4", "0,0,0,1"),
    ("1/2,1/2,0,0", "1/2,0,1/2,0"),
    ("1/6,1/3,1/3,1/6", "1/4,1/4,1/4,1/4"),
    ("1/10,2/10,3/10,4/10", "4/10,3/10,2/10,1/10"),
)

THETA_GRID = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9)

# Means of the exact mean-target vectors, with one near each end of (0, 3).
MEAN_THETAS = tuple(map(Fraction, ("1/100", "1/4", "23/25", "13/10", "3/2", "11/4", "299/100")))


class CheckResult(NamedTuple):
    name: str
    module: str
    passed: bool
    params: dict
    observed: dict


# Every check by its name, "<module>/<check>"; each call reruns the check.
CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _module(name: str) -> str:
    return name.partition("/")[0]


def _check(name: str):
    """Register a body returning (passed, params, observed) as check `name`."""

    def register(body: Callable[[], tuple[bool, dict, dict]]) -> Callable[[], CheckResult]:
        def run() -> CheckResult:
            passed, params, observed = body()
            return CheckResult(name, _module(name), passed, params, observed)

        CHECKS[name] = run
        return run

    return register


def enumerated_prefixes(base: Base, count: int) -> list[DigitPrefix]:
    """The documented deterministic battery: digit strings of 1..count in
    base s, most significant digit first."""
    out = []
    for k in range(1, count + 1):
        digits: list[int] = []
        v = k
        while v:
            v, d = divmod(v, base.s)
            digits.append(d)
        out.append(DigitPrefix(base, tuple(reversed(digits))))
    return out


# ---------------------------------------------------------------------------
# digits
# ---------------------------------------------------------------------------


@_check("digits/expand_roundtrip")
def _expand_roundtrip() -> tuple[bool, dict, dict]:
    max_den, depth = 200, 64
    bound = Fraction(1, 4**depth)
    worst = Fraction(0)
    failures = 0
    for q in range(1, max_den + 1):
        for p in range(q + 1):
            x = Fraction(p, q)
            stream = expand(x)
            gap = x - prefix_value(stream.prefix(depth))
            if not 0 <= gap <= bound:
                failures += 1
            worst = max(worst, gap)
            if stream_value(stream) != x:
                failures += 1
    return (
        failures == 0,
        {"max_denominator": max_den, "prefix_length": depth},
        {"failures": failures, "worst_gap": str(worst)},
    )


@_check("digits/period_length_bound")
def _period_length_bound() -> tuple[bool, dict, dict]:
    max_den = 500
    failures = 0
    worst = 0.0
    for q in range(1, max_den + 1):
        for p in range(q + 1):
            pre, per = expand(Fraction(p, q)).eventual_period
            total = len(pre) + len(per)
            worst = max(worst, total / q)
            if total > q:
                failures += 1
    return (
        failures == 0,
        {"max_denominator": max_den},
        {"failures": failures, "worst_length_over_q": worst},
    )


@_check("digits/dual_value_equality")
def _dual_value_equality() -> tuple[bool, dict, dict]:
    batch = [p for p in enumerated_prefixes(BASE4, 160) if p.chunk[-1] != 0][:100]
    failures = sum(1 for p in batch if stream_value(dual_representation(p)) != prefix_value(p))
    return failures == 0 and len(batch) == 100, {"prefixes": len(batch)}, {"failures": failures}


@_check("digits/expand_determinism")
def _expand_determinism() -> tuple[bool, dict, dict]:
    xs = [Fraction(a, b) for a, b in ((1, 3), (1, 5), (3, 7), (22, 113), (1, 97))]
    failures = 0
    for x in xs:
        s1, s2 = expand(x), expand(x)
        if s1.eventual_period != s2.eventual_period:
            failures += 1
        if s1.prefix(256) != s2.prefix(256):
            failures += 1
    return (
        failures == 0,
        {"values": [str(x) for x in xs], "prefix_length": 256},
        {"failures": failures},
    )


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@_check("stats/frequency_identities")
def _frequency_identities() -> tuple[bool, dict, dict]:
    prefixes = enumerated_prefixes(BASE4, 1000)
    failures = 0
    for p in prefixes:
        rep = freq_report(p)
        if sum(rep.counts) != rep.n or sum(rep.freqs) != 1:
            failures += 1
        if rep.mean != Fraction(sum(p.chunk), rep.n):
            failures += 1
        if not 0 <= rep.mean <= p.base.s - 1:
            failures += 1
    return failures == 0, {"prefixes": len(prefixes)}, {"failures": failures}


@_check("stats/incremental_consistency")
def _incremental_consistency() -> tuple[bool, dict, dict]:
    stream = expand(Fraction(22, 113))
    digits = stream.prefix(300).chunk
    failures = 0
    prev = None
    for n in range(1, len(digits) + 1):
        rep = freq_report(DigitPrefix(BASE4, digits[:n]))
        if prev is not None:
            delta = [a - b for a, b in zip(rep.counts, prev.counts)]
            if sum(delta) != 1 or delta[digits[n - 1]] != 1:
                failures += 1
        prev = rep
    return failures == 0, {"source": "22/113", "length": len(digits)}, {"failures": failures}


@_check("stats/periodic_deviation_bound")
def _periodic_deviation_bound() -> tuple[bool, dict, dict]:
    # At n = preperiod + m*|P|, |v_i - c_i/|P|| <= preperiod/n exactly.
    failures = 0
    for num, den in ((1, 6), (1, 5), (1, 3), (3, 28)):
        stream = expand(Fraction(num, den))
        pre, per = stream.eventual_period
        period_counts = [0] * 4
        for d in per:
            period_counts[d] += 1
        for m in range(1, 51):
            n = len(pre) + m * len(per)
            rep = freq_report(stream.prefix(n))
            for i in range(4):
                dev = abs(rep.freqs[i] - Fraction(period_counts[i], len(per)))
                if dev > Fraction(len(pre), n):
                    failures += 1
    return (
        failures == 0,
        {"sources": ["1/6", "1/5", "1/3", "3/28"], "repetitions": 50},
        {"failures": failures},
    )


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


@_check("construct/greedy_increment_range")
def _greedy_increment_range() -> tuple[bool, dict, dict]:
    failures = 0
    for tau in TAU_BATTERY:
        running = [0] * tau.s
        for n in range(1, 1001):
            inc = greedy_increments(tau, n)
            if any(v not in (0, 1) for v in inc):
                failures += 1
            running = [r + v for r, v in zip(running, inc)]
            expected = [
                a - b for a, b in zip(floor_counts(tau, n + 1), floor_counts(tau, 1))
            ]
            if running != expected:
                failures += 1
    return (
        failures == 0,
        {"vectors": [",".join(t.as_strings()) for t in TAU_BATTERY], "steps": 1000},
        {"failures": failures},
    )


@_check("construct/greedy_exact_counts")
def _greedy_exact_counts() -> tuple[bool, dict, dict]:
    max_n = 10**4
    failures = 0
    for tau in TAU_BATTERY:
        it = greedy_stream(tau).iter_digits()
        counts = [0] * tau.s
        position = 0
        for n in range(1, max_n + 1):
            targets = floor_counts(tau, n)
            boundary = sum(targets)
            while position < boundary:
                counts[next(it)] += 1
                position += 1
            if tuple(counts) != targets:
                failures += 1
    return (
        failures == 0,
        {"vectors": [",".join(t.as_strings()) for t in TAU_BATTERY], "max_boundary": max_n},
        {"failures": failures},
    )


@_check("construct/block_length_bounds")
def _block_length_bounds() -> tuple[bool, dict, dict]:
    cases = [
        (ColumnSchedule.constant(ProbabilityVector.parse("1/4,1/4,1/4,1/4")), ScheduleSpec.polynomial(1)),
        (ColumnSchedule.constant(ProbabilityVector.parse("1/6,1/3,1/3,1/6")), ScheduleSpec.polynomial(2)),
        (ColumnSchedule.converging(ProbabilityVector.parse("1/2,1/2,0,0"), 2), ScheduleSpec.affine(2, 1)),
    ]
    failures = 0
    for columns, spec in cases:
        for k in range(1, 201):
            col = columns.column(k)
            sk = spec.term(k)
            length = sum(math.floor(t * sk) for t in col.entries)
            if not sk - col.s <= length <= sk:
                failures += 1
    return failures == 0, {"cases": 3, "blocks": 200}, {"failures": failures}


@_check("construct/block_mean_sandwich")
def _block_mean_sandwich() -> tuple[bool, dict, dict]:
    # |r_n - theta| <= 10*k / sum_{i<=k} s_i at the k-th block boundary,
    # for column rules with exact per-column mean theta. Reflection-symmetric
    # vectors balance exactly, so an asymmetric column is included too.
    half = Fraction(3, 2)
    balanced = ProbabilityVector.parse("1/6,1/3,1/3,1/6")
    swapped = ProbabilityVector.parse("1/2,0,0,1/2")
    skewed = ProbabilityVector.parse("1/2,0,1/4,1/4")  # mean 5/4
    cases = [
        (ColumnSchedule.constant(balanced), ScheduleSpec.polynomial(1), half),
        (
            ColumnSchedule.explicit([balanced, swapped] * 50, balanced, mean=half),
            ScheduleSpec.polynomial(1),
            half,
        ),
        (ColumnSchedule.constant(balanced), ScheduleSpec.polynomial(2), half),
        (ColumnSchedule.constant(skewed), ScheduleSpec.polynomial(1), Fraction(5, 4)),
    ]
    limit = 2 * 10**5
    failures = 0
    worst = 0.0
    for columns, spec, theta in cases:
        boundaries = [b for b in block_boundaries(columns, spec, limit) if b > 0]
        trace = convergence_trace(block_stream(columns, spec), boundaries)
        partial = Fraction(0)
        k = 0
        boundary_index = 0
        total = 0
        while boundary_index < len(boundaries):
            k += 1
            sk = spec.term(k)
            col = columns.column(k)
            partial += sk
            total += sum(math.floor(t * sk) for t in col.entries)
            if total == boundaries[boundary_index]:
                rep = trace.reports[boundary_index]
                bound = Fraction(10 * k) / partial
                gap = abs(rep.mean - theta)
                worst = max(worst, float(gap / bound) if bound else math.inf)
                if gap > bound:
                    failures += 1
                boundary_index += 1
    return (
        failures == 0,
        {"thetas": ["3/2", "3/2", "3/2", "5/4"], "cases": 4, "max_digits": limit},
        {"failures": failures, "worst_gap_over_bound": worst},
    )


@_check("construct/mean_target_exact")
def _mean_target_exact() -> tuple[bool, dict, dict]:
    # The vector behind `mean_target_stream`: its mean is theta exactly, and
    # its dimension, taken apart from the construction, is within
    # MEAN_DEFICIT of the entropy bound. The table holds a theta near each
    # end, where the denominator must grow past 2**16.
    failures = 0
    worst = 0.0
    denominators = []
    for theta, optimum in zip(MEAN_THETAS, neg_entropy_minima(MEAN_THETAS)):
        tau, _ = _mean_vector(theta, BASE4)
        deficit = optimum.dimension_bound - be_dimension(tau)
        worst = max(worst, deficit)
        denominators.append(tau.denominator)
        if tau.mean() != theta or min(tau.entries) < 0 or deficit > MEAN_DEFICIT:
            failures += 1
    return (
        failures == 0,
        {"thetas": [str(t) for t in MEAN_THETAS], "max_deficit": MEAN_DEFICIT},
        {"failures": failures, "worst_deficit": worst, "denominators": denominators},
    )


@_check("construct/schedule_validator_verdicts")
def _schedule_validator_verdicts() -> tuple[bool, dict, dict]:
    linear = validate_schedule(ScheduleSpec.polynomial(1))
    quadratic = validate_schedule(ScheduleSpec.polynomial(2))
    doubling = validate_schedule(ScheduleSpec.geometric(2))
    named = [c.name for c in doubling.failed()]
    passed = (
        linear.accepted
        and quadratic.accepted
        and not doubling.accepted
        and named == [CONDITION_NEXT_TERM]
    )
    return (
        passed,
        {"schedules": ["k", "k^2", "2^k"]},
        {"accepted": [linear.accepted, quadratic.accepted, doubling.accepted], "failed": named},
    )


@_check("construct/distinguish_pairs")
def _distinguish_pairs() -> tuple[bool, dict, dict]:
    spec = ScheduleSpec.polynomial(1)
    horizon = 10**4
    failures = 0
    indices = []
    for left, right in DISTINGUISH_PAIRS:
        a = block_stream(ColumnSchedule.constant(ProbabilityVector.parse(left)), spec)
        b = block_stream(ColumnSchedule.constant(ProbabilityVector.parse(right)), spec)
        fwd = prefix_distinguish(a, b, horizon)
        rev = prefix_distinguish(b, a, horizon)
        indices.append(fwd.index)
        if not fwd.differs or fwd.index != rev.index:
            failures += 1
        elif prefix_distinguish(a, b, fwd.index).index != fwd.index:
            failures += 1  # verdict must be stable under horizon changes
    return (
        failures == 0,
        {"pairs": list(DISTINGUISH_PAIRS), "horizon": horizon},
        {"failures": failures, "indices": indices},
    )


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


@_check("entropy/closed_form_vs_grid")
def _closed_form_vs_grid() -> tuple[bool, dict, dict]:
    tol, step = 1e-4, 1e-3
    gaps = {}
    for closed in neg_entropy_minima(THETA_GRID):
        grid = neg_entropy_minimum_grid(closed.theta, step=step).m_value
        gaps[closed.theta] = abs(closed.m_value - grid)
    worst = max(gaps.values())
    return (
        worst <= tol,
        {"thetas": list(THETA_GRID), "step": step, "tol": tol},
        {"worst_gap": worst},
    )


@_check("entropy/reflection_symmetry")
def _reflection_symmetry() -> tuple[bool, dict, dict]:
    tol = 1e-8
    worst = 0.0
    results = neg_entropy_minima(THETA_GRID + tuple(3.0 - theta for theta in THETA_GRID))
    for res, mirror in zip(results, results[len(THETA_GRID) :]):
        worst = max(worst, abs(res.m_value - mirror.m_value))
    return worst <= tol, {"thetas": list(THETA_GRID), "tol": tol}, {"worst_gap": worst}


@_check("entropy/mean_monotone_in_multiplier")
def _mean_monotone() -> tuple[bool, dict, dict]:
    lams = [x / 2.0 for x in range(-40, 41)]
    means = [exp_family_vector(lam)[1] for lam in lams]
    failures = sum(1 for a, b in zip(means, means[1:]) if not b > a)
    return failures == 0, {"lambda_range": [-20, 20], "points": len(lams)}, {"failures": failures}


@_check("entropy/bound_matches_argmin_dimension")
def _bound_matches_argmin() -> tuple[bool, dict, dict]:
    tol = 1e-9
    worst = 0.0
    for res in neg_entropy_minima(THETA_GRID):
        worst = max(worst, abs(res.dimension_bound - be_dimension(res.argmin)))
    return worst <= tol, {"thetas": list(THETA_GRID), "tol": tol}, {"worst_gap": worst}


@_check("entropy/argmin_feasible")
def _argmin_feasible() -> tuple[bool, dict, dict]:
    failures = 0
    for res in neg_entropy_minima(THETA_GRID):
        mean = sum(i * t for i, t in enumerate(res.argmin))
        if abs(sum(res.argmin) - 1.0) > 1e-12 or abs(mean - res.theta) > 1e-9:
            failures += 1
        if any(t < 0 for t in res.argmin):
            failures += 1
    return failures == 0, {"thetas": list(THETA_GRID)}, {"failures": failures}


@_check("entropy/permutation_invariance")
def _permutation_invariance() -> tuple[bool, dict, dict]:
    tau = (0.5, 0.25, 0.125, 0.125)
    values = {be_dimension(p) for p in permutations(tau)}
    spread = max(values) - min(values)
    return spread <= 1e-12, {"tau": list(tau), "permutations": 24}, {"spread": spread}


@_check("entropy/degenerate_dimensions")
def _degenerate_dimensions() -> tuple[bool, dict, dict]:
    points = [tuple(1.0 if i == j else 0.0 for i in range(4)) for j in range(4)]
    point_ok = all(be_dimension(p) == 0.0 for p in points)
    uniform_gap = abs(be_dimension((0.25, 0.25, 0.25, 0.25)) - 1.0)
    return (
        point_ok and uniform_gap <= 1e-12,
        {"point_masses": 4},
        {"point_masses_zero": point_ok, "uniform_gap": uniform_gap},
    )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_checks(modules: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the battery (optionally restricted to some modules), ordered by
    check name so reports are deterministic regardless of evaluation order."""
    if modules is not None:
        unknown = sorted(set(modules) - set(MODULES))
        if unknown:
            raise ValueError(f"unknown module(s) {unknown}; valid names: {list(MODULES)}")
        selected = set(modules)
    else:
        selected = set(MODULES)
    return [run() for name, run in sorted(CHECKS.items()) if _module(name) in selected]


def report_dict(results: Sequence[CheckResult]) -> dict:
    return {
        "checks": [r._asdict() for r in results],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
