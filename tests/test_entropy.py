import json
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiclab import entropy
from adiclab.digits import BASE4, Base
from adiclab.entropy import (
    LAMBDA_BRACKET,
    EntropyResult,
    GridMinimum,
    be_dimension,
    exp_family_vector,
    neg_entropy_minima,
    neg_entropy_minimum,
    neg_entropy_minimum_grid,
    sweep_csv,
    xlogx,
)

# Reference values for base 4, frozen from a 50-digit root solve of
# mean(lambda) = theta followed by m = sum(tau ln tau) at the root.
REFERENCE = {
    0.1: (-2.3953901714522106, -0.33503106101155017, 0.24167382513256558),
    0.5: (-1.0120010870071180, -0.94014571569519751, 0.67817178087323337),
    1.0: (-0.41961762499109790, -1.2839068143839269, 0.92614299703761911),
    1.5: (0.0, -1.3862943611198906, 1.0),
}


def left_sum(values) -> float:
    """Left-to-right float sum, as the builtin sum adds floats before
    Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_row(lam, base=BASE4):
    """The Gibbs row as the solver once computed it, sharing no code with
    it: a numpy row shifted by its maximum, `math.exp` on every entry, and
    `np.cumsum` sums."""
    digits = np.arange(base.s)
    exponents = lam * digits
    exponents -= exponents.max()
    weights = np.array([math.exp(x) for x in exponents.tolist()])
    tau = weights / np.cumsum(weights)[-1]
    return tuple(tau.tolist()), float(np.cumsum(tau * digits)[-1])


def bisection_oracle(theta, base=BASE4, tol=1e-10) -> EntropyResult:
    """The one-theta bisection that the batched solver replaced: one
    `oracle_row` per step."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s = base.s
    th = float(theta)
    if not 0.0 <= th <= s - 1.0:
        raise ValueError(f"theta must lie in [0, {s - 1}], got {th}")
    if th == 0.0 or th == s - 1.0:
        hot = 0 if th == 0.0 else s - 1
        point = tuple(1.0 if i == hot else 0.0 for i in range(s))
        return EntropyResult(theta=th, m_value=0.0, argmin=point, multiplier=None, dimension_bound=0.0)
    lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        tau, mean = oracle_row(mid, base)
        if abs(mean - th) <= tol:
            m = left_sum(xlogx(t) for t in tau)
            return EntropyResult(
                theta=th, m_value=m, argmin=tau, multiplier=mid, dimension_bound=-m / math.log(s)
            )
        if mean < th:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection did not reach |mean - theta| <= {tol} for theta={th}")


def batch_oracle(thetas, base=BASE4) -> list[EntropyResult]:
    return [bisection_oracle(t, base) for t in thetas]


def full_grid_oracle(theta, base=BASE4, step=1e-3) -> GridMinimum:
    """The grid scan that the slab walk replaced: every cell of the grid
    at once, in several float64 temporaries of (1/step)**(s-2) cells."""
    s = base.s
    th = float(theta)
    npts = int(round(1.0 / step)) + 1
    axis = np.linspace(0.0, 1.0, npts)
    free = []
    for j in range(s - 2):
        shape = [1] * (s - 2)
        shape[j] = npts
        free.append(axis.reshape(shape))
    if free:
        t1 = th - sum((j + 2) * a for j, a in enumerate(free))
        t0 = 1.0 - th + sum((j + 1) * a for j, a in enumerate(free))
    else:
        t1 = np.asarray(th)
        t0 = np.asarray(1.0 - th)
    feasible = (t1 >= -1e-12) & (t0 >= -1e-12)
    t0c = np.clip(t0, 0.0, 1.0)
    t1c = np.clip(t1, 0.0, 1.0)

    def xlx(a):
        positive = a > 0.0
        return np.where(positive, a * np.log(np.where(positive, a, 1.0)), 0.0)

    total = xlx(t0c) + xlx(t1c)
    for a in free:
        total = total + xlx(a)
    total = np.where(feasible, total, np.inf)
    idx = np.unravel_index(int(np.argmin(total)), total.shape)
    best = float(total[idx])
    if not math.isfinite(best):
        raise ArithmeticError(f"no feasible grid point at step {step} for theta={th}")
    argmin = (float(t0c[idx]), float(t1c[idx])) + tuple(float(axis[i]) for i in idx)
    return GridMinimum(theta=th, step=step, m_value=best, argmin=argmin)


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def mean_error(s) -> float:
    """E(s) = 5 s 2**-53, the bound that the docstring of entropy._bisect
    derives on the error of a computed mean - theta."""
    return 5 * s * 2.0**-53


@lru_cache(maxsize=2**16)
def exact_mean(lam, s) -> Decimal:
    """sum(i e**(lam i)) / sum(e**(lam i)) over i < s, to at least 80
    digits: the closed geometric sums in r = e**-|lam|, reflected for
    lam > 0 (mean(lam) = s - 1 - mean(-lam)). Both sums lose about
    log10(1/|lam|) digits to cancellation near lam = 0, which the precision
    covers."""
    if lam == 0.0:
        return Decimal(s - 1) / 2
    with localcontext() as ctx:
        ctx.prec = 80 + 2 * max(0, -math.floor(math.log10(abs(lam)))) + len(str(s))
        ctx.Emin, ctx.Emax = -(10**9), 10**9
        r = (-abs(Decimal(lam))).exp()
        rs = r**s
        mean = (r - s * rs + (s - 1) * rs * r) / ((1 - r) * (1 - rs))
        return +(s - 1 - mean if lam > 0.0 else mean)


def direct_mean(lam, s) -> Decimal:
    """exact_mean by summing the s terms at 80 digits, for small s."""
    with localcontext() as ctx:
        ctx.prec = 80
        weights = [(Decimal(lam) * i).exp() for i in range(s)]
        return sum(i * w for i, w in enumerate(weights)) / sum(weights)


def replay(result, s, tol=1e-10):
    """Rebuild the midpoints that led the solver from [-50, 50] to
    result.multiplier, and hold each step to the exact mean there: every
    step goes where the exact d = mean - theta sends it unless |d| lies
    within E(s) of 0, and does not stop unless |d| lies within E(s) of
    tol; at the stop, |d| <= tol + E(s)."""
    bound, tol_d, theta = Decimal(mean_error(s)), Decimal(tol), Decimal(result.theta)
    lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
    for _ in range(entropy._MAX_BISECT):
        mid = 0.5 * (lo + hi)
        d = exact_mean(mid, s) - theta
        if mid == result.multiplier:
            assert abs(d) <= tol_d + bound, (result.theta, mid, d)
            return
        assert abs(d) > tol_d - bound, (result.theta, mid, d)
        up = result.multiplier > mid
        assert (d < 0) == up or abs(d) <= bound, (result.theta, mid, d)
        lo, hi = (mid, hi) if up else (lo, mid)
    raise AssertionError(f"no midpoint reached {result.multiplier}")


def plain_path(theta, s, tol=1e-10):
    """The multiplier where the plain bisection from [-50, 50] stops, with a
    mean from entropy._gibbs_mean at every midpoint; None if it has not
    stopped after entropy._MAX_BISECT steps."""
    lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
    for _ in range(entropy._MAX_BISECT):
        mid = 0.5 * (lo + hi)
        mean = entropy._gibbs_mean(mid, s)
        if abs(mean - theta) <= tol:
            return mid
        lo, hi = (mid, hi) if mean < theta else (lo, mid)
    return None


def check_solved(thetas, base):
    """The batch equals each theta solved alone, bit for bit, and every
    interior result stops where the plain path stops and replays; the
    results."""
    results = neg_entropy_minima(thetas, base)
    assert reprs(results) == [repr(neg_entropy_minimum(t, base)) for t in thetas]
    for res in results:
        if res.multiplier is not None:
            assert res.multiplier == plain_path(res.theta, base.s)
            replay(res, base.s)
    return results


def reprs(results):
    return [repr(r) for r in results]


class TestXlogx:
    def test_convention_at_zero(self):
        assert xlogx(0.0) == 0.0

    def test_at_one(self):
        assert xlogx(1.0) == 0.0

    def test_at_inverse_e(self):
        assert xlogx(1 / math.e) == pytest.approx(-1 / math.e, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            xlogx(bad)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range(self, x):
        # minimum of x ln x on [0, 1] is -1/e
        assert -1 / math.e - 1e-12 <= xlogx(x) <= 0.0


class TestBeDimension:
    def test_point_masses_are_zero_exactly(self):
        for j in range(4):
            point = tuple(1.0 if i == j else 0.0 for i in range(4))
            assert be_dimension(point) == 0.0

    def test_uniform_is_one(self):
        assert be_dimension((0.25, 0.25, 0.25, 0.25)) == pytest.approx(1.0, abs=1e-12)

    def test_two_digit_split_is_half(self):
        assert be_dimension((0.5, 0.5, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_binary_base(self):
        assert be_dimension((0.5, 0.5), Base(2)) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        values = {be_dimension(p) for p in permutations((0.5, 0.25, 0.125, 0.125))}
        assert max(values) - min(values) <= 1e-12

    def test_uniform_is_the_unique_maximizer(self):
        for tau in ((0.3, 0.2, 0.25, 0.25), (0.26, 0.24, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1)):
            assert be_dimension(tau) < 1.0

    def test_accepts_probability_vector_objects(self):
        from adiclab.construct import ProbabilityVector

        assert be_dimension(ProbabilityVector.parse("1/2,1/2,0,0")) == pytest.approx(0.5)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            be_dimension((0.5, 0.6, 0.0, 0.0))
        with pytest.raises(ValueError):
            be_dimension((0.5, 0.5, 0.0))  # wrong length for base 4

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
        ).filter(lambda v: sum(v) > 1e-6)
    )
    def test_range_on_normalized_vectors(self, raw):
        total = sum(raw)
        tau = [v / total for v in raw]
        assert -1e-12 <= be_dimension(tau) <= 1.0 + 1e-12


class TestExpFamilyVector:
    def test_zero_multiplier_is_uniform(self):
        tau, mean = exp_family_vector(0.0)
        assert tau == (0.25, 0.25, 0.25, 0.25)
        assert mean == 1.5

    def test_log_two_gives_geometric_weights(self):
        # Weights 1, 2, 4, 8 over 15; direct-summation oracle for the mean.
        tau, mean = exp_family_vector(math.log(2))
        expected = (1 / 15, 2 / 15, 4 / 15, 8 / 15)
        assert tau == pytest.approx(expected, abs=1e-14)
        assert mean == pytest.approx(34 / 15, abs=1e-14)

    def test_extreme_multipliers_do_not_overflow(self):
        tau_hi, mean_hi = exp_family_vector(1000.0)
        assert tau_hi[-1] == pytest.approx(1.0) and mean_hi == pytest.approx(3.0)
        tau_lo, mean_lo = exp_family_vector(-1000.0)
        assert tau_lo[0] == pytest.approx(1.0) and mean_lo == pytest.approx(0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            exp_family_vector(math.inf)

    def test_rejects_a_multiplier_whose_exponents_overflow(self):
        with pytest.raises(ValueError, match=r"^multiplier 1e\+308 overflows lam \* 3$"):
            exp_family_vector(1e308)
        assert exp_family_vector(1e308, Base(2))[0] == (0.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3, 4, 10, 300, 5000)),
        st.one_of(st.floats(min_value=-60.0, max_value=60.0), st.floats(min_value=-1e4, max_value=1e4)),
    )
    def test_matches_the_oracle_row(self, s, lam):
        # Past |lam| * (s - 1) = 746 the row skips math.exp where it
        # underflows; the oracle row calls it on every entry.
        assert repr(exp_family_vector(lam, Base(s))) == repr(oracle_row(lam, Base(s)))

    @given(st.floats(min_value=-20, max_value=19), st.floats(min_value=1e-4, max_value=1.0))
    def test_mean_strictly_increasing(self, lam, gap):
        # Away from the float saturation region the monotonicity is strict
        # even numerically.
        _, lo = exp_family_vector(lam)
        _, hi = exp_family_vector(lam + gap)
        assert hi > lo


class TestNegEntropyMinimum:
    @pytest.mark.parametrize("theta", sorted(REFERENCE))
    def test_frozen_references(self, theta):
        lam_ref, m_ref, bound_ref = REFERENCE[theta]
        res = neg_entropy_minimum(theta)
        assert res.m_value == pytest.approx(m_ref, abs=1e-9)
        assert res.multiplier == pytest.approx(lam_ref, abs=1e-8)
        assert res.dimension_bound == pytest.approx(bound_ref, abs=1e-9)

    def test_midpoint_is_exact_uniform(self):
        res = neg_entropy_minimum(1.5)
        assert res.argmin == (0.25, 0.25, 0.25, 0.25)
        assert res.multiplier == 0.0
        assert res.m_value == pytest.approx(-math.log(4), abs=1e-15)

    def test_endpoints_degenerate(self):
        lo = neg_entropy_minimum(0.0)
        assert lo.argmin == (1.0, 0.0, 0.0, 0.0)
        assert lo.m_value == 0.0 and lo.dimension_bound == 0.0 and lo.multiplier is None
        hi = neg_entropy_minimum(3.0)
        assert hi.argmin == (0.0, 0.0, 0.0, 1.0)
        assert hi.m_value == 0.0

    def test_reflection_symmetry(self):
        for theta in (0.1, 0.7, 1.2, 1.5):
            gap = abs(neg_entropy_minimum(theta).m_value - neg_entropy_minimum(3 - theta).m_value)
            assert gap <= 1e-8

    def test_argmin_feasibility(self):
        for theta in (0.05, 0.9, 2.3, 2.95):
            res = neg_entropy_minimum(theta)
            assert sum(res.argmin) == pytest.approx(1.0, abs=1e-12)
            assert sum(i * t for i, t in enumerate(res.argmin)) == pytest.approx(theta, abs=1e-9)

    def test_bound_equals_argmin_dimension(self):
        for theta in (0.3, 1.1, 2.6):
            res = neg_entropy_minimum(theta)
            assert abs(res.dimension_bound - be_dimension(res.argmin)) <= 1e-9

    def test_other_bases(self):
        res3 = neg_entropy_minimum(1.0, Base(3))
        assert res3.argmin == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-9)
        assert res3.dimension_bound == pytest.approx(1.0, abs=1e-9)
        res2 = neg_entropy_minimum(0.5, Base(2))
        assert res2.m_value == pytest.approx(-math.log(2), abs=1e-9)

    def test_domain_and_tolerance_validation(self):
        with pytest.raises(ValueError):
            neg_entropy_minimum(3.5)
        with pytest.raises(ValueError):
            neg_entropy_minimum(-0.1)
        with pytest.raises(ValueError):
            neg_entropy_minimum(1.0, tol=0.0)

    def test_json_keys(self):
        doc = neg_entropy_minimum(1.5).to_json_dict()
        assert set(doc) == {"theta", "m", "argmin", "lambda", "dimension_bound"}


class TestGridOracle:
    def test_agrees_with_closed_form_at_midpoint(self):
        grid = neg_entropy_minimum_grid(1.5, step=1e-3)
        assert abs(grid.m_value - (-math.log(4))) <= 1e-4

    def test_coarse_grid_never_undershoots(self):
        # Every grid point is feasible, so the grid minimum is >= m(theta).
        grid = neg_entropy_minimum_grid(1.5, step=0.5)
        assert grid.m_value >= -math.log(4)

    def test_near_zero_theta(self):
        grid = neg_entropy_minimum_grid(0.01, step=1e-3)
        assert abs(grid.m_value) < 0.07

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9])
    def test_grid_brackets_closed_form(self, theta):
        closed = neg_entropy_minimum(theta).m_value
        grid = neg_entropy_minimum_grid(theta, step=1e-3).m_value
        assert closed - 1e-12 <= grid <= closed + 1e-4

    def test_argmin_on_slice(self):
        grid = neg_entropy_minimum_grid(0.8, step=1e-2)
        assert sum(grid.argmin) == pytest.approx(1.0, abs=1e-9)
        mean = sum(i * t for i, t in enumerate(grid.argmin))
        assert mean == pytest.approx(0.8, abs=1e-9)

    def test_binary_base_slice_is_single_point(self):
        grid = neg_entropy_minimum_grid(0.25, Base(2), step=0.1)
        assert grid.argmin == pytest.approx((0.75, 0.25))
        assert grid.m_value == pytest.approx(xlogx(0.75) + xlogx(0.25), abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            neg_entropy_minimum_grid(0.0)
        with pytest.raises(ValueError):
            neg_entropy_minimum_grid(1.0, step=0.7)

    # About 1e12, 1e9, 258**3 (just over 2**24) and 1e9 cells.
    @pytest.mark.parametrize("base, step", [(6, 1e-3), (5, 1e-3), (5, 1 / 257), (2, 1e-9)])
    def test_oversized_grid_is_refused_before_allocating(self, base, step):
        with pytest.raises(ValueError, match="cells"):
            neg_entropy_minimum_grid(0.5, Base(base), step)


class TestSweep:
    def test_sweep_preserves_order_and_csv_header(self):
        results = [neg_entropy_minimum(t) for t in (0.5, 1.0, 1.5)]
        assert [r.theta for r in results] == [0.5, 1.0, 1.5]
        text = sweep_csv(results)
        lines = text.splitlines()
        assert lines[0] == "theta,m,dimension_bound"
        assert len(lines) == 4


class TestEntropyResultShape:
    def test_m_value_is_nonpositive(self):
        for theta in (0.0, 0.4, 1.5, 2.8, 3.0):
            res = neg_entropy_minimum(theta)
            assert res.m_value <= 0.0
            assert 0.0 <= res.dimension_bound <= 1.0
            assert isinstance(res, EntropyResult)


SOLVER_BASES = (2, 3, 4, 5, 6, 10, 300)
# Bases where the row-decided oracle's own rounding (about s**2 2**-53 in
# its mean) stays far below the solver's E(s), so that the two decide alike
# unless a mean falls within about 1e-15 of a decision. In base 300 the
# oracle's error is about 1e-11, and 7 of 20,000 random thetas stopped
# elsewhere: there each result is replayed against exact means instead.
ORACLE_BASES = (2, 3, 4, 5, 6, 10)


def check_against_oracle(thetas, s):
    if s in ORACLE_BASES:
        assert outcome(neg_entropy_minima, thetas, Base(s)) == outcome(batch_oracle, thetas, Base(s))
    else:
        check_solved(thetas, Base(s))


class TestBatchedSolverMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SOLVER_BASES), st.floats(min_value=0.0, max_value=1.0))
    def test_one_theta(self, s, fraction):
        # Fractions below 1e-10 / (s-1) all stop at lambda = -25.
        check_against_oracle([fraction * (s - 1)], s)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(SOLVER_BASES),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
    )
    def test_any_batch(self, s, fractions):
        check_against_oracle([f * (s - 1) for f in fractions], s)

    @pytest.mark.parametrize("s", [3, 4, 10])
    def test_thousandths_of_the_range(self, s):
        thetas = [k / 1000 * (s - 1) for k in range(1001)]
        assert neg_entropy_minima(thetas, Base(s)) == batch_oracle(thetas, Base(s))

    @pytest.mark.parametrize("s", [2, 4, 10])
    def test_within_1e9_of_the_endpoints(self, s):
        top = s - 1.0
        thetas = [1e-9, 5e-10, 1e-12, top - 1e-9, top - 5e-10, math.nextafter(top, 0.0)]
        expected = batch_oracle(thetas, Base(s))
        assert neg_entropy_minima(thetas, Base(s)) == expected
        assert [neg_entropy_minimum(t, Base(s)) for t in thetas] == expected

    def test_endpoints_mixed_with_interior(self):
        thetas = [3.0, 0.0, 1.5, 0.2, 0.0, 2.9, 3.0, 1.5]
        assert neg_entropy_minima(thetas) == batch_oracle(thetas)
        assert neg_entropy_minima([]) == []

    def test_results_hold_python_floats(self):
        for res in neg_entropy_minima([0.0, 0.7, 1.5, 3.0]):
            values = [res.theta, res.m_value, res.dimension_bound, *res.argmin]
            if res.multiplier is not None:
                values.append(res.multiplier)
            assert all(type(v) is float for v in values)
            json.dumps(res.to_json_dict())

    def test_every_theta_is_checked_before_solving(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("solved before validating")

        for name in ("_gibbs_row", "_gibbs_mean"):
            monkeypatch.setattr(entropy, name, unreachable)
        with pytest.raises(ValueError, match=r"^theta must lie in \[0, 3\], got 4.0$"):
            neg_entropy_minima([1.0, 4.0, -1.0])
        with pytest.raises(ValueError, match="^tolerance must be positive, got 0.0$"):
            neg_entropy_minima([1.0, 4.0], tol=0.0)

    @pytest.mark.parametrize("thetas", [[1.0, 1e-300], [-0.0, 5e-324], [1.9e-22]])
    def test_means_below_the_bracket_mean_are_solved(self, thetas):
        # The mean at lambda = -50 is 1.93e-22 in every base; below it the
        # bisection still stops at lambda = -25, within tol of theta.
        results = neg_entropy_minima(thetas)
        assert results == batch_oracle(thetas)
        tiny = results[-1]
        assert tiny.multiplier == -25.0
        assert abs(left_sum(i * t for i, t in enumerate(tiny.argmin)) - tiny.theta) <= 1e-10

    # A tiny negative mean is refused like nan and 3.5, with or without an
    # in-range theta before it.
    @pytest.mark.parametrize(
        "thetas", [[1.0, -1e-300], [float("nan")], [3.5], [-0.0, -5e-324]]
    )
    def test_errors_match_the_oracle(self, thetas):
        # An error is a plain (type, message) tuple; a result is an
        # EntropyResult, a tuple subclass.
        first_error = next(
            r for r in (outcome(bisection_oracle, t) for t in thetas) if type(r) is tuple
        )
        assert outcome(neg_entropy_minima, thetas) == first_error
        assert outcome(neg_entropy_minimum, thetas[-1]) == outcome(bisection_oracle, thetas[-1])


def thetas_of(s):
    """Thetas in base s: fractions of the range and values within 1e-9 of
    either end."""
    return st.one_of(
        st.floats(min_value=0.0, max_value=1.0).map(lambda f: f * (s - 1)),
        st.floats(min_value=0.0, max_value=1e-9),
        st.floats(min_value=0.0, max_value=1e-9).map(lambda x: (s - 1) - x),
    )


# The thetas in base 400000 where the rows' rounding once broke the solver.
THETAS_400000 = (0.5, 200000.0, 340000.0, 360000.0)


@lru_cache(maxsize=None)
def alone_in_base_400000(theta):
    """check_solved of theta alone in base 400000, once per theta: each
    result builds a row of 400000 entries."""
    return repr(check_solved([theta], Base(400000))[0])


def with_repeats(thetas):
    """Lists of the given thetas, in the order drawn, and then repeats of
    them."""
    return st.lists(st.sampled_from(thetas), max_size=len(thetas)).map(lambda more: thetas + more)


class TestNumpyDecidesExactAnswers:
    # The loop takes the thetas in increasing order and starts Newton's
    # method from the theta before; unsorted lists with repeats, and thetas
    # next to either end, must not change a result.
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from((*range(2, 11), 300, 10**4)).flatmap(
            lambda s: st.tuples(st.just(s), st.lists(thetas_of(s), min_size=1, max_size=8).flatmap(with_repeats))
        )
    )
    def test_both_paths_match_the_oracle(self, case):
        s, thetas = case
        base = Base(s)
        if s in ORACLE_BASES:
            expected = reprs(batch_oracle(thetas, base))
            assert reprs(neg_entropy_minima(thetas, base)) == expected
            assert [repr(neg_entropy_minimum(t, base)) for t in thetas] == expected
        else:
            check_solved(thetas, base)

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.sampled_from(THETAS_400000), min_size=1, max_size=3).flatmap(with_repeats))
    def test_lists_in_base_400000(self, thetas):
        results = neg_entropy_minima(thetas, Base(400000))
        assert reprs(results) == [alone_in_base_400000(t) for t in thetas]

    # The small tols, 1e-14 in base 10 (about 2 E(10)) and 1e-11 in base
    # 300, bring the stop test close to the bound.
    @pytest.mark.parametrize("s, tol", [(2, 1e-10), (4, 1e-10), (10, 1e-14), (300, 1e-10), (300, 1e-11)])
    @pytest.mark.parametrize("sign", [1, -1, 0])
    def test_numpy_means_off_by_the_margin(self, monkeypatch, s, tol, sign):
        # Every mean is the exact one moved by E(s) less four roundings of
        # size u(s - 1): the rounding of the exact and of the moved mean,
        # and of mean - theta, still leave d within E(s) of the exact d, the
        # bound that _bisect derives. Its consequences must then hold: each
        # answer replays, and the loop stops where the plain path stops on
        # the same means. Sign 0 moves each mean by the parity of its
        # multiplier's last bit, a sawtooth.
        shift = mean_error(s) - 4 * (s - 1) * 2.0**-53

        def means(lam, base_s):
            direction = sign or (-1) ** int(math.frexp(lam)[0] * 2.0**53)
            return float(exact_mean(lam, s)) + direction * shift

        monkeypatch.setattr(entropy, "_gibbs_mean", means)
        thetas = [k / 40 * (s - 1) for k in range(41)] + [1e-9, (s - 1) - 1e-9]
        for res in neg_entropy_minima(thetas, Base(s), tol):
            if res.multiplier is not None:
                replay(res, s, tol)
                assert res.multiplier == plain_path(res.theta, s, tol)

    def test_exp_is_within_one_ulp(self):
        # E(s) takes t = math.exp(-2|x|) in _h within 1 ulp. Hold it to that
        # on the arguments it meets, and to 0.0 where _h skips it.
        rng = random.Random(25)
        xs = [rng.uniform(-746.0, 0.0) for _ in range(4000)]
        xs += [rng.uniform(-40.0, 0.0) for _ in range(2000)] + [-745.1, -708.5, -1e-300, -0.0]
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [Decimal(x).exp() for x in xs]
        for x, want in zip(xs, exact):
            assert abs(Decimal(math.exp(x)) - want) <= Decimal(math.ulp(float(want))), x
        assert math.exp(entropy._UNDERFLOW) == 0.0
        assert math.exp(-1e300) == 0.0

    def test_base_400000_skips_underflowed_weights(self, monkeypatch):
        # The window of lambda at theta = 1/2 holds about 746 / |lambda| of
        # the 400000 entries; calling math.exp on every entry at each of the
        # 39 steps took 15.6 million calls. Now the steps take at most two
        # math.exp calls each, in _h, and only the answer builds a row.
        arguments, rows = [], []
        exact_exp, row = math.exp, entropy._gibbs_row

        def counting_exp(x):
            arguments.append(x)
            return exact_exp(x)

        def counting_row(lam, s):
            rows.append(lam)
            return row(lam, s)

        monkeypatch.setattr(entropy, "_gibbs_row", counting_row)
        monkeypatch.setattr(math, "exp", counting_exp)
        result = neg_entropy_minimum(0.5, Base(400000))
        monkeypatch.setattr(math, "exp", exact_exp)
        window = int(746 / abs(result.multiplier)) + 1
        assert rows == [result.multiplier]
        assert min(arguments) >= entropy._UNDERFLOW
        assert len(arguments) <= window + 2 * 40
        assert sum(1 for t in result.argmin if t) <= window
        assert repr(result.argmin) == repr(oracle_row(result.multiplier, Base(400000))[0])

    # No multiplier brings the computed mean within 1e-300 of 0.3 or of 0.9;
    # 1.5 stops at lambda = 0 with the mean exactly 1.5, and 2.2 where it is
    # exactly 2.2. The loop meets 0.3 first, in increasing order, but names
    # the first theta in the order given that does not stop.
    @pytest.mark.parametrize("thetas, named", [([1.5, 0.3, 2.2], 0.3), ([1.5, 0.9, 0.3], 0.9)])
    def test_max_bisect_error_text_is_unchanged(self, thetas, named):
        with pytest.raises(ArithmeticError) as info:
            neg_entropy_minima(thetas, tol=1e-300)
        message = f"bisection did not reach |mean - theta| <= 1e-300 for theta={named}"
        assert str(info.value) == message
        assert outcome(bisection_oracle, named, BASE4, 1e-300) == (ArithmeticError, message)


def bernoulli_coth(n):
    """4**k B_2k / (2k)! for k = 1..n, from Bernoulli numbers in Fractions:
    sum over j <= m of C(m + 1, j) B_j = 0 for m >= 1, B_0 = 1."""
    b = [Fraction(1)]
    for m in range(1, 2 * n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return [Fraction(4**k) * b[2 * k] / math.factorial(2 * k) for k in range(1, n + 1)]


# Multipliers for the closed form: anywhere in the bracket, near its ends,
# near 0 on every scale, and where s lam / 2 or lam / 2 crosses +-1, where
# _h changes its form.
def multipliers(s):
    def signed(magnitudes):
        return st.tuples(magnitudes, st.sampled_from((1.0, -1.0))).map(lambda t: t[0] * t[1])

    near_one = st.floats(min_value=0.999, max_value=1.001)
    return st.one_of(
        st.floats(min_value=-LAMBDA_BRACKET, max_value=LAMBDA_BRACKET),
        signed(st.floats(min_value=49.0, max_value=LAMBDA_BRACKET)),
        signed(st.floats(min_value=-30.0, max_value=0.0).map(lambda e: 10.0**e)),
        signed(near_one.map(lambda x: 2.0 * x / s)),
        signed(near_one.map(lambda x: 2.0 * x)),
    )


class TestClosedFormMean:
    def test_coefficients_are_the_bernoulli_series(self):
        assert entropy._COTH == tuple(float(c) for c in bernoulli_coth(18))

    @pytest.mark.parametrize("s", [2, 3, 4, 10, 64])
    @pytest.mark.parametrize("lam", [-50.0, -2.0, -0.3, -1e-9, 1e-30, 2e-3, 0.7, 2.0, 50.0])
    def test_reference_is_the_direct_sum(self, s, lam):
        assert abs(exact_mean(lam, s) - direct_mean(lam, s)) <= Decimal(10) ** -70

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from((2, 3, 4, 5, 10, 17, 300, 10**4, 10**5, 4 * 10**5)).flatmap(
            lambda s: st.tuples(st.just(s), multipliers(s))
        )
    )
    def test_within_the_bound_of_the_exact_mean(self, case):
        s, lam = case
        got = entropy._gibbs_mean(lam, s)
        assert abs(Decimal(got) - exact_mean(lam, s)) <= Decimal(mean_error(s))


class TestPathReplay:
    # Fractions of the range, values within 1e-9 of either end, a cluster
    # whose midpoints part only in the last steps, and THETAS_400000.
    @pytest.mark.parametrize("s", [*range(2, 11), 300, 10**4])
    def test_every_step_follows_the_exact_mean(self, s):
        rng = random.Random(s)
        fractions = [0.013, 0.25, 0.5, 0.61803, 0.85] + [rng.random() for _ in range(6)]
        thetas = [f * (s - 1) for f in fractions] + [1e-9, 5e-10, (s - 1) - 1e-9]
        thetas += [thetas[3] + k * 3e-10 for k in range(1, 4)]
        check_solved(thetas, Base(s))

    def test_base_400000(self):
        results = check_solved(THETAS_400000, Base(400000))
        # The changed answer at 200000: 3.749999963839916e-11 before, from
        # row-decided steps.
        assert results[1].multiplier == 3.749999999838816e-11


def offsets():
    """Where a proposal may lie from the root: at it, on the scale of a
    stop's band, anywhere in the bracket, or nowhere."""
    return st.one_of(
        st.floats(min_value=-1e-8, max_value=1e-8),
        st.floats(min_value=-100.0, max_value=100.0),
        st.sampled_from((0.0, math.inf, -math.inf, math.nan)),
    )


class TestOneLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((2, 3, 4, 10, 300, 10**4)).flatmap(
            lambda s: st.tuples(
                st.just(s), thetas_of(s).filter(lambda t: 0.0 < t < s - 1), offsets(), offsets()
            )
        )
    )
    def test_any_proposal_stops_where_the_plain_path_stops(self, case):
        # Newton's method only picks which midpoints take a mean: proposals
        # in either order, on either side of the root, at it, or not finite,
        # are each certified or dropped.
        s, theta, below, above = case
        root = plain_path(theta, s)
        with mock.patch.object(entropy, "_steer", lambda *args: (root + below, root + above)):
            assert neg_entropy_minimum(theta, Base(s)).multiplier == root

    def test_a_sweep_takes_few_means(self, monkeypatch):
        # The 2999 interior thetas of `dimension --sweep 0:3:1/1000`. The
        # plain path takes 37 means per theta; Newton's method from each
        # theta's neighbour leaves about 6.
        mean, calls = entropy._gibbs_mean, []

        def counting(lam, s):
            calls.append(lam)
            return mean(lam, s)

        monkeypatch.setattr(entropy, "_gibbs_mean", counting)
        neg_entropy_minima([k / 1000 for k in range(3001)])
        assert len(calls) <= 12 * 2999

    @pytest.mark.parametrize("s", [2, 4, 10, 300])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_a_certificate_needs_the_whole_margin(self, monkeypatch, s, side):
        # m is a midpoint of theta's path whose exact d is side * (tol +
        # 0.6 E(s)), and c lies between m and the root, at exact d side *
        # (tol + 0.3 E(s)). The means below move each computed d by up to
        # E(s): c's away from theta, every other one toward it. So the plain
        # path stops at m, and c's d lies beyond tol + E(s) but within
        # tol + 2 E(s): a margin of E(s) would certify c and skip m.
        tol, bound = 1e-10, Decimal(mean_error(s))
        m = -50.0 + 100.0 * (int(0.49 * 2**30) | 1) / 2**30  # a 30th midpoint, near lambda = -1
        theta = float(exact_mean(m, s) - side * (Decimal(tol) + Decimal("0.6") * bound))
        slope = (exact_mean(m + 1e-6, s) - exact_mean(m - 1e-6, s)) / Decimal(2e-6)
        c = m - side * float(Decimal("0.3") * bound / slope)

        def moved(lam, base_s):
            # Rounding the moved mean and mean - theta costs at most one ulp
            # of the larger of the two.
            exact = exact_mean(lam, s)
            direction = (1 if exact > Decimal(theta) else -1) * (1 if lam == c else -1)
            ulp = Decimal(math.ulp(max(float(exact), theta)))
            mean = float(exact + direction * (bound - ulp))
            assert abs(Decimal(mean - theta) - (exact - Decimal(theta))) <= bound
            return mean

        monkeypatch.setattr(entropy, "_gibbs_mean", moved)
        assert plain_path(theta, s, tol) == m
        assert tol + mean_error(s) < side * (moved(c, s) - theta) <= tol + 2 * mean_error(s)
        proposals = (c, math.inf) if side < 0 else (-math.inf, c)
        monkeypatch.setattr(entropy, "_steer", lambda *args: proposals)
        assert neg_entropy_minimum(theta, Base(s), tol).multiplier == m


GRID_THETAS = (0.004, 0.37, 0.5, 0.81, 0.999)


class TestSlabGridMatchesFullScan:
    @pytest.mark.parametrize(
        "s, step",
        [(s, step) for s in (2, 3, 4, 5, 6) for step in (0.5, 1 / 7, 1 / 50)] + [(3, 1e-3), (4, 1e-3)],
    )
    def test_matches_full_scan(self, s, step):
        # Fractions of the mean range; at step 0.5 some slices hold no grid
        # point. The full scan of base 6 at step 1/50 takes 0.5 s each.
        cells = (round(1 / step) + 1) ** (s - 2)
        for fraction in GRID_THETAS if cells < 10**6 else GRID_THETAS[1:4:2]:
            theta = fraction * (s - 1)
            want = outcome(full_grid_oracle, theta, Base(s), step)
            assert outcome(neg_entropy_minimum_grid, theta, Base(s), step) == want

    def test_base5_at_the_finest_admitted_step(self):
        want = full_grid_oracle(1.23, Base(5), 1 / 200)
        assert neg_entropy_minimum_grid(1.23, Base(5), 1 / 200) == want

    def test_memory_is_bounded_by_the_slab(self):
        # The full scan of these 201**3 cells peaked at 449 MiB.
        tracemalloc.start()
        try:
            neg_entropy_minimum_grid(1.23, Base(5), 1 / 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


CAP_STEP = 1 / (2**24 - 1)  # base 3's finest admitted step: 2**24 grid points


def grid_of(s, step):
    """Grid points per free coordinate, and free coordinates, of the oracle."""
    return round(1 / step) + 1, s - 2


def slice_mask(theta, npts, free):
    """Which cells of the whole grid {0..npts-1}**free pass the oracle's
    mask, with the full scan's float operations."""
    axis = np.linspace(0.0, 1.0, npts)
    s1 = s0 = np.zeros((npts,) * free)
    for j in range(free):
        shape = [1] * free
        shape[j] = npts
        s1 = s1 + (j + 2) * axis.reshape(shape)
        s0 = s0 + (j + 1) * axis.reshape(shape)
    return (theta - s1 >= -1e-12) & (1.0 - theta + s0 >= -1e-12)


def formed_cells(theta, npts, free):
    """Index tuples of the cells that the slice walk forms, in order."""
    cells = []
    for values, _, _ in entropy._slice_pieces(theta, npts, free):
        index = [np.rint(a * (npts - 1)).astype(np.int64) for a in values]
        cells.extend(zip(*(i.tolist() for i in index)) if index else [()])
    return cells


def thetas_near_a_boundary(npts, free, cells):
    """For each cell, the thetas within 6 ulps of where its t1 or its t0
    is exactly -1e-12: the rounding of the walk's closed-form interval
    decides whether such a cell is formed."""
    axis = np.linspace(0.0, 1.0, npts)
    for cell in cells:
        s1 = s0 = 0.0
        for j, i in enumerate(cell):
            s1 = s1 + (j + 2) * float(axis[i])
            s0 = s0 + (j + 1) * float(axis[i])
        for edge in (s1 - 1e-12, 1.0 + s0 + 1e-12):
            theta = edge
            for _ in range(6):
                theta = math.nextafter(theta, -math.inf)
            for _ in range(13):
                if 0.0 < theta < free + 1:
                    yield theta
                theta = math.nextafter(theta, math.inf)


def grid_thetas(s):
    """Fractions of the mean range, theta = k/100, and thetas within 1e-9
    of either end, all inside (0, s-1) as the oracle requires."""
    return st.one_of(
        st.floats(min_value=0.0, max_value=1.0).map(lambda f: f * (s - 1)),
        st.integers(1, 100 * (s - 1) - 1).map(lambda k: k / 100),
        st.floats(min_value=0.0, max_value=1e-9),
        st.floats(min_value=0.0, max_value=1e-9).map(lambda x: (s - 1) - x),
    ).filter(lambda theta: 0.0 < theta < s - 1)


class TestSliceWalk:
    @pytest.mark.parametrize("npts", [2, 3, 11, 201, 1001, 4097, 2**20 + 1, 2**24])
    def test_axis_values_are_linspace(self, npts):
        # The oracle's grid points come from their indices; they must be the
        # installed numpy's linspace, bit for bit, at every npts it uses
        # (2**24 is base 3 at the finest admitted step).
        want = np.linspace(0.0, 1.0, npts)
        for start in range(0, npts, 2**20):
            index = np.arange(start, min(start + 2**20, npts))
            assert entropy._axis_values(index, npts).tobytes() == want[index].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_scan(self, data):
        # Bases 2-7 at any step whose whole grid the full scan can hold
        # (at most 2**16 cells), the value or the refusal alike.
        s = data.draw(st.integers(2, 7))
        top = min(2**16, entropy._MAX_GRID_CELLS) ** (1 / max(s - 2, 1))
        step = 1 / data.draw(st.integers(2, int(top) - 1))
        theta = data.draw(grid_thetas(s))
        want = outcome(full_grid_oracle, theta, Base(s), step)
        assert outcome(neg_entropy_minimum_grid, theta, Base(s), step) == want

    @pytest.mark.parametrize("s, step", [(3, 1 / 50), (4, 1 / 40), (5, 1 / 20), (6, 1 / 7)])
    def test_forms_every_cell_that_passes_the_mask(self, s, step):
        # At thetas where a cell's t1 or t0 sits within a few ulps of
        # -1e-12, the closed-form interval rounds either way; the one-index
        # widening must keep every cell that the mask passes.
        npts, free = grid_of(s, step)
        rng = random.Random(s)
        cells = [tuple(rng.randrange(npts) for _ in range(free)) for _ in range(12)]
        for theta in thetas_near_a_boundary(npts, free, cells):
            feasible = {tuple(c) for c in np.argwhere(slice_mask(theta, npts, free)).tolist()}
            assert feasible <= set(formed_cells(theta, npts, free)), theta

    @pytest.mark.parametrize("theta", [1e-13, 5e-13, 2.0 - 1e-13, 2.0 - 5e-13])
    def test_the_interval_keeps_the_tolerance(self, theta):
        # On a line of 4 * 10**12 + 1 points the 1e-12 tolerance spans
        # several indices beyond the widening; the cells within it lie at
        # the ends of the line, so only those are checked.
        npts = 4 * 10**12 + 1
        ends = [*range(8), *range(npts - 8, npts)]
        feasible = set()
        for i in ends:
            a = 1.0 if i == npts - 1 else i * (1.0 / (npts - 1))
            if theta - (0.0 + 2 * a) >= -1e-12 and 1.0 - theta + (0.0 + a) >= -1e-12:
                feasible.add((i,))
        formed = formed_cells(theta, npts, 1)
        assert feasible and feasible <= set(formed)
        assert len(formed) <= len(feasible) + 2

    @pytest.mark.parametrize(
        "s, step, fractions",
        [
            (2, 0.1, (0.25, 0.5)),
            (3, 1 / 1000, (0.01, 0.3, 0.5, 0.9)),
            (4, 1 / 200, (0.01, 0.37, 0.5, 0.97)),
            (5, 1 / 60, (0.0625, 0.25, 0.4825, 0.9375)),
            (6, 1 / 20, (0.1, 0.5, 0.81)),
            (7, 1 / 10, (0.2, 0.5)),
        ],
    )
    def test_forms_at_most_the_feasible_cells_and_two_per_row(self, s, step, fractions):
        # Counted through the piece generator: a row (a prefix of the first
        # s-3 free coordinates) forms its feasible cells and at most two
        # more, so the walk's work follows the slice, not the grid.
        npts, free = grid_of(s, step)
        rows = npts ** max(free - 1, 0)
        walk = entropy._slice_pieces
        for fraction in fractions:
            theta = fraction * (s - 1)
            counted = []

            def counting(*args):
                for piece in walk(*args):
                    counted.append(piece[1].size)
                    yield piece

            with mock.patch.object(entropy, "_slice_pieces", counting):
                assert neg_entropy_minimum_grid(theta, Base(s), step) == full_grid_oracle(theta, Base(s), step)
            feasible = int(np.count_nonzero(slice_mask(theta, npts, free)))
            assert feasible <= sum(counted) <= feasible + 2 * rows
            assert max(counted) <= entropy._SLAB_CELLS
        if s == 5:
            # theta = 0.25 in base 5 at step 1/60: under 1 % of the grid.
            assert sum(counted) < 0.01 * npts**free

    @pytest.mark.parametrize("s, theta", [(3, 0.5), (2, 0.5)])
    def test_memory_is_bounded_at_the_cap_in_small_bases(self, s, theta):
        # The grid of 2**24 points once held a linspace axis and its x ln x
        # whole: 400 MiB at the tracemalloc peak.
        tracemalloc.start()
        try:
            grid = neg_entropy_minimum_grid(theta, Base(s), CAP_STEP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.theta == theta
        assert peak < 2**20

    def test_memory_is_below_the_slab_scan(self):
        # The slab scan peaked at 1.41 MiB in base 5 at step 1/200, and at
        # 2.06-3.11 MiB on the verify check's base-4 grids at step 1/1000.
        for theta, s, step in [(1.23, 5, 1 / 200), *((t, 4, 1e-3) for t in (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9))]:
            tracemalloc.start()
            try:
                neg_entropy_minimum_grid(theta, Base(s), step)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.4 * 2**20, (theta, s)
