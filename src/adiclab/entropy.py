"""Entropy-based dimension formulas for digit-frequency sets.

The fractal (Hausdorff-Besicovitch) dimension of the set of numbers whose
digit frequencies equal a probability vector tau is the normalized entropy
-sum(tau_i ln tau_i) / ln s. Minimizing f(tau) = sum(tau_i ln tau_i) over
probability vectors with a prescribed digit mean theta yields the dimension
lower bound for the level set of the asymptotic-mean function.

f is strictly convex on the constraint slice, so its unique stationary
point is the exponential-family (Gibbs) vector tau_i ~ exp(lambda * i);
the multiplier is found by bisection on the strictly increasing mean,
which each step takes in closed form, in O(1) in any base (see `_bisect`).
The Gibbs vector is built once per answer. `neg_entropy_minima` solves a
whole list of means in one pure-Python loop, in increasing order: Newton's
method from one mean's multiplier brackets the next one's, so that only the
few bisection steps inside the bracket take a mean, and every result is
still the plain bisection's, bit for bit. An exhaustive grid scan over the
slice, which forms only the grid cells that can lie on it, serves as an
independent oracle; it alone loads numpy.

This module works in binary64, unlike the exact-rational digit modules:
logarithms are transcendental, so exactness is impossible, and the oracle
bounds the error instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .digits import BASE4, Base

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "xlogx",
    "be_dimension",
    "exp_family_vector",
    "EntropyResult",
    "neg_entropy_minima",
    "neg_entropy_minimum",
    "GridMinimum",
    "neg_entropy_minimum_grid",
    "sweep_csv",
]

# Bisection bracket for the multiplier; shifted exponents keep every
# midpoint free of overflow. At the default tol of 1e-10 a theta near either
# endpoint stops at lambda = +-25, halfway to the bracket's ends; a tol that
# no multiplier in the bracket meets ends in the _MAX_BISECT ArithmeticError.
LAMBDA_BRACKET = 50.0
_MAX_BISECT = 200
# Newton steps that `_steer` takes at most. A cold start from lambda = 0
# doubles lambda at each step while 1/s << |lambda| << 1, which takes about
# 16 steps in base 400000 at theta = 1/2.
_NEWTON_STEPS = 32
# math.exp of anything below this is 0.0: exp(-746) < 2**-1076.
_UNDERFLOW = -746.0
# c_n = 4**n B_2n / (2n)!, n = 1..18, of coth(x) - 1/x = sum c_n x**(2n-1)
# for |x| < pi (Abramowitz & Stegun 4.5.67); on |x| <= 1 the tail is below 2**-61.
_COTH = (
    0.3333333333333333, -0.022222222222222223, 0.0021164021164021165, -0.00021164021164021165,
    2.1377799155576935e-05, -2.1644042808063972e-06, 2.1925947851873778e-07, -2.2214608789979678e-08,
    2.2507846516808994e-09, -2.2805151204592183e-10, 2.3106432599002624e-11, -2.3411706819824882e-12,
    2.3721017400233653e-13, -2.4034415333307705e-14, 2.4351954029183367e-15, -2.4673688045172075e-16,
    2.499967277122081e-17, -2.532996435740635e-18,
)

# Largest grid the oracle scans: npts**(s-2) cells (npts for s <= 3). Only
# the cells that can lie on the theta slice are formed and tested, so the
# scan's time follows them, and this bounds it; its memory is bounded by
# the piece size in every base. It admits base 5 at step 1/200 (201**3
# cells).
_MAX_GRID_CELLS = 2**24
# Cells the grid oracle forms at once, and prefixes of all but the last free
# coordinate whose intervals on the slice it solves at once.
_SLAB_CELLS = 2**12
_BLOCK_ROWS = 2**11


def xlogx(x: float) -> float:
    """x * ln(x) on [0, 1], continuously extended by 0 at x = 0."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"xlogx is defined on [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def _lsum(values: Iterable[float]) -> float:
    """Left-to-right float sum. The builtin sum compensates its rounding
    from Python 3.12 on, so results would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _entries(tau) -> tuple[float, ...]:
    entries = getattr(tau, "entries", tau)
    return tuple(float(t) for t in entries)


def be_dimension(tau: Sequence[float | Fraction], base: Base = BASE4) -> float:
    """Dimension -sum(tau_i ln tau_i) / ln s of the frequency set of tau.

    Equals 1 exactly at the uniform vector, 0 exactly on point masses
    (by the xlogx(0) = 0 convention), and is invariant under digit
    permutation. Accepts any length-s sequence on the simplex.
    """
    t = _entries(tau)
    if len(t) != base.s:
        raise ValueError(f"expected {base.s} entries, got {len(t)}")
    if any(v < 0.0 for v in t) or abs(_lsum(t) - 1.0) > 1e-9:
        raise ValueError(f"not a probability vector: {t}")
    # + 0.0 normalizes the point-mass result to 0.0 rather than -0.0
    return -_lsum(map(xlogx, t)) / math.log(base.s) + 0.0


def exp_family_vector(lam: float, base: Base = BASE4) -> tuple[tuple[float, ...], float]:
    """Gibbs vector tau_i = exp(lam*i) / Z and its mean sum(i * tau_i).

    Exponents are shifted by their maximum before exponentiation, so any
    lam with lam * (s-1) finite is safe from overflow. The mean is strictly
    increasing in lam, ranging over (0, s-1), with value (s-1)/2 at
    lam = 0.
    """
    if not math.isfinite(lam):
        raise ValueError(f"multiplier must be finite, got {lam}")
    if not math.isfinite(lam * (base.s - 1)):
        raise ValueError(f"multiplier {lam} overflows lam * {base.s - 1}")
    tau = _gibbs_row(float(lam), base.s)
    return tau, _lsum(map(mul, tau, range(base.s)))


def _gibbs_row(lam: float, s: int) -> tuple[float, ...]:
    """The Gibbs vector of multiplier `lam` in base s in pure Python: exponents
    lam*i shifted by their maximum, `math.exp`, and a left-to-right sum.

    `math.exp` runs only where the shifted exponent is at least -746. lam*i
    is monotone in i, so that is one window, and every weight outside it is
    exactly 0.0 (exp(-746) is below half the least subnormal); adding 0.0
    changes no partial sum, and 0.0 / Z is 0.0.
    """
    if lam > 0.0:
        top = lam * (s - 1)
        lo, hi = 0, s
        if top > -_UNDERFLOW:
            lo = bisect_left(range(s), True, key=lambda i: lam * i - top >= _UNDERFLOW)
    else:
        top, lo, hi = 0.0, 0, s
        if lam * (s - 1) < _UNDERFLOW:
            hi = bisect_left(range(s), True, key=lambda i: lam * i < _UNDERFLOW)
    exp = math.exp
    weights = [exp(lam * i - top) for i in range(lo, hi)]
    z = _lsum(weights)
    return (0.0,) * lo + tuple([w / z for w in weights]) + (0.0,) * (s - hi)


def _series(x: float) -> float:
    """sum c_n x**(2n-1) over _COTH by Horner's rule."""
    y = x * x
    p = 0.0
    for c in reversed(_COTH):
        p = p * y + c
    return x * p


def _h(x: float) -> float:
    """coth(x) - 1/x (0 at 0; `_bisect` bounds the error): the series for
    |x| <= 1, and (1 - 1/|x|) + 2t/(1 - t), t = exp(-2|x|), signed like x."""
    a = abs(x)
    if a <= 1.0:
        return _series(x)
    t = math.exp(-2.0 * a) if -2.0 * a >= _UNDERFLOW else 0.0
    return math.copysign((1.0 - 1.0 / a) + 2.0 * t / (1.0 - t), x)


def _gibbs_mean(lam: float, s: int) -> float:
    """The mean of the Gibbs row of multiplier lam in base s, with
    h(x) = coth(x) - 1/x (see `_bisect`)."""
    return 0.5 * ((s - 1) + (s * _h(lam * (0.5 * s)) - _h(0.5 * lam)))


def _dh(x: float) -> float:
    """h'(x) = 1/x**2 - 1/sinh(x)**2, for Newton's slope alone: within about
    1e-9 of it, relative, with the series' first two terms below 1e-3."""
    a = abs(x)
    if a < 1e-3:
        return 1.0 / 3.0 - a * a / 15.0
    if a > 350.0:  # sinh(a)**2 would overflow; 1/sinh(a)**2 < 1e-303
        return 1.0 / (a * a)
    return 1.0 / (a * a) - 1.0 / math.sinh(a) ** 2


class EntropyResult(NamedTuple):
    """Constrained minimum of f(tau) = sum(tau_i ln tau_i) at mean theta."""

    theta: float
    m_value: float
    argmin: tuple[float, ...]
    multiplier: float | None  # None at the degenerate endpoints
    dimension_bound: float

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "m": self.m_value,
            "argmin": list(self.argmin),
            "lambda": self.multiplier,
            "dimension_bound": self.dimension_bound,
        }


def _bisect(results: list, positions: list[int], thetas: list[float], s: int, tol: float) -> None:
    """Bisect the interior means thetas[k], k in `positions`, and write each
    result to results[k] at its first midpoint with |mean - theta| <= tol;
    raise ArithmeticError for the first theta, in the order of `positions`,
    that has not stopped after _MAX_BISECT steps.

    Each step decides on d = mean - theta, the mean from `_gibbs_mean` in
    O(1): ((s-1) + s h1 - h0)/2, h1 = h(s lam/2), h0 = h(lam/2).
    `_solution` builds each answer's row once.

    d is within E(s) = 5 s 2**-53 of its exact value (2.2e-15 in base 4,
    1.7e-13 in base 300, 2.2e-10 in base 400000). Let u = 2**-53; then
    |h| < 1 and 0 <= x h'(x) < 0.35.
    - `_h` is within 3u of h. On |x| <= 1 the series alternates, its terms
      falling by a factor below 1/9, so Horner's roundings, the rounded c_n
      and x*x and the tail give at most 1.1u. Above 1, 1 - 1/|x| is within
      u, 2t/(1 - t) <= 0.313 within 3.9u relative (t within 1 ulp, then
      three roundings), and their sum rounds by at most u/2.
    - Rounding lam * (s/2) moves h1 by at most 0.35u.
    - s h1 rounds by su; s h1 - h0, in (1-s, s-1), by u(s-1); adding s - 1,
      for a sum in (0, 2(s-1)), by 2u(s-1); halving is exact. So the mean is
      within 3.7su of exact, and d = mean - theta rounds by u(s-1): 4.7su,
      and the second-order terms fit in the rest of E(s).
    So a step goes where the exact mean sends it unless the exact |d| lies
    within E(s) of 0, and stops as the exact mean would unless it lies
    within E(s) of tol; at the stop, |mean(lam) - theta| <= tol + E(s).

    Most steps need no mean. If d < -(tol + 2E(s)) at lam_lo, the exact d
    there is below -(tol + E(s)); the exact mean increases with lam, so the
    exact d at every lam <= lam_lo is below it too, and the computed d there
    is below -tol: a step that goes up and does not stop. Likewise every
    lam >= lam_hi steps down without stopping if d > tol + 2E(s) at
    lam_hi. So the thetas are taken in increasing order; `_steer` proposes
    lam_lo and lam_hi around each root by Newton's method from the last
    multiplier of the theta before; one mean each certifies them, and one
    that fails is dropped; and the midpoint path from [-50, 50] is replayed
    with a mean at the midpoints strictly between them alone. The slope
    only steers: whatever `_steer` proposes, every step and stop is the
    plain path's, so each result is bit for bit what the theta gives alone.
    """
    margin = tol + 10 * s * 2.0**-53  # tol + 2 E(s)
    lam, mean = 0.0, 0.5 * (s - 1)  # the computed mean at 0, exactly
    unsolved = []
    for k in sorted(positions, key=thetas.__getitem__):
        theta = thetas[k]
        below, above = _steer(theta, lam, mean, s, margin)
        if not (below > -LAMBDA_BRACKET and _gibbs_mean(below, s) - theta < -margin):
            below = -math.inf
        if not (above < LAMBDA_BRACKET and _gibbs_mean(above, s) - theta > margin):
            above = math.inf
        lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            if mid <= below:
                lo = mid
            elif mid >= above:
                hi = mid
            else:
                lam, mean = mid, _gibbs_mean(mid, s)
                if abs(mean - theta) <= tol:
                    results[k] = _solution(theta, mid, s)
                    break
                lo, hi = (mid, hi) if mean < theta else (lo, mid)
        else:
            unsolved.append(k)
    if unsolved:
        theta = thetas[min(unsolved)]
        raise ArithmeticError(f"bisection did not reach |mean - theta| <= {tol} for theta={theta}")


def _steer(theta: float, lam: float, mean: float, s: int, margin: float) -> tuple[float, float]:
    """Multipliers below and above theta's for `_bisect` to certify: Newton's
    method on the closed-form mean from lam, whose computed mean is `mean`,
    with slope (s**2 h'(s lam/2) - h'(lam/2))/4, kept between the
    multipliers seen on either side of theta; once |mean - theta| <= margin,
    one more step and 2 margin / slope either side of it. (-inf, inf), no
    proposal, if the slope is not positive or Newton's method has not come
    within margin after _NEWTON_STEPS steps."""
    lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
    for _ in range(_NEWTON_STEPS):
        d = mean - theta
        slope = 0.25 * (s * s * _dh(lam * (0.5 * s)) - _dh(0.5 * lam))
        if not slope > 0.0:
            break
        lo, hi = (lam, hi) if d < 0.0 else (lo, lam)
        lam -= d / slope
        if abs(d) <= margin:
            width = 2.0 * margin / slope
            return lam - width, lam + width
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        mean = _gibbs_mean(lam, s)
    return -math.inf, math.inf


def _solution(theta: float, lam: float, s: int) -> EntropyResult:
    """The result at the stopping multiplier lam: its Gibbs row, built once."""
    argmin = _gibbs_row(lam, s)
    m = _lsum(map(xlogx, filter(None, argmin)))  # zero entries add 0.0
    return EntropyResult(theta, m, argmin, lam, -m / math.log(s))


def neg_entropy_minima(
    thetas: Iterable[float | Fraction], base: Base = BASE4, tol: float = 1e-10
) -> list[EntropyResult]:
    """Minimum of f over probability vectors with digit mean theta, for
    each theta in `thetas`, in order.

    Interior theta: bisection on [-50, 50] stops at the first multiplier
    whose computed mean lies within tol of theta, so its exact mean lies
    within tol + E(s) (see `_bisect`). The minimizer is the Gibbs vector
    there, its float entries rounded, and the dimension bound is -m / ln s.
    Every theta in [0, s-1] is solved: a theta within tol of 0 or of s-1
    stops at a multiplier well inside the bracket (at the default tol,
    every theta below 1e-10 stops at lambda = -25), so its argmin's mean can
    differ from theta by up to tol, however small theta is. Endpoints
    short-circuit to the point-mass result (m = 0, bound 0). The result is
    symmetric under theta -> s-1-theta because digit reflection preserves f
    and reflects the mean.

    `tol` and every theta are validated, in order, before anything is
    solved; the interior thetas are then solved in increasing order, each
    from the one before (see `_bisect`), so a whole sweep in one call costs
    a few means per theta. Each result is what the theta gives alone.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s = base.s
    ths = [float(theta) for theta in thetas]
    for th in ths:
        if not 0.0 <= th <= s - 1.0:
            raise ValueError(f"theta must lie in [0, {s - 1}], got {th}")
    results: list[EntropyResult | None] = [None] * len(ths)
    interior = []
    for k, th in enumerate(ths):
        if th == 0.0 or th == s - 1.0:
            hot = 0 if th == 0.0 else s - 1
            point = tuple(1.0 if i == hot else 0.0 for i in range(s))
            results[k] = EntropyResult(th, 0.0, point, None, 0.0)
        else:
            interior.append(k)
    _bisect(results, interior, ths, s, tol)
    return results


def neg_entropy_minimum(
    theta: float | Fraction, base: Base = BASE4, tol: float = 1e-10
) -> EntropyResult:
    """`neg_entropy_minima` of the single mean theta."""
    return neg_entropy_minima([theta], base, tol)[0]


class GridMinimum(NamedTuple):
    """Result of the exhaustive grid scan over the mean-theta slice."""

    theta: float
    step: float
    m_value: float
    argmin: tuple[float, ...]


def _xlx(a: np.ndarray) -> np.ndarray:
    import numpy as np

    positive = a > 0.0
    return np.where(positive, a * np.log(np.where(positive, a, 1.0)), 0.0)


def _axis_values(index: np.ndarray, npts: int) -> np.ndarray:
    """np.linspace(0.0, 1.0, npts)[index], bit for bit, from the indices
    alone: linspace takes i * (1.0 / (npts - 1)) and sets its last value
    to 1.0."""
    values = index * (1.0 / (npts - 1))
    values[index == npts - 1] = 1.0
    return values


def _slice_pieces(
    th: float, npts: int, free: int
) -> Iterator[tuple[list[np.ndarray], np.ndarray, np.ndarray]]:
    """The cells of the grid {0..npts-1}**free that can lie on the theta
    slice, in C order, in pieces of at most _SLAB_CELLS cells.

    A piece is (values, s1, s0): each free coordinate's grid values at the
    piece's cells, s1 = sum (j+2) a_j and s0 = sum (j+1) a_j, both summed
    over j in order, as the full scan sums them. The first free-1
    coordinates, a row, run over every prefix in blocks of _BLOCK_ROWS
    rows. For each row the two constraints t1 = theta - s1 >= -1e-12 and
    t0 = 1 - theta + s0 >= -1e-12 bound the last coordinate to an interval,
    which is solved in closed form and widened by one index on each side
    against its rounding; only the cells in it are formed. So a row forms
    at most its feasible cells and two more, and the caller still masks
    every cell.
    """
    import numpy as np

    if free == 0:
        yield [], np.zeros(1), np.zeros(1)
        return
    rows = npts ** (free - 1)
    for start in range(0, rows, _BLOCK_ROWS):
        row = np.arange(start, min(start + _BLOCK_ROWS, rows))
        lead = [_axis_values(row // npts ** (free - 2 - j) % npts, npts) for j in range(free - 1)]
        p1 = p0 = np.zeros(row.size)
        for j, a in enumerate(lead):
            p1 = p1 + (j + 2) * a
            p0 = p0 + (j + 1) * a
        lo = np.ceil((th - 1.0 - p0 - 1e-12) / free * (npts - 1)).astype(np.int64) - 1
        hi = np.floor((th - p1 + 1e-12) / (free + 1) * (npts - 1)).astype(np.int64) + 1
        lo = np.maximum(lo, 0)
        count = np.maximum(np.minimum(hi, npts - 1) - lo + 1, 0)
        ends = np.cumsum(count)
        for first in range(0, int(ends[-1]), _SLAB_CELLS):
            cell = np.arange(first, min(first + _SLAB_CELLS, int(ends[-1])))
            r = np.searchsorted(ends, cell, side="right")
            a = _axis_values(lo[r] + cell - (ends[r] - count[r]), npts)
            yield [v[r] for v in lead] + [a], p1[r] + (free + 1) * a, p0[r] + free * a


def neg_entropy_minimum_grid(
    theta: float | Fraction, base: Base = BASE4, step: float = 1e-3
) -> GridMinimum:
    """Brute-force oracle: scan f over a uniform grid on the theta slice.

    Coordinates 2..s-1 range over multiples of `step`; coordinates 1 and 0
    are solved from the two linear constraints (sum = 1, mean = theta), so
    every evaluated point lies exactly on the slice. The returned value is
    never below the true minimum (that holds at any step, even a very
    coarse one) and lies within O(step * ln(1/step)) above it; of equal
    values the first cell in C order wins. It shares no code with the
    Gibbs closed form.

    Only the cells that can lie on the slice are formed (`_slice_pieces`),
    in pieces of at most 2**12 cells, and f is evaluated only where
    coordinates 0 and 1 are nonnegative. So the time follows the cells on
    the slice, and the memory stays bounded in every base, whatever the
    step. A grid of more than 2**24 cells is refused with ValueError
    before anything is scanned.
    """
    import numpy as np

    s = base.s
    th = float(theta)
    if not 0.0 < th < s - 1.0:
        raise ValueError(f"theta must lie strictly inside (0, {s - 1}), got {th}")
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must lie in (0, 0.5], got {step}")

    npts = int(round(1.0 / step)) + 1
    cells = npts ** max(s - 2, 1)
    if cells > _MAX_GRID_CELLS:
        raise ValueError(
            f"grid oracle at step {step} in base {s} needs {cells} cells, "
            f"over the limit of {_MAX_GRID_CELLS}; use a coarser step"
        )
    best, argmin = math.inf, None
    for values, s1, s0 in _slice_pieces(th, npts, s - 2):
        t1 = th - s1
        t0 = 1.0 - th + s0
        hits = np.flatnonzero((t1 >= -1e-12) & (t0 >= -1e-12))
        if hits.size == 0:
            continue
        t0c = np.clip(t0[hits], 0.0, 1.0)
        t1c = np.clip(t1[hits], 0.0, 1.0)
        free = [a[hits] for a in values]
        total = _xlx(t0c) + _xlx(t1c)
        for a in free:
            total = total + _xlx(a)
        k = int(np.argmin(total))
        if total[k] < best:
            best = float(total[k])
            argmin = (float(t0c[k]), float(t1c[k])) + tuple(float(a[k]) for a in free)
    if argmin is None:
        raise ArithmeticError(f"no feasible grid point at step {step} for theta={th}")
    return GridMinimum(theta=th, step=step, m_value=best, argmin=argmin)


def sweep_csv(results: Sequence[EntropyResult], precision: int = 12) -> str:
    lines = ["theta,m,dimension_bound"]
    for r in results:
        lines.append(
            f"{r.theta:.{precision}g},{r.m_value:.{precision}g},{r.dimension_bound:.{precision}g}"
        )
    return "\n".join(lines) + "\n"
