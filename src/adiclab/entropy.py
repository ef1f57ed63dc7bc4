"""Entropy-based dimension formulas for digit-frequency sets.

The fractal (Hausdorff-Besicovitch) dimension of the set of numbers whose
digit frequencies equal a probability vector tau is the normalized entropy
-sum(tau_i ln tau_i) / ln s. Minimizing f(tau) = sum(tau_i ln tau_i) over
probability vectors with a prescribed digit mean theta yields the dimension
lower bound for the level set of the asymptotic-mean function.

f is strictly convex on the constraint slice, so its unique stationary
point is the exponential-family (Gibbs) vector tau_i ~ exp(lambda * i);
the multiplier is found by bisection on the strictly increasing mean.
`neg_entropy_minima` bisects a whole list of means at once: numpy decides
and `math.exp` answers. Each step's means come from `np.exp` as arrays,
and only a row whose mean lies within a derived margin of a decision is
recomputed as the exact row, whose weights come from `math.exp` and whose
sums run left to right; each result comes from the exact row too. So
every result is bit for bit what a bisection of that mean alone gives. A
small batch, such as one mean in a small base, bisects on exact rows
alone and loads no numpy. An exhaustive grid scan over the slice, walked
in slabs of bounded size, serves as an independent oracle.

This module works in binary64, unlike the exact-rational digit modules:
logarithms are transcendental, so exactness is impossible, and the oracle
bounds the error instead.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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
# Vector entries (thetas times digits) one block of the batched bisection
# holds at once.
_BATCH_ENTRIES = 2**16
# A block of at most this many entries (one theta up to base 64, 16 in base
# 4) bisects on exact rows alone: below about 50 entries that beats numpy's
# fixed cost per step, and it loads no numpy.
_EXACT_ENTRIES = 2**6
# Error of one exp, in ulps, that the decision margin allows (see _bisect).
_EXP_ULPS = 2
# math.exp of anything below this is 0.0: exp(-746) < 2**-1076.
_UNDERFLOW = -746.0

# Largest grid the oracle scans: npts**(s-2) cells (npts for s <= 3). Every
# cell is formed and tested, so this bounds the scan's time; its memory is
# bounded by the slab size instead. It admits base 5 at step 1/200 (201**3
# cells).
_MAX_GRID_CELLS = 2**24
# Cells the grid oracle forms at once.
_SLAB_CELLS = 2**16


def xlogx(x: float) -> float:
    """x * ln(x) on [0, 1], continuously extended by 0 at x = 0."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"xlogx is defined on [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def _lsum(values: Iterable[float]) -> float:
    """Left-to-right float sum. The builtin sum compensates its rounding
    from Python 3.12 on, so it would not match the solver's array sums."""
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
    return _gibbs_row(float(lam), base.s)


def _gibbs_row(lam: float, s: int) -> tuple[tuple[float, ...], float]:
    """The Gibbs vector of multiplier `lam` in base s and its mean, in pure
    Python: exponents lam*i shifted by their maximum, `math.exp`, and sums
    that run left to right.

    `math.exp` runs only where the shifted exponent is at least -746. lam*i
    is monotone in i, so that is one window, and every weight outside it is
    exactly 0.0 (exp(-746) is below half the least subnormal); adding 0.0
    changes no partial sum, and 0.0 / Z and 0.0 * i are 0.0.
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
    tau = [w / z for w in weights]
    mean = _lsum(map(mul, tau, range(lo, hi)))
    return (0.0,) * lo + tuple(tau) + (0.0,) * (s - hi), mean


def _numpy_means(lams: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The means of the Gibbs rows of `lams`, from `np.exp` and numpy's
    sums; `_bisect` bounds how far each lies from the `_gibbs_row` mean."""
    import numpy as np

    exponents = np.multiply.outer(lams, digits)
    exponents -= np.where(lams > 0.0, exponents[:, -1], 0.0)[:, None]
    weights = np.exp(exponents, out=exponents)
    return (weights * digits).sum(axis=1) / weights.sum(axis=1)


def _margin(s: int) -> float:
    """Bound on |d_np - d| in base s, where d = mean - theta is computed from
    the `_gibbs_row` mean and d_np from the `_numpy_means` one (see `_bisect`)."""
    return (s - 1) * (2 * s + 4 * _EXP_ULPS + 1) * 2.0**-52 * (1.0 + 2.0**-20)


@dataclass(frozen=True)
class EntropyResult:
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


def _bisect(
    results: list, positions: list[int], thetas: list[float], base: Base, tol: float
) -> None:
    """Bisect the interior means thetas[k], k in `positions`, one row each,
    and write each row's result to results[k] at its first midpoint with
    |mean - theta| <= tol.

    Every decision (`mean < theta` and the stop test) and every result is
    the one that the exact row, `_gibbs_row`, gives, so a result does not
    depend on which other rows share the call. A block of at most
    _EXACT_ENTRIES entries bisects on exact rows alone and loads no numpy.
    A larger block takes each step's means from `_numpy_means` and
    recomputes with `_gibbs_row` only the rows whose d_np = mean_np - theta
    lies within M = _margin(s) of the stop test: ||d_np| - tol| <= M. Where
    |d_np - d| <= M, with d from the exact row, no other row can decide
    differently. If |d_np| > tol + M, then |d| > tol and d has the sign of
    d_np, so both paths step the same way; if |d_np| < tol - M, both stop.
    (So the `mean < theta` test needs no margin of its own.) Rounding is
    monotone, so the computed test flags every row where the exact one
    holds.

    The bound. Let u = 2**-53, e_i the true exp of the shifted exponents
    (both paths form them with the same IEEE operations), and
    R = sum(i e_i) / sum(e_i) <= s - 1. Assume each exp, `math.exp` or
    `np.exp`, is within K = _EXP_ULPS = 2 ulps of e_i, so within a factor
    1 +- 2Ku while e_i is normal. numpy's own accuracy tests hold float64
    `np.exp` to 1 ulp, and tests/test_entropy.py holds both to 1 ulp on
    [-746, 0], so one ulp is headroom. Every term is nonnegative, so on
    each path:
    - the exp errors move sum(i w_i) / sum(w_i) from R by a factor
      1 +- 4Ku;
    - the mean is that quotient of two sums of at most s terms, in any
      order, with at most s + 1 roundings per term above the line and
      s - 1 below, so it is the quotient times 1 + phi with
      |phi| <= gamma(2s) = 2su / (1 - 2su);
    - computing d = mean - theta rounds by at most u(s - 1).
    Summed over both paths, |d_np - d| <= (s - 1)(2s + 4K + 1) 2**-52 to
    first order. The factor 1 + 2**-20 in M covers the second-order terms
    for every s up to 2**30 (a row of 8 GiB), and the weights and quotients
    below the normal range (at most s**2 2**-1021 in all). So
    M = (s - 1)(2s + 9) 2**-52 (1 + 2**-20): 1.1e-14 in base 4, 5.8e-14 in
    base 10, 4.0e-11 in base 300 and 7.1e-5 in base 400000.

    If a row has not stopped after _MAX_BISECT steps, raise ArithmeticError
    for the first such theta.
    """
    s = base.s
    bisect = _bisect_rows if len(positions) * s <= _EXACT_ENTRIES else _bisect_batch
    unsolved = bisect(results, positions, thetas, s, tol)
    if unsolved is not None:
        theta = thetas[unsolved]
        raise ArithmeticError(f"bisection did not reach |mean - theta| <= {tol} for theta={theta}")


def _bisect_rows(results: list, positions: list[int], thetas: list[float], s: int, tol: float) -> int | None:
    """`_bisect` on exact rows, one theta at a time; the position of the
    first theta that did not stop, or None."""
    for k in positions:
        theta, lo, hi = thetas[k], -LAMBDA_BRACKET, LAMBDA_BRACKET
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            tau, mean = _gibbs_row(mid, s)
            if abs(mean - theta) <= tol:
                results[k] = _solution(theta, mid, tau, s)
                break
            if mean < theta:
                lo = mid
            else:
                hi = mid
        else:
            return k
    return None


def _bisect_batch(results: list, positions: list[int], thetas: list[float], s: int, tol: float) -> int | None:
    """`_bisect` on numpy means, all rows together; the position of the
    first row that did not stop, or None."""
    import numpy as np

    margin = _margin(s)
    digits = np.arange(float(s))
    rows = np.array(positions)
    target = np.array([thetas[k] for k in positions])
    lo, hi = np.full(len(rows), -LAMBDA_BRACKET), np.full(len(rows), LAMBDA_BRACKET)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        gap = _numpy_means(mid, digits) - target
        near = np.abs(np.abs(gap) - tol) <= margin
        for j in np.flatnonzero(near).tolist():
            gap[j] = _gibbs_row(float(mid[j]), s)[1] - target[j]
        below = gap < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        done = np.abs(gap) <= tol
        if not done.any():
            continue
        for k, lam in zip(rows[done].tolist(), mid[done].tolist()):
            results[k] = _solution(thetas[k], lam, _gibbs_row(lam, s)[0], s)
        keep = ~done
        if not keep.any():
            return None
        rows, target, lo, hi = rows[keep], target[keep], lo[keep], hi[keep]
    return int(rows[0])


def _solution(theta: float, lam: float, argmin: tuple[float, ...], s: int) -> EntropyResult:
    m = _lsum(map(xlogx, filter(None, argmin)))  # zero entries add 0.0
    return EntropyResult(theta, m, argmin, lam, -m / math.log(s))


def neg_entropy_minima(
    thetas: Iterable[float | Fraction], base: Base = BASE4, tol: float = 1e-10
) -> list[EntropyResult]:
    """Minimum of f over probability vectors with digit mean theta, for
    each theta in `thetas`, in order.

    Interior theta: bisection on [-50, 50] stops at the first multiplier
    with |mean(lambda) - theta| <= tol; the minimizer is the Gibbs vector
    there and the dimension bound is -m / ln s. Every theta in [0, s-1] is
    solved: a theta within tol of 0 or of s-1 stops at a multiplier well
    inside the bracket (at the default tol, every theta below 1e-10 stops at
    lambda = -25), so its argmin's mean can differ from theta by up to tol,
    however small theta is. Endpoints short-circuit to the point-mass
    result (m = 0, bound 0). The result is symmetric under theta -> s-1-theta
    because digit reflection preserves f and reflects the mean.

    `tol` and every theta are validated, in order, before anything is
    solved. The interior thetas are then bisected together, in blocks of
    about 2**16 vector entries so that memory stays bounded.
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
    block = max(1, _BATCH_ENTRIES // s)
    for start in range(0, len(interior), block):
        _bisect(results, interior[start : start + block], ths, base, tol)
    return results


def neg_entropy_minimum(
    theta: float | Fraction, base: Base = BASE4, tol: float = 1e-10
) -> EntropyResult:
    """`neg_entropy_minima` of the single mean theta."""
    return neg_entropy_minima([theta], base, tol)[0]


@dataclass(frozen=True)
class GridMinimum:
    """Result of the exhaustive grid scan over the mean-theta slice."""

    theta: float
    step: float
    m_value: float
    argmin: tuple[float, ...]


def _xlx(a: np.ndarray) -> np.ndarray:
    import numpy as np

    positive = a > 0.0
    return np.where(positive, a * np.log(np.where(positive, a, 1.0)), 0.0)


def _grid_slabs(npts: int, free: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The cells of the grid {0..npts-1}**free in C order, in slabs of at
    most _SLAB_CELLS cells, each given as `np.ix_` index arrays.

    A slab fixes the leading coordinates, takes a run of values of the
    next one and every value of the rest.
    """
    import numpy as np

    if free == 0:
        yield ()
        return
    lead = 0
    while lead < free - 1 and npts ** (free - lead - 1) > _SLAB_CELLS:
        lead += 1
    run = _SLAB_CELLS // npts ** (free - lead - 1)
    rest = [np.arange(npts)] * (free - lead - 1)
    for prefix in itertools.product(range(npts), repeat=lead):
        fixed = [[i] for i in prefix]
        for start in range(0, npts, run):
            yield np.ix_(*fixed, np.arange(start, min(start + run, npts)), *rest)


def neg_entropy_minimum_grid(
    theta: float | Fraction, base: Base = BASE4, step: float = 1e-3
) -> GridMinimum:
    """Brute-force oracle: scan f over a uniform grid on the theta slice.

    Coordinates 2..s-1 range over multiples of `step`; coordinates 1 and 0
    are solved from the two linear constraints (sum = 1, mean = theta), so
    every evaluated point lies exactly on the slice. The returned value is
    never below the true minimum (that holds at any step, even a very
    coarse one) and lies within O(step * ln(1/step)) above it; of equal
    values the first cell in C order wins.

    The grid is walked in slabs of about 2**16 cells, and f is evaluated
    only on the cells where coordinates 0 and 1 are nonnegative, so memory
    stays bounded whatever the step. Time grows like (1/step)**(s-2); a
    grid of more than 2**24 cells is refused with ValueError before
    anything is scanned.
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
    axis = np.linspace(0.0, 1.0, npts)
    xlx_axis = _xlx(axis)
    best, argmin = math.inf, None
    for slab in _grid_slabs(npts, s - 2):
        free = [axis[i] for i in slab]
        t1 = np.atleast_1d(th - sum((j + 2) * a for j, a in enumerate(free)))
        t0 = np.atleast_1d(1.0 - th + sum((j + 1) * a for j, a in enumerate(free)))
        hits = np.nonzero((t1 >= -1e-12) & (t0 >= -1e-12))
        if hits[0].size == 0:
            continue
        t0c = np.clip(t0[hits], 0.0, 1.0)
        t1c = np.clip(t1[hits], 0.0, 1.0)
        index = [i.ravel()[h] for i, h in zip(slab, hits)]
        total = _xlx(t0c) + _xlx(t1c)
        for i in index:
            total = total + xlx_axis[i]
        k = int(np.argmin(total))
        if total[k] < best:
            best = float(total[k])
            argmin = (float(t0c[k]), float(t1c[k])) + tuple(float(axis[i[k]]) for i in index)
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
