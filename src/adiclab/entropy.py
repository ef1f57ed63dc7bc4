"""Entropy-based dimension formulas for digit-frequency sets.

The fractal (Hausdorff-Besicovitch) dimension of the set of numbers whose
digit frequencies equal a probability vector tau is the normalized entropy
-sum(tau_i ln tau_i) / ln s. Minimizing f(tau) = sum(tau_i ln tau_i) over
probability vectors with a prescribed digit mean theta yields the dimension
lower bound for the level set of the asymptotic-mean function.

f is strictly convex on the constraint slice, so its unique stationary
point is the exponential-family (Gibbs) vector tau_i ~ exp(lambda * i);
the multiplier is found by bisection on the strictly increasing mean.
`neg_entropy_minima` bisects a whole list of means at once, as numpy
arrays, yet each weight still comes from `math.exp` and each sum runs
left to right, so every result is bit for bit what a bisection of that
mean alone gives. An exhaustive grid scan over the slice, walked in slabs
of bounded size, serves as an independent oracle.

This module works in binary64, unlike the exact-rational digit modules:
logarithms are transcendental, so exactness is impossible, and the oracle
bounds the error instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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
    finite lam is safe from overflow. The mean is strictly increasing in
    lam, ranging over (0, s-1), with value (s-1)/2 at lam = 0.
    """
    import numpy as np

    if not math.isfinite(lam):
        raise ValueError(f"multiplier must be finite, got {lam}")
    tau, mean = _gibbs(np.array([float(lam)]), np.arange(base.s))
    return tuple(tau[0].tolist()), float(mean[0])


def _gibbs(lams: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs vectors (one row per multiplier in `lams`) and their means.

    Each weight comes from `math.exp` (`np.exp` can differ in the last
    bit) and each sum runs left to right (`np.cumsum`), so a row does not
    depend on which other multipliers share the call.
    """
    import numpy as np

    exponents = lams[:, None] * digits
    exponents -= exponents.max(axis=1)[:, None]
    weights = np.array(list(map(math.exp, exponents.ravel().tolist()))).reshape(exponents.shape)
    tau = weights / np.cumsum(weights, axis=1)[:, -1:]
    return tau, np.cumsum(tau * digits, axis=1)[:, -1]


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
    """Bisect the interior means thetas[k], k in `positions`, together, one
    row each, and write each row's result to results[k] at its first
    midpoint with |mean - theta| <= tol.

    Each row is the `_gibbs` vector that `exp_family_vector` gives, so a
    result does not depend on which other rows share the call.
    """
    import numpy as np

    digits = np.arange(base.s)
    rows = np.array(positions)
    target = np.array([thetas[k] for k in positions])
    lo, hi = np.full(len(rows), -LAMBDA_BRACKET), np.full(len(rows), LAMBDA_BRACKET)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        tau, mean = _gibbs(mid, digits)
        below = mean < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        done = np.abs(mean - target) <= tol
        if not done.any():
            continue
        for k, lam, argmin in zip(rows[done].tolist(), mid[done].tolist(), tau[done].tolist()):
            m = _lsum(map(xlogx, argmin))
            results[k] = EntropyResult(thetas[k], m, tuple(argmin), lam, -m / math.log(base.s))
        keep = ~done
        if not keep.any():
            return
        rows, target, lo, hi = rows[keep], target[keep], lo[keep], hi[keep]
    theta = thetas[rows[0]]
    raise ArithmeticError(f"bisection did not reach |mean - theta| <= {tol} for theta={theta}")


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
    solved. The interior thetas are then bisected together as arrays, in
    blocks of about 2**16 vector entries so that memory stays bounded.
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
