"""Entropy-based dimension formulas for digit-frequency sets.

The fractal (Hausdorff-Besicovitch) dimension of the set of numbers whose
digit frequencies equal a probability vector tau is the normalized entropy
-sum(tau_i ln tau_i) / ln s. Minimizing f(tau) = sum(tau_i ln tau_i) over
probability vectors with a prescribed digit mean theta yields the dimension
lower bound for the level set of the asymptotic-mean function.

f is strictly convex on the constraint slice, so its unique stationary
point is the exponential-family (Gibbs) vector tau_i ~ exp(lambda * i);
the multiplier is found by bisection on the strictly increasing mean. An
exhaustive grid scan over the slice serves as an independent oracle.

This module works in binary64, unlike the exact-rational digit modules:
logarithms are transcendental, so exactness is impossible, and the oracle
bounds the error instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .digits import BASE4, Base

__all__ = [
    "xlogx",
    "be_dimension",
    "exp_family_vector",
    "EntropyResult",
    "neg_entropy_minimum",
    "GridMinimum",
    "neg_entropy_minimum_grid",
    "sweep_csv",
]

# Bisection bracket for the multiplier; with shifted-exponent evaluation it
# covers targets within ~1e-20 of the endpoint means without overflow.
LAMBDA_BRACKET = 50.0
_MAX_BISECT = 200

# Largest grid the oracle scans: npts**(s-2) cells (npts for s <= 3, where
# the axis itself is the largest array), each held in several float64
# temporaries. It admits base 5 at step 1/200 (201**3 cells).
_MAX_GRID_CELLS = 2**24


def xlogx(x: float) -> float:
    """x * ln(x) on [0, 1], continuously extended by 0 at x = 0."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"xlogx is defined on [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


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
    if any(v < 0.0 for v in t) or abs(sum(t) - 1.0) > 1e-9:
        raise ValueError(f"not a probability vector: {t}")
    # + 0.0 normalizes the point-mass result to 0.0 rather than -0.0
    return -sum(xlogx(v) for v in t) / math.log(base.s) + 0.0


def exp_family_vector(lam: float, base: Base = BASE4) -> tuple[tuple[float, ...], float]:
    """Gibbs vector tau_i = exp(lam*i) / Z and its mean sum(i * tau_i).

    Exponents are shifted by their maximum before exponentiation, so any
    finite lam is safe from overflow. The mean is strictly increasing in
    lam, ranging over (0, s-1), with value (s-1)/2 at lam = 0.
    """
    if not math.isfinite(lam):
        raise ValueError(f"multiplier must be finite, got {lam}")
    s = base.s
    shift = max(lam * i for i in range(s))
    weights = [math.exp(lam * i - shift) for i in range(s)]
    z = sum(weights)
    tau = tuple(w / z for w in weights)
    mean = sum(i * t for i, t in enumerate(tau))
    return tau, mean


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


def neg_entropy_minimum(
    theta: float | Fraction, base: Base = BASE4, tol: float = 1e-10
) -> EntropyResult:
    """Minimum of f over probability vectors with digit mean theta.

    Interior theta: bisection locates the multiplier with
    |mean(lambda) - theta| <= tol; the minimizer is the Gibbs vector there
    and the dimension bound is -m / ln s. Endpoints short-circuit to the
    point-mass result (m = 0, bound 0). The result is symmetric under
    theta -> s-1-theta because digit reflection preserves f and reflects
    the mean.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s = base.s
    th = float(theta)
    if not 0.0 <= th <= s - 1.0:
        raise ValueError(f"theta must lie in [0, {s - 1}], got {th}")
    if th == 0.0 or th == s - 1.0:
        hot = 0 if th == 0.0 else s - 1
        point = tuple(1.0 if i == hot else 0.0 for i in range(s))
        return EntropyResult(
            theta=th, m_value=0.0, argmin=point, multiplier=None, dimension_bound=0.0
        )

    lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
    _, mean_lo = exp_family_vector(lo, base)
    _, mean_hi = exp_family_vector(hi, base)
    if not mean_lo <= th <= mean_hi:
        # Unreachable for representable interior theta; signals a fault.
        raise ArithmeticError(
            f"bisection bracket [{lo}, {hi}] does not contain a multiplier for theta={th}"
        )
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        tau, mean = exp_family_vector(mid, base)
        if abs(mean - th) <= tol:
            m = sum(xlogx(t) for t in tau)
            return EntropyResult(
                theta=th,
                m_value=m,
                argmin=tau,
                multiplier=mid,
                dimension_bound=-m / math.log(s),
            )
        if mean < th:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection did not reach |mean - theta| <= {tol} for theta={th}")


@dataclass(frozen=True)
class GridMinimum:
    """Result of the exhaustive grid scan over the mean-theta slice."""

    theta: float
    step: float
    m_value: float
    argmin: tuple[float, ...]


def neg_entropy_minimum_grid(
    theta: float | Fraction, base: Base = BASE4, step: float = 1e-3
) -> GridMinimum:
    """Brute-force oracle: scan f over a uniform grid on the theta slice.

    Coordinates 2..s-1 range over multiples of `step`; coordinates 1 and 0
    are solved from the two linear constraints (sum = 1, mean = theta), so
    every evaluated point lies exactly on the slice. The returned value is
    never below the true minimum (that holds at any step, even a very
    coarse one) and lies within O(step * ln(1/step)) above it. Memory grows
    like (1/step)**(s-2); a grid of more than 2**24 cells is refused with
    ValueError before anything is allocated.
    """
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
    free: list[np.ndarray] = []
    for j in range(s - 2):
        shape = [1] * (s - 2)
        shape[j] = npts
        free.append(axis.reshape(shape))

    if free:
        t1 = th - sum((j + 2) * a for j, a in enumerate(free))
        t0 = 1.0 - th + sum((j + 1) * a for j, a in enumerate(free))
    else:
        # s = 2: the slice is the single point (1-theta, theta).
        t1 = np.asarray(th)
        t0 = np.asarray(1.0 - th)

    feasible = (t1 >= -1e-12) & (t0 >= -1e-12)
    t0c = np.clip(t0, 0.0, 1.0)
    t1c = np.clip(t1, 0.0, 1.0)

    def xlx(a: np.ndarray) -> np.ndarray:
        positive = a > 0.0
        return np.where(positive, a * np.log(np.where(positive, a, 1.0)), 0.0)

    total = xlx(t0c) + xlx(t1c)
    for a in free:
        total = total + xlx(a)
    total = np.where(feasible, total, np.inf)

    flat = int(np.argmin(total))
    idx = np.unravel_index(flat, total.shape)
    best = float(total[idx])
    if not math.isfinite(best):
        raise ArithmeticError(f"no feasible grid point at step {step} for theta={th}")
    argmin = (float(t0c[idx]), float(t1c[idx])) + tuple(float(axis[i]) for i in idx)
    return GridMinimum(theta=th, step=step, m_value=best, argmin=argmin)


def sweep_csv(results: Sequence[EntropyResult], precision: int = 12) -> str:
    lines = ["theta,m,dimension_bound"]
    for r in results:
        lines.append(
            f"{r.theta:.{precision}g},{r.m_value:.{precision}g},{r.dimension_bound:.{precision}g}"
        )
    return "\n".join(lines) + "\n"
