"""Finite-prefix digit statistics: counts, frequencies, running means.

All statistics are exact rationals; floating point appears only at
serialization. A convergence trace is finite-n evidence for the limiting
frequencies and the asymptotic digit mean -- it never extrapolates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .digits import CHUNK_DIGITS, Base, Chunk, DigitPrefix, DigitStream

__all__ = [
    "DEFAULT_CHECKPOINTS",
    "FreqReport",
    "ConvergenceTrace",
    "NormalityVerdict",
    "digit_counts",
    "freq_report",
    "convergence_trace",
    "weak_normality_verdict",
    "format_decimal",
]

# Log-spaced desk-scale evidence of convergence.
DEFAULT_CHECKPOINTS: tuple[int, ...] = tuple(10**k for k in range(1, 7))


def format_decimal(value: Fraction | float, precision: int = 12) -> str:
    """Decimal string with `precision` significant digits."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    return f"{float(value):.{precision}g}"


@dataclass(frozen=True)
class FreqReport:
    """Statistics of one prefix, held as its digit counts N_i.

    Everything else follows from the counts, so the identities hold by
    construction: n = sum(N_i), frequencies v_i = N_i / n and the running
    digit mean r_n = sum(i * v_i). They are computed when first read, as
    exact rationals; serialization formats the integer quotients directly.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(map(operator.index, self.counts))
        if min(counts, default=0) < 0:
            raise ValueError(f"digit counts must be nonnegative, got {counts}")
        if not any(counts):
            raise ValueError("a frequency report needs at least one digit")
        object.__setattr__(self, "counts", counts)

    @cached_property
    def n(self) -> int:
        return sum(self.counts)

    @cached_property
    def digit_sum(self) -> int:
        """sum(i * N_i), the sum of the prefix's digits."""
        return sum(i * c for i, c in enumerate(self.counts))

    @cached_property
    def freqs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n) for c in self.counts)

    @cached_property
    def mean(self) -> Fraction:
        return Fraction(self.digit_sum, self.n)

    def _decimals(self, precision: int) -> list[str]:
        # int / int is correctly rounded, as float(Fraction(c, n)) is, so the
        # cells equal format_decimal of the exact frequencies and mean.
        n = self.n
        return [format_decimal(c / n, precision) for c in (*self.counts, self.digit_sum)]

    def to_json_dict(self, precision: int = 12) -> dict:
        *freqs, mean = self._decimals(precision)
        return {"n": self.n, "counts": list(self.counts), "freqs": freqs, "mean": mean}


def _tally(chunk: Chunk, s: int) -> np.ndarray:
    """Digit counts of one chunk, in `numpy.bincount` passes.

    `bincount` needs an `intp` copy of the digits, 8 bytes each, so it runs
    once per CHUNK_DIGITS digits: a long chunk never costs a copy of its
    whole length."""
    values = np.asarray(memoryview(chunk))
    counts = np.bincount(values[:CHUNK_DIGITS].astype(np.intp), minlength=s)
    for start in range(CHUNK_DIGITS, len(values), CHUNK_DIGITS):
        counts += np.bincount(values[start : start + CHUNK_DIGITS].astype(np.intp), minlength=s)
    return counts


def _digit_sum(piece: Chunk) -> int:
    """Sum of the digits of a piece of at most CHUNK_DIGITS digits, by an
    int64 numpy sum: an algorithm apart from `_tally`'s counts, so that the
    two check each other. Exact while (s - 1) * CHUNK_DIGITS < 2**63, which
    every base whose count array `_tally` can hold meets."""
    return int(np.asarray(memoryview(piece)).sum(dtype=np.int64))


def digit_counts(p: DigitPrefix) -> tuple[int, ...]:
    """counts[i] = number of positions j <= n with a_j = i."""
    return tuple(_tally(p.chunk, p.base.s).tolist())


def freq_report(p: DigitPrefix) -> FreqReport:
    if len(p) == 0:
        raise ValueError("cannot report frequencies of an empty prefix")
    return FreqReport(digit_counts(p))


@dataclass(frozen=True)
class ConvergenceTrace:
    """Frequency reports at a strictly increasing sequence of prefix lengths."""

    base: Base
    checkpoints: tuple[int, ...]
    reports: tuple[FreqReport, ...]

    def to_csv(self, precision: int = 12) -> str:
        cols = ",".join(f"v{i}" for i in range(self.base.s))
        lines = [f"n,{cols},r_n"]
        for rep in self.reports:
            lines.append(",".join([str(rep.n), *rep._decimals(precision)]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self, precision: int = 12) -> dict:
        return {
            "base": self.base.s,
            "checkpoints": list(self.checkpoints),
            "reports": [r.to_json_dict(precision) for r in self.reports],
        }


def convergence_trace(stream: DigitStream, checkpoints: Sequence[int]) -> ConvergenceTrace:
    """Reports at each checkpoint, computed in one pass over the stream.

    The stream's chunks are cut at every checkpoint, and into pieces of at
    most CHUNK_DIGITS digits, so memory stays bounded by that whatever the
    chunks' length. Each piece is tallied whole: digit counts with
    `numpy.bincount`, which costs one pass whatever the base. The digit sum
    is accumulated independently, by `_digit_sum`, and compared in integers
    with sum(i * N_i) from the counts (as the length is with sum(N_i)), so
    every emitted report has passed the mean identity both ways.
    """
    points = tuple(map(operator.index, checkpoints))
    if not points:
        raise ValueError("need at least one checkpoint")
    if points[0] < 1 or any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError(f"checkpoints must be >= 1 and strictly increasing, got {points}")
    return _trace(stream.base, stream.chunks(points[-1]), points)


def _trace(base: Base, chunks: Iterable[Chunk], points: Sequence[int], to_end: bool = False) -> ConvergenceTrace:
    """`convergence_trace` of the digits in `chunks`, which are read to
    their end; chunks past the last checkpoint are read and not tallied.

    With `to_end`, the end of `chunks` is the last checkpoint and points
    past it are dropped: `analyze --in` traces a file of unknown length to
    its end this way, in one pass. Otherwise a point past the end is an
    error. `points` must be >= 1 and strictly increasing."""
    s = base.s
    counts = np.zeros(s, dtype=np.int64)
    digit_sum = 0
    consumed = 0
    reports = []
    targets = iter(points)
    target = next(targets)
    for chunk in chunks:
        start = 0
        while start < len(chunk) and (target is not None or to_end):
            size = CHUNK_DIGITS if target is None else min(CHUNK_DIGITS, target - consumed)
            piece = chunk[start : start + size]
            counts += _tally(piece, s)
            digit_sum += _digit_sum(piece)
            consumed += len(piece)
            start += len(piece)
            if consumed == target:
                reports.append(_report(counts, consumed, digit_sum))
                target = next(targets, None)
    if to_end:
        if not reports or reports[-1].n < consumed:
            reports.append(_report(counts, consumed, digit_sum))
    elif target is not None:
        raise ValueError(f"stream ended at {consumed} digits, before checkpoint {target}")
    return ConvergenceTrace(base, tuple(r.n for r in reports), tuple(reports))


def _report(counts: np.ndarray, n: int, digit_sum: int) -> FreqReport:
    """The report of the counts, once they agree with the length and the
    digit sum that were accumulated beside them."""
    report = FreqReport(counts.tolist())
    if report.n != n or report.digit_sum != digit_sum:
        raise AssertionError("digit counts disagree with the digit sum or the length")
    return report


@dataclass(frozen=True)
class NormalityVerdict:
    """Finite-n verdict: are the observed frequencies within tol of uniform?"""

    consistent: bool
    max_deviation: Fraction
    tol: Fraction

    def to_json_dict(self, precision: int = 12) -> dict:
        return {
            "tol": format_decimal(self.tol, precision),
            "max_deviation": format_decimal(self.max_deviation, precision),
            "consistent": self.consistent,
        }


def weak_normality_verdict(report: FreqReport, tol: Fraction | int | str) -> NormalityVerdict:
    """Check max_i |v_i - 1/s| <= tol on the prefix that `report` describes.

    This is a diagnostic about the prefix, never a claim about the limit:
    "consistent" means the finite-n frequencies are within tol of uniform.
    A zero tolerance tests exact uniformity; negative tolerances are
    rejected.
    """
    tol = Fraction(tol)
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    target = Fraction(1, len(report.counts))
    deviation = max(abs(f - target) for f in report.freqs)
    return NormalityVerdict(consistent=deviation <= tol, max_deviation=deviation, tol=tol)
