"""Finite-prefix digit statistics: counts, frequencies, running means.

All statistics are exact rationals; floating point appears only at
serialization. A convergence trace is finite-n evidence for the limiting
frequencies and the asymptotic digit mean -- it never extrapolates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .digits import Base, DigitPrefix, DigitStream

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
    """Statistics of one prefix: counts N_i, frequencies v_i = N_i / n, and
    the running digit mean r_n = sum(i * v_i)."""

    n: int
    counts: tuple[int, ...]
    freqs: tuple[Fraction, ...]
    mean: Fraction

    def __post_init__(self) -> None:
        # Exact bookkeeping identities; cheap relative to the tally itself.
        if self.n < 1:
            raise ValueError("a frequency report needs at least one digit")
        if sum(self.counts) != self.n:
            raise ValueError("digit counts do not add up to the prefix length")
        if sum(self.freqs) != 1:
            raise ValueError("frequencies do not sum to 1")
        if self.mean != sum(i * f for i, f in enumerate(self.freqs)):
            raise ValueError("mean is inconsistent with the frequencies")

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "FreqReport":
        counts = tuple(counts)
        n = sum(counts)
        if n < 1:
            raise ValueError("a frequency report needs at least one digit")
        freqs = tuple(Fraction(c, n) for c in counts)
        mean = Fraction(sum(i * c for i, c in enumerate(counts)), n)
        return cls(n=n, counts=counts, freqs=freqs, mean=mean)

    def to_json_dict(self, precision: int = 12) -> dict:
        return {
            "n": self.n,
            "counts": list(self.counts),
            "freqs": [format_decimal(f, precision) for f in self.freqs],
            "mean": format_decimal(self.mean, precision),
        }


def digit_counts(p: DigitPrefix) -> tuple[int, ...]:
    """counts[i] = number of positions j <= n with a_j = i."""
    counts = [0] * p.base.s
    for d in p.chunk:
        counts[d] += 1
    return tuple(counts)


def freq_report(p: DigitPrefix) -> FreqReport:
    if len(p) == 0:
        raise ValueError("cannot report frequencies of an empty prefix")
    return FreqReport.from_counts(digit_counts(p))


@dataclass(frozen=True)
class ConvergenceTrace:
    """Frequency reports at a strictly increasing sequence of prefix lengths."""

    base: Base
    checkpoints: tuple[int, ...]
    reports: tuple[FreqReport, ...]

    def csv_header(self) -> str:
        cols = ",".join(f"v{i}" for i in range(self.base.s))
        return f"n,{cols},r_n"

    def to_csv(self, precision: int = 12) -> str:
        lines = [self.csv_header()]
        for rep in self.reports:
            cells = [str(rep.n)]
            cells += [format_decimal(f, precision) for f in rep.freqs]
            cells.append(format_decimal(rep.mean, precision))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self, precision: int = 12) -> dict:
        return {
            "base": self.base.s,
            "checkpoints": list(self.checkpoints),
            "reports": [r.to_json_dict(precision) for r in self.reports],
        }


def convergence_trace(stream: DigitStream, checkpoints: Sequence[int]) -> ConvergenceTrace:
    """Reports at each checkpoint, computed in one pass over the stream.

    The stream's chunks are cut at every checkpoint and each piece is
    tallied whole: digit counts with `numpy.bincount`, which costs one pass
    whatever the base. The digit sum is accumulated independently, with
    `sum`, and cross-checked against the count-derived mean, so every
    emitted report has passed the exact mean identity both ways.
    """
    points = tuple(int(n) for n in checkpoints)
    if not points:
        raise ValueError("need at least one checkpoint")
    if points[0] < 1 or any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError(f"checkpoints must be >= 1 and strictly increasing, got {points}")

    s = stream.base.s
    counts = np.zeros(s, dtype=np.int64)
    digit_sum = 0
    consumed = 0
    reports = []
    targets = iter(points)
    target = next(targets)
    for chunk in stream.chunks(points[-1]):
        while chunk:
            piece, chunk = chunk[: target - consumed], chunk[target - consumed :]
            values = np.asarray(memoryview(piece)).astype(np.intp)
            counts += np.bincount(values, minlength=s)
            digit_sum += sum(piece)
            consumed += len(piece)
            if consumed == target:
                report = FreqReport.from_counts(counts.tolist())
                if report.mean != Fraction(digit_sum, target):
                    raise AssertionError("count-derived mean disagrees with the digit-sum mean")
                reports.append(report)
                target = next(targets, None)
    if len(reports) < len(points):
        raise ValueError(f"stream ended at {consumed} digits, before checkpoint {target}")
    return ConvergenceTrace(stream.base, points, tuple(reports))


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
    target = Fraction(1, len(report.freqs))
    deviation = max(abs(f - target) for f in report.freqs)
    return NormalityVerdict(consistent=deviation <= tol, max_deviation=deviation, tol=tol)
