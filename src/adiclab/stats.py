"""Finite-prefix digit statistics: counts, frequencies, running means.

All statistics are exact rationals; floating point appears only at
serialization. A convergence trace is finite-n evidence for the limiting
frequencies and the asymptotic digit mean -- it never extrapolates.

Digits are tallied in one of two ways. In a base up to 16, the first
_COUNT_DIGITS digits of a tally are counted with `bytes.count`, so a short
input never pays for importing numpy. Every later piece, and every piece in
a larger base, uses `numpy.bincount`, and numpy is imported only then.

Whichever way a piece is counted, its digit sum is taken by one rule that
does not read the counts (`_digit_sum`): a bytes piece, in any base up to
256, is summed by `zlib.adler32` over spans short enough that no span's sum
reaches adler32's modulus, and an array("Q") piece, which is always
bincounted, by numpy. The counts must match that sum and the length.

A stream that knows its shape, m digits of preperiod and then a period of
L, is traced to a far checkpoint from its first m + L digits and a
window of CHUNK_DIGITS digits (`_periodic_trace`); every later count is
a sum of period counts, and the window's tally checks them.
"""

from __future__ import annotations

import operator
import zlib
from fractions import Fraction
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .digits import CHUNK_DIGITS, Base, Chunk, DigitPrefix, DigitStream, Frozen, _leading_chunks

if TYPE_CHECKING:
    import numpy as np

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

# Digits a tally counts without numpy before it moves to `numpy.bincount`.
# DEFAULT_CHECKPOINTS ends below it; at this length the count passes cost
# at most about 30 ms (uniform base-16 digits, one pass per digit value),
# less than importing numpy does (about 0.1 s).
_COUNT_DIGITS = 2**20


def format_decimal(value: Fraction | float, precision: int = 12) -> str:
    """Decimal string with `precision` significant digits."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    return f"{float(value):.{precision}g}"


class FreqReport(Frozen):
    """Statistics of one prefix, held as its digit counts N_i.

    Everything else follows from the counts, so the identities hold by
    construction: n = sum(N_i), frequencies v_i = N_i / n and the running
    digit mean r_n = sum(i * v_i). They are computed when first read, as
    exact rationals; serialization formats the integer quotients directly.
    """

    _fields = ("counts",)

    def __init__(self, counts: Iterable[int]) -> None:
        counts = tuple(map(operator.index, counts))
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


def _tally(piece: Chunk, s: int, count: bool) -> list[int] | np.ndarray:
    """Digit counts of one piece of at most CHUNK_DIGITS digits.

    With `count`, the piece is bytes, and its counts are a list made by one
    `bytes.count` pass per digit value. Otherwise they are an int64 array
    made by `numpy.bincount`, which needs an `intp` copy of the digits, 8
    bytes each: `_trace` cuts every chunk into such pieces, so a long chunk
    never costs a copy of its whole length. `_trace` checks the counts on
    either path against `_digit_sum`, which is the same for both."""
    if count:
        return [piece.count(d) for d in range(s)]
    import numpy as np

    return np.bincount(np.asarray(memoryview(piece)).astype(np.intp), minlength=s)


# The largest byte sum that adler32's low half (the sum modulo 65521) gives exactly.
_SPAN_SUM = 65520


def _digit_sum(piece: Chunk, s: int) -> int:
    """Sum of the digits of a piece of at most CHUNK_DIGITS digits in base
    s, by an algorithm apart from `_tally`'s counts, so that the two check
    each other; the tally path does not change it.

    A bytes piece (base up to 256) is summed as `zlib.adler32(span, 0) &
    0xFFFF` over spans of _SPAN_SUM // (s - 1) digits: digits are below s,
    so no span's sum reaches the modulus 65521, and each is exact; a piece
    that fits in one span is one call. An array("Q") piece (base above 256)
    is always bincounted, so numpy is loaded, and it is summed in int64,
    exact while (s - 1) * CHUNK_DIGITS < 2**63, which every base whose
    count array `_tally` can hold meets."""
    if s <= 256:
        span = _SPAN_SUM // (s - 1)
        view = memoryview(piece)
        return sum([zlib.adler32(view[i : i + span], 0) & 0xFFFF for i in range(0, len(piece), span)])
    import numpy as np

    return int(np.asarray(memoryview(piece)).sum(dtype=np.int64))


def digit_counts(p: DigitPrefix) -> tuple[int, ...]:
    """counts[i] = number of positions j <= n with a_j = i: the counts of
    `freq_report`, cross-checked as every trace report is, or zeros for an
    empty prefix."""
    return freq_report(p).counts if len(p) else (0,) * p.base.s


def freq_report(p: DigitPrefix) -> FreqReport:
    """The report of a nonempty prefix: its trace at its own length, so its
    counts pass the same cross-check as every trace report."""
    if len(p) == 0:
        raise ValueError("cannot report frequencies of an empty prefix")
    return _trace(p.base, (p.chunk,), (len(p),)).reports[0]


class ConvergenceTrace(NamedTuple):
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
    chunks' length. Each piece is tallied whole, by `_tally`: in a base up
    to 16 (a count pass per digit value) with `bytes.count` passes while the
    digits counted, the piece's included, are at most _COUNT_DIGITS, and
    otherwise with `numpy.bincount`, which costs one pass whatever the
    base. The digit sum is accumulated independently, by `_digit_sum`,
    whichever path counted the piece, and compared in integers with
    sum(i * N_i) from the counts (as the length is with sum(N_i)), so every
    emitted report has passed the mean identity both ways, on either path.

    A stream that knows its shape (m, L) (see `DigitStream`) is traced from
    one period instead, when the last checkpoint N exceeds m + L +
    CHUNK_DIGITS, so that it never reads more digits than the pass would:
    see `_periodic_trace`. A lazy `expand` stream finds L only then, and
    only up to N - CHUNK_DIGITS - 1 - m.
    """
    points = tuple(map(operator.index, checkpoints))
    if not points:
        raise ValueError("need at least one checkpoint")
    if points[0] < 1 or any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError(f"checkpoints must be >= 1 and strictly increasing, got {points}")
    n = points[-1]
    cycle = stream._cycle
    if callable(cycle) and n > CHUNK_DIGITS:
        cycle = cycle(n - CHUNK_DIGITS - 1)
    if isinstance(cycle, tuple) and cycle[0] + cycle[1] + CHUNK_DIGITS < n:
        return _periodic_trace(stream, points, *cycle)
    return _trace(stream.base, stream.chunks(n), points)


def _periodic_trace(
    stream: DigitStream, points: tuple[int, ...], m: int, length: int, restart: Callable[[int], Iterator[Chunk]]
) -> ConvergenceTrace:
    """`convergence_trace` of a stream whose digits are m, then a period of
    L = `length` repeated, for a last checkpoint N > m + L + CHUNK_DIGITS.

    With C(n) the counts of the first n digits and (k, r) = divmod(n - m,
    L), C(n) = C(m) + k * (C(m + L) - C(m)) + C(m + r) - C(m) for n >= m.
    One `_trace` pass tallies the first m + L digits, cut at every
    checkpoint up to m + L, at m, at m + L and at m + r for every later
    one, so each of its reports is cross-checked as the pass's are; the
    later ones come from the formula. The formula is then checked apart
    from m and L: the last CHUNK_DIGITS digits before N, which `restart`
    makes from digit N - CHUNK_DIGITS + 1 on, are tallied and compared
    with C(N) - C(N - CHUNK_DIGITS), and a mismatch raises AssertionError.
    So m + L + CHUNK_DIGITS digits are read, and memory stays O(
    CHUNK_DIGITS + checkpoints)."""
    base, top, n = stream.base, m + length, points[-1]
    start = n - CHUNK_DIGITS
    cuts = {p for p in points if p <= top} | {m, top} | {m + (p - m) % length for p in (*points, start) if p > top}
    head = _trace(base, stream.chunks(top), sorted(cuts - {0}))
    counts = {0: (0,) * base.s, **{r.n: r.counts for r in head.reports}}

    def at(p: int) -> list[int]:
        k, r = divmod(p - m, length)
        return [a + k * (b - a) + c - a for a, b, c in zip(counts[m], counts[top], counts[m + r])]

    window = _trace(base, _leading_chunks(partial(restart, start), CHUNK_DIGITS), (CHUNK_DIGITS,))
    if list(window.reports[0].counts) != list(map(operator.sub, at(n), at(start))):
        raise AssertionError("the period's counts disagree with the digits of the last window")
    return ConvergenceTrace(base, points, tuple(FreqReport(counts[p] if p <= top else at(p)) for p in points))


def _trace(base: Base, chunks: Iterable[Chunk], points: Sequence[int] | None = None) -> ConvergenceTrace:
    """`convergence_trace` of the digits in `chunks`, which are read to
    their end; chunks past the last checkpoint are read and not tallied.

    With `points` None, the points are DEFAULT_CHECKPOINTS below the end of
    `chunks`, then the end: `analyze --in` traces a file of unknown length
    to its end this way, in one pass. Otherwise a point past the end is an
    error. `points` must be >= 1 and strictly increasing."""
    s = base.s
    counts = [0] * s
    digit_sum = 0
    consumed = 0
    reports = []
    targets = iter(DEFAULT_CHECKPOINTS if points is None else points)
    target = next(targets)
    for chunk in chunks:
        start = 0
        while start < len(chunk) and (target is not None or points is None):
            take = CHUNK_DIGITS if target is None else min(CHUNK_DIGITS, target - consumed)
            piece = chunk[start : start + take]
            count = s <= 16 and consumed + len(piece) <= _COUNT_DIGITS
            tally = _tally(piece, s, count)
            # An array plus the counts so far, a list or an array, is an array.
            counts = list(map(operator.add, counts, tally)) if count else tally + counts
            digit_sum += _digit_sum(piece, s)
            consumed += len(piece)
            start += len(piece)
            if consumed == target:
                reports.append(_report(counts, consumed, digit_sum))
                target = next(targets, None)
    if points is None:
        if not reports or reports[-1].n < consumed:
            reports.append(_report(counts, consumed, digit_sum))
    elif target is not None:
        raise ValueError(f"stream ended at {consumed} digits, before checkpoint {target}")
    return ConvergenceTrace(base, tuple(r.n for r in reports), tuple(reports))


def _report(counts: list[int] | np.ndarray, n: int, digit_sum: int) -> FreqReport:
    """The report of the counts, once they agree with the length and the
    digit sum that were accumulated beside them."""
    report = FreqReport(counts if isinstance(counts, list) else counts.tolist())
    if report.n != n or report.digit_sum != digit_sum:
        raise AssertionError("digit counts disagree with the digit sum or the length")
    return report


class NormalityVerdict(NamedTuple):
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
