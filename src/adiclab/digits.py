"""Exact base-s digit expansions of numbers in [0, 1].

A number x in [0, 1] is written as the digit series x = sum_k a_k * s**(-k)
with digits a_k in {0, ..., s-1}. Rationals have eventually periodic
expansions; rationals whose reduced denominator divides a power of s
terminate, and therefore admit a second expansion ending in the constant
maximal digit. The canonical expansion is always the one with period (0);
`dual_representation` is the explicit converter to the other form.

Everything in this module is exact: values are `fractions.Fraction` and
digits are plain ints. Floor and periodicity logic is off-by-one fragile in
floating point, so none is used.

`expand` gives a rational's digits and its (preperiod, period) pair; its
docstring states how. Numerals, the inverse, are built by halving down to
leaves that `int(text, s)` reads in C up to base 36.

A `DigitStream` produces its digits in chunks: `bytes` with one byte per
digit (values 0..s-1, not ASCII) up to base 256, and `array("Q")` of
64-bit words above it. Consumers count, sum, slice and encode whole chunks
in C; `iter_digits`, `prefix` and `digit_at` are thin per-digit views.
Generated streams start with short chunks and grow them toward
CHUNK_DIGITS digits, so reading a short prefix stays cheap.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "Base",
    "BASE4",
    "DigitPrefix",
    "DigitStream",
    "Chunk",
    "CHUNK_DIGITS",
    "to_chunk",
    "chunk_from_array",
    "digit_text",
    "parse_digit_text",
    "periodic_stream",
    "constant_stream",
    "stream_from_digits",
    "expand",
    "prefix_value",
    "stream_value",
    "dual_representation",
    "has_two_representations",
]


@dataclass(frozen=True)
class Base:
    """Radix of the digit system; digits live in {0, ..., s-1}."""

    s: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.s, int) or self.s < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.s!r}")


BASE4 = Base(4)

Chunk = Union[bytes, array]
Period = tuple[tuple[int, ...], tuple[int, ...]]

# Generated streams grow their chunks up to about this many digits.
CHUNK_DIGITS = 1 << 16

# A period of at most this many digits is found by `expand` at once, from
# the order of s; a longer one makes a lazy stream whose first chunk holds
# the preperiod and this many digits after it.
_SHORT_PERIOD = 256

# Longest period `eventual_period` looks for on an expand stream before it
# gives up, so that reading it takes bounded time and memory on any input.
_MAX_PERIOD_DIGITS = 10**7

# Digit values up to base 256, one per byte; the first s of them are the
# alphabet that `bytes.translate` deletes to range-check a chunk.
_BYTE_VALUES = bytes(range(256))

_ASCII_DIGITS = "0123456789"
_VALUES_TO_ASCII = bytes.maketrans(bytes(range(10)), _ASCII_DIGITS.encode())
_ASCII_TO_VALUES = bytes.maketrans(_ASCII_DIGITS.encode(), bytes(range(10)))


def _wide(base: Base) -> bool:
    """True when a digit needs more than one byte: chunks are then
    `array("Q")` instead of `bytes`."""
    if base.s > 1 << 64:
        raise ValueError(f"digit streams hold bases up to 2**64, got {base.s}")
    return base.s > 256


def to_chunk(digits: Iterable[int] | bytes, base: Base) -> Chunk:
    """`digits` as one chunk, after checking that each is an int in 0..s-1.

    A `bytes` argument is taken as digit values, one per byte. The check
    runs in C; only a failing input is scanned again, to name its first bad
    digit.
    """
    s = base.s
    wide = _wide(base)
    if not isinstance(digits, array if wide else bytes):
        digits = tuple(digits)
    try:
        chunk = array("Q", digits) if wide else bytes(digits)
        valid = max(chunk, default=0) < s if wide else not chunk.translate(None, _BYTE_VALUES[:s])
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        bad = next(d for d in digits if not (isinstance(d, int) and 0 <= d < s))
        raise ValueError(f"digit {bad!r} out of range for base {s}")
    return chunk


def chunk_from_array(values, base: Base) -> Chunk:
    """The chunk holding the values of an integer numpy array, which must
    already be base-s digits."""
    if _wide(base):
        return array("Q", values.astype("Q").tobytes())
    return values.astype("B").tobytes()


def digit_text(chunk: bytes) -> str:
    """The ASCII numeral of a chunk of digits below 10."""
    return chunk.translate(_VALUES_TO_ASCII).decode("ascii")


def parse_digit_text(text: str, s: int) -> bytes:
    """Digit values of an ASCII numeral, one byte per character.

    Only the ASCII characters "0".."9" below s are digits: a non-ASCII
    digit such as "٣" or "²" is refused like any other character, with a
    ValueError that names the first offending character.
    """
    allowed = _ASCII_DIGITS[: min(s, 10)]
    if text.isascii():
        raw = text.encode("ascii")
        if not raw.translate(None, allowed.encode()):
            return raw.translate(_ASCII_TO_VALUES)
    bad = next(ch for ch in text if ch not in allowed)
    raise ValueError(f"non-digit character {bad!r} for base {s}")


@dataclass(frozen=True)
class DigitPrefix:
    """A finite, materialized block of leading digits."""

    base: Base
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        to_chunk(self.digits, self.base)

    def __len__(self) -> int:
        return len(self.digits)


class DigitStream:
    """A deterministic, unbounded digit source.

    `make_chunks` returns an iterator over the stream's chunks (see the
    module docstring for their layout). It must be pure: every call yields
    the same digits, so independent consumers (including concurrent ones)
    can re-read the stream safely. Streams derived from rationals
    (`periodic_stream` and `expand`) carry their (preperiod, period)
    descriptor; purely procedural streams (the constructive algorithms) do
    not, and their value is then not computable from finite data.
    """

    __slots__ = ("base", "make_chunks", "_period")

    def __init__(self, base: Base, make_chunks: Callable[[], Iterator[Chunk]]) -> None:
        self.base = base
        self.make_chunks = make_chunks
        # The (preperiod, period) pair, the function that finds it, or None.
        self._period: Period | Callable[[], Period] | None = None

    @property
    def eventual_period(self) -> Period | None:
        """The (preperiod, period) descriptor, or None for a procedural
        stream. A long `expand` period is found on first access and kept;
        one longer than _MAX_PERIOD_DIGITS raises ValueError here. The
        finder is read once, so a concurrent first read never calls the
        pair another one has stored."""
        if callable(finder := self._period):
            self._period = finder()
        return self._period

    def chunks(self, n: int) -> Iterator[Chunk]:
        """Chunks holding the first n digits, the last one cut to fit; they
        hold fewer digits if the stream ends first."""
        if n <= 0:
            return
        for chunk in self.make_chunks():
            if len(chunk) >= n:
                yield chunk[:n]
                return
            n -= len(chunk)
            yield chunk

    def iter_digits(self) -> Iterator[int]:
        return itertools.chain.from_iterable(self.make_chunks())

    def digit_at(self, k: int) -> int:
        """The k-th digit, 1-based. O(1) once the period is known, O(k)
        otherwise. A period not yet known is looked for only when k lies
        past _MAX_PERIOD_DIGITS, where the search costs less than reading
        to position k; below that the stream is read."""
        if k < 1:
            raise ValueError(f"digit positions are 1-based, got {k}")
        pair = self.eventual_period if k > _MAX_PERIOD_DIGITS else self._period
        if isinstance(pair, tuple):
            pre, per = pair
            if k <= len(pre):
                return pre[k - 1]
            return per[(k - len(pre) - 1) % len(per)]
        seen = 0
        for chunk in self.chunks(k):
            seen += len(chunk)
        if seen < k:
            raise ValueError(f"stream ended after {seen} digits, before position {k}")
        return chunk[-1]

    def prefix(self, n: int) -> DigitPrefix:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        digits = tuple(itertools.chain.from_iterable(self.chunks(n)))
        if len(digits) < n:
            raise ValueError(f"stream ended after {len(digits)} digits, wanted {n}")
        return DigitPrefix(self.base, digits)


def periodic_stream(
    preperiod: Iterable[int], period: Iterable[int], base: Base = BASE4
) -> DigitStream:
    """Stream consisting of `preperiod` followed by `period` repeated forever.

    An empty period is refused first; then each part is range-checked once
    by `to_chunk`, the preperiod before the period, so the first bad digit
    is named. The (preperiod, period) pair is recorded on the stream as its
    `eventual_period`, so `digit_at` and `stream_value` use it at once.
    After the preperiod, each chunk holds whole periods, twice as many as
    the chunk before, until a chunk reaches CHUNK_DIGITS digits.
    """
    if not isinstance(period, bytes):
        period = tuple(period)
    if not period:
        raise ValueError("period must be nonempty")
    head, tile = to_chunk(preperiod, base), to_chunk(period, base)
    stream = DigitStream(base, partial(_tiled_chunks, head, tile))
    stream._period = (tuple(head), tuple(tile))
    return stream


def _tiled_chunks(head: Chunk, tile: Chunk) -> Iterator[Chunk]:
    """`head` if it is nonempty, then `tile` repeated: twice as many copies
    per chunk until a chunk reaches CHUNK_DIGITS digits."""
    if head:
        yield head
    chunk = tile
    while True:
        yield chunk
        if len(chunk) < CHUNK_DIGITS:
            chunk = chunk * 2


def constant_stream(digit: int, base: Base = BASE4) -> DigitStream:
    return periodic_stream((), (digit,), base)


def stream_from_digits(digits: Sequence[int] | bytes, base: Base = BASE4) -> DigitStream:
    """Wrap a finite, materialized digit sequence as a (finite) stream of
    one chunk.

    `digits` is a sequence of ints or a `bytes` object of digit values.
    Consumers that read past the end see the stream simply stop; this is
    intended for analyzing digit files of known length.
    """
    data = to_chunk(digits, base)
    return DigitStream(base=base, make_chunks=lambda: iter((data,)))


def _split_denominator(q: int, s: int) -> tuple[int, int]:
    """(m, q') for a denominator q in base s.

    Dividing t = q by gcd(t, s) until t is coprime to s leaves q', the part
    of q coprime to s; the number of divisions, m, is the preperiod length
    of every p/q in lowest terms. q' == 1 exactly when p/q terminates.
    """
    m = 0
    while (g := math.gcd(q, s)) > 1:
        q //= g
        m += 1
    return m, q


def _remainder_chunks(r: int, s: int, q: int, n: int) -> Iterator[np.ndarray]:
    """The long-division remainders r*s**k mod q, k = 0, 1, ..., as arrays
    of n, 2n, ... up to CHUNK_DIGITS values.

    Each array is filled by doubling: the second half of a prefix is its
    first half times s**len mod q. int64 holds every product when
    q * max(q, s) < 2**63; exact Python ints (`object`) are used otherwise.
    """
    dtype = np.int64 if q * max(q, s) < 2**63 else object
    while True:
        rems = np.empty(n, dtype=dtype)
        rems[0] = r
        have = 1
        while have < n:
            step = min(have, n - have)
            rems[have : have + step] = rems[:step] * pow(s, have, q) % q
            have += step
        yield rems
        r = int(rems[-1]) * s % q
        n = min(2 * n, CHUNK_DIGITS)


# Bound on the (q', s) pairs whose period length `_short_order` keeps.
_ORDER_CACHE_SIZE = 4096


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _short_order(q: int, s: int) -> int | None:
    """The multiplicative order of s modulo q, for q coprime to s, or None
    when it is above _SHORT_PERIOD. It takes at most _SHORT_PERIOD modular
    multiplications; the order of s modulo 1 is 1."""
    if q == 1:
        return 1
    t = power = s % q
    for order in range(1, _SHORT_PERIOD + 1):
        if power == 1:
            return order
        power = power * t % q
    return None


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _base_digits(n: int, base: Base, count: int) -> Chunk:
    """The `count` base-s digits of 0 <= n < s**count, most significant
    first, as one chunk.

    For s = 2**k up to 256 they come from the bits of n in C: in the
    k*count-character binary numeral, every k-th character from i on is the
    i-th bit of each digit, so the k slices, read as one byte per digit by
    `int.from_bytes` and shifted into place, add up to the digits. Every
    other base takes exactly `count` divmod steps.
    """
    s = base.s
    if s <= 256 and s & (s - 1) == 0:
        k = s.bit_length() - 1
        bits = format(n, "b").encode().rjust(k * count, b"0").translate(_BIT_VALUES)
        acc = 0
        for i in range(k):
            acc = acc << 1 | int.from_bytes(bits[i::k], "big")
        return acc.to_bytes(count, "big")
    wide = _wide(base)
    out = array("Q", bytes(8 * count)) if wide else bytearray(count)
    for i in range(count - 1, -1, -1):
        n, out[i] = divmod(n, s)
    return out if wide else bytes(out)


def expand(x: Fraction | int | str, base: Base = BASE4) -> DigitStream:
    """Canonical digit expansion of x in [0, 1].

    The stream's (preperiod, period) descriptor is minimal; terminating
    numbers get the period-(0) form, and the endpoints follow the
    convention 0 = .(0) and 1 = .(s-1). The expansion satisfies
    sum(a_k * s**-k) == x exactly, and preperiod + period length never
    exceeds the reduced denominator.

    x may be a Fraction, which is used as it is, or anything `Fraction`
    accepts; the range test and the x = 1 test compare the integers p and
    q of x = p/q. With (m, q') from `_split_denominator`, which divides q
    by gcd(q, s) until the rest is coprime to s, the preperiod has m digits
    and the period L = ord_q'(s) digits (L = 1, period (0), when q' = 1).
    `_short_order` looks for L with at most _SHORT_PERIOD modular
    multiplications, in a cache of _ORDER_CACHE_SIZE (q', s) pairs; a q'
    too wide for such a period skips both. The first n digits of x are the
    base-s digits of (p * s**n) // q, so one big-int division gives them
    all, and `_base_digits` writes them out: from the integer's bits when s
    is a power of two up to 256, by one `divmod` per digit otherwise.

    When L <= _SHORT_PERIOD, n = m + L: those digits are the preperiod and
    one period (the period's integer is r' * (s**L - 1) / q', with r'/q'
    the fractional part of x * s**m), and the stream records the pair at
    once. Otherwise n = m + _SHORT_PERIOD and the stream is lazy: those
    digits are its first chunk, and later digits are computed a chunk at a
    time: the k-th remainder after r_m is r_m * s**k mod q and its digit
    is that remainder times s, floor-divided by q (see `_remainder_chunks`
    for the int64/object choice). The period is then searched for only
    when `eventual_period` is first read, chunk by chunk, up to
    _MAX_PERIOD_DIGITS digits; past that the read raises ValueError.
    """
    if not isinstance(x, Fraction):
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"expand is defined on [0, 1], got {x}")
    s = base.s
    if p == q:
        # 1 has no in-range period-(0) expansion; the maximal-digit tail is it.
        return periodic_stream((), (s - 1,), base)
    m, core = _split_denominator(q, s)
    # q' divides s**L - 1, so a period of at most _SHORT_PERIOD digits needs
    # q' < s**_SHORT_PERIOD: a wider q' is neither searched nor cached.
    length = _short_order(core, s) if core.bit_length() <= _SHORT_PERIOD * s.bit_length() else None
    n = m + (length or _SHORT_PERIOD)
    value, rem = divmod(p * s**n, q)
    head = _base_digits(value, base, n)
    if length is not None:
        return periodic_stream(head[:m], head[m:], base)
    start = p * s**m % q

    def tail() -> Iterator[tuple[np.ndarray, Chunk]]:
        # Remainders and digits after the head, from r_(m + _SHORT_PERIOD) on.
        for rems in _remainder_chunks(rem, s, q, 2 * _SHORT_PERIOD):
            yield rems, chunk_from_array(rems * s // q, base)

    def make() -> Iterator[Chunk]:
        yield head
        for _, chunk in tail():
            yield chunk

    def search_period() -> Period:
        pieces = [head]
        length = _SHORT_PERIOD
        for rems, chunk in tail():
            hits = np.flatnonzero(rems == start)
            cut = int(hits[0]) if hits.size else len(rems)
            pieces.append(chunk[:cut])
            length += cut
            if length > _MAX_PERIOD_DIGITS:
                raise ValueError(
                    f"the period of {x} in base {s} is longer than {_MAX_PERIOD_DIGITS} digits"
                )
            if hits.size:
                found = tuple(itertools.chain.from_iterable(pieces))
                return found[:m], found[m:]

    stream = DigitStream(base, make)
    stream._period = search_period
    return stream


# Below this many digits a numeral is built whole instead of split. A leaf
# stays far under the 4300 digits that CPython's `int` accepts from a
# string in a base that is not a power of two.
_NUMERAL_LEAF = 128

# Digit values 0..35 to the characters `int` reads in bases up to 36; every
# other byte maps to "!", which `int` refuses.
_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"!")


def _numeral(digits: Sequence[int], s: int, powers: dict[int, int] | None = None) -> int:
    """The integer whose base-s digits, most significant first, are `digits`.

    Halving keeps the big-int products balanced, so the cost is that of a
    few full-size multiplications instead of the quadratic `acc * s + d`
    loop. A leaf of at most _NUMERAL_LEAF digits is, for s <= 36, one
    `int(text, s)` call on its digits translated to characters, all in C;
    above base 36 it is that loop. `powers` caches s**k across the
    recursion.
    """
    n = len(digits)
    if n <= _NUMERAL_LEAF:
        if s <= 36:
            return int(bytes(digits).translate(_ALNUM) or b"0", s)
        acc = 0
        for d in digits:
            acc = acc * s + d
        return acc
    if powers is None:
        powers = {}
    half = n // 2
    k = n - half
    if k not in powers:
        powers[k] = s**k
    return _numeral(digits[:half], s, powers) * powers[k] + _numeral(digits[half:], s, powers)


def prefix_value(p: DigitPrefix) -> Fraction:
    """Exact partial sum sum_{k<=n} a_k * s**(-k) of a finite prefix."""
    return Fraction(_numeral(p.digits, p.base.s), p.base.s ** len(p.digits))


def stream_value(stream: DigitStream) -> Fraction:
    """Exact limit value of an eventually periodic stream.

    Only streams carrying a (preperiod, period) descriptor have a value
    computable from finite data; anything else raises. With m = len(pre),
    L = len(per) and N the numeral of a digit string, the value is the
    single fraction (N(pre) * (s**L - 1) + N(per)) / (s**m * (s**L - 1)),
    reduced once.
    """
    if stream.eventual_period is None:
        raise ValueError("stream value needs a (preperiod, period) descriptor")
    pre, per = stream.eventual_period
    s = stream.base.s
    cycle = s ** len(per) - 1  # one period is worth N(per) / cycle
    return Fraction(_numeral(pre, s) * cycle + _numeral(per, s), s ** len(pre) * cycle)


def dual_representation(p: DigitPrefix) -> DigitStream:
    """The companion expansion of a terminating number.

    Interprets p as the terminating expansion p(0), so p must be nonempty
    and end in a nonzero digit, and returns c_1 ... c_{k-1} [c_k - 1]
    followed by the constant maximal digit. Both expansions have the same
    exact value.
    """
    if len(p) == 0:
        raise ValueError("dual representation needs a nonempty prefix")
    if p.digits[-1] == 0:
        raise ValueError("dual representation needs a prefix ending in a nonzero digit")
    s = p.base.s
    pre = p.digits[:-1] + (p.digits[-1] - 1,)
    return periodic_stream(pre, (s - 1,), p.base)


def has_two_representations(x: Fraction | int | str, base: Base = BASE4) -> bool:
    """True iff x has a terminating expansion strictly inside (0, 1).

    Exactly those x admit two expansions (tails (0) and (s-1)); every digit
    function here uses the period-(0) one. The endpoints have a single
    in-range expansion each under that convention, so they report False.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"defined on [0, 1], got {x}")
    return 0 < x < 1 and _split_denominator(x.denominator, base.s)[1] == 1
