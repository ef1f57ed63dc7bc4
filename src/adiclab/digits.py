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
docstring states how. Numerals, the inverse, are read by one `int(text, s)`
call, in C and in linear time, in bases 2, 4, 8, 16 and 32, and built by
halving down to such leaves in the other bases up to 36. In a base that is a
power of two, `prefix_value` reduces its fraction without a gcd.

A `DigitStream` produces its digits in chunks: `bytes` with one byte per
digit (values 0..s-1, not ASCII) up to base 256, and `array("Q")` of
64-bit words above it. Consumers count, sum, slice and encode whole chunks
in C; `iter_digits`, `prefix` and `digit_at` are thin per-digit views.
Generated streams start with short chunks and grow them toward
CHUNK_DIGITS digits, so reading a short prefix stays cheap;
`_long_division` states how a rational's chunks are computed and how
long they grow.
"""

from __future__ import annotations

import codecs
import itertools
import math
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence, Union

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


class Frozen:
    """Base of the library's immutable value classes.

    A subclass names its fields in `_fields` and sets each once, in its own
    `__init__`, through `object.__setattr__`. Two instances of one class
    are equal when their fields are, an instance hashes as the tuple of its
    fields, and it shows as Name(field=value, ...). Assigning or deleting
    an attribute raises AttributeError. Instances keep their `__dict__`, so
    a `functools.cached_property` can store its value there.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Base(Frozen):
    """Radix of the digit system; digits live in {0, ..., s-1}."""

    _fields = ("s",)

    def __init__(self, s: int = 4) -> None:
        if not isinstance(s, int) or s < 2:
            raise ValueError(f"base must be an integer >= 2, got {s!r}")
        object.__setattr__(self, "s", s)


BASE4 = Base(4)

Chunk = Union[bytes, array]
Period = tuple[tuple[int, ...], tuple[int, ...]]
ChunkPair = tuple[Chunk, Chunk]
Cycle = tuple[int, int, Callable[[int], Iterator[Chunk]]]

# Generated streams grow their chunks up to about this many digits.
CHUNK_DIGITS = 1 << 16

# A period of at most this many digits is found by `expand` at once, from
# the order of s; a longer one makes a lazy stream whose first chunk holds
# the preperiod and this many digits after it.
_SHORT_PERIOD = 256

# Longest period a stream's finder looks for before it gives up (`expand`)
# or that it is given (`greedy_stream`), so that reading it takes bounded
# time and memory on any input.
_MAX_PERIOD_DIGITS = 10**7

# Digit values up to base 256, one per byte; the first s of them are the
# alphabet that `bytes.translate` deletes to range-check a chunk in base s.
_BYTE_VALUES = bytes(range(256))
_ALPHABETS = [_BYTE_VALUES[:s] for s in range(257)]

_ASCII_DIGITS = "0123456789"
_VALUES_TO_ASCII = bytes.maketrans(bytes(range(10)), _ASCII_DIGITS.encode())
_ASCII_TO_VALUES = bytes.maketrans(_ASCII_DIGITS.encode(), bytes(range(10)))


def _wide(base: Base) -> bool:
    """True when a digit needs more than one byte: chunks are then
    `array("Q")` instead of `bytes`."""
    if base.s > 1 << 64:
        raise ValueError(f"digit streams hold bases up to 2**64, got {base.s}")
    return base.s > 256


def to_chunk(digits: Iterable[int] | Chunk, base: Base) -> Chunk:
    """`digits` as one chunk, after checking that each is an int in 0..s-1.

    An exact `bytes` argument in a base up to 256 is taken as digit values,
    one per byte, and checked by one `translate` against the base's
    alphabet; it is returned as it is, without a copy. Anything else
    (a `bytearray`, a `bytes` subclass, an `array`, any iterable of ints) is
    copied into a new chunk and checked in C. Only a failing input is
    scanned again, to name its first bad digit.
    """
    s = base.s
    if type(digits) is bytes and s <= 256:
        if not digits.translate(None, _ALPHABETS[s]):
            return digits
    else:
        wide = _wide(base)
        if not isinstance(digits, array if wide else bytes):
            digits = tuple(digits)
        try:
            chunk = array("Q", digits) if wide else bytes(digits)
            if max(chunk, default=0) < s if wide else not chunk.translate(None, _ALPHABETS[s]):
                return chunk
        except (TypeError, ValueError, OverflowError):
            pass
    bad = next(d for d in digits if not (isinstance(d, int) and 0 <= d < s))
    raise ValueError(f"digit {bad!r} out of range for base {s}")


def _join(chunks: Iterable[Chunk], base: Base) -> Chunk:
    """The digits of `chunks`, in order, as one chunk. Not range-checked."""
    data = b"".join(chunks)
    return array("Q", data) if _wide(base) else data


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


class DigitPrefix(Frozen):
    """A finite, materialized block of leading digits.

    The digits are held as one chunk (see the module docstring), checked
    once, when the prefix is made: `DigitPrefix(base, digits)` takes the
    same arguments as `to_chunk`. `digits` gives them as a tuple of ints,
    built on each read; code that reads many digits should use `chunk`.
    """

    _fields = ("base", "chunk")

    def __init__(self, base: Base, digits: Iterable[int] | Chunk) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "chunk", to_chunk(digits, base))

    def __hash__(self) -> int:
        # An array("Q") chunk is unhashable; equal chunks have equal bytes.
        return hash((self.base, bytes(self.chunk)))

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self.chunk)

    def __len__(self) -> int:
        return len(self.chunk)


class DigitStream:
    """A deterministic, unbounded digit source.

    `make_chunks` returns an iterator over the stream's chunks (see the
    module docstring for their layout). It must be pure: every call yields
    the same digits, so independent consumers (including concurrent ones)
    can re-read the stream safely.

    A stream whose digits are eventually periodic may carry its
    (preperiod, period) pair, given once, when it is made, through the
    private `_period` input: `periodic_stream` passes the pair itself;
    `expand` with a period over _SHORT_PERIOD digits, and `greedy_stream`
    with one over CHUNK_DIGITS, pass a finder, a function of no arguments
    that returns the pair or raises ValueError when the period is longer
    than _MAX_PERIOD_DIGITS digits. A finder runs only when one of these
    needs the pair: `eventual_period`, `stream_value`, and `digit_at` past
    _MAX_PERIOD_DIGITS. Its pair is kept; a failed search is not, and
    costs no digit when repeated. A stream without a pair (a block stream,
    a greedy stream whose period is over _MAX_PERIOD_DIGITS digits, a
    stream built from `make_chunks` alone) has no value computable from
    finite data.

    A stream that knows its shape without reading a digit carries it in
    the private `_cycle` input, which `convergence_trace` reads: (m, L,
    restart), m the preperiod's length, L the period's, and restart(k) an
    iterator over the stream's chunks from digit k + 1 on, made apart from
    m and L. A `periodic_stream` and a short-period `expand` stream carry
    the tuple; a lazy `expand` stream carries a function of a bound `most`
    that gives it when m + L <= most and `_order` finds L cheaply, and
    None otherwise. A lazy function runs no finder and reads no digit.
    """

    __slots__ = ("base", "make_chunks", "_period", "_cycle")

    def __init__(
        self, base: Base, make_chunks: Callable[[], Iterator[Chunk]], *, _period=None, _cycle=None
    ) -> None:
        self.base = base
        self.make_chunks = make_chunks
        # The (preperiod, period) pair as two chunks, its finder, or None.
        self._period: ChunkPair | Callable[[], ChunkPair] | None = _period
        # (m, L, restart), a function of `most` that gives it or None, or None.
        self._cycle: Cycle | Callable[[int], Cycle | None] | None = _cycle

    def _chunk_pair(self) -> ChunkPair | None:
        """The (preperiod, period) pair as two chunks, or None; a finder
        runs here, and its pair is kept. The finder is read once, so a
        concurrent first call never calls the pair another one has stored."""
        if callable(finder := self._period):
            self._period = finder()
        return self._period

    @property
    def eventual_period(self) -> Period | None:
        """The (preperiod, period) descriptor as two tuples of ints, or None
        for a stream without one."""
        if (pair := self._chunk_pair()) is None:
            return None
        return tuple(pair[0]), tuple(pair[1])

    def chunks(self, n: int) -> Iterator[Chunk]:
        """Chunks holding the first n digits, the last one cut to fit; they
        hold fewer digits if the stream ends first."""
        return _leading_chunks(self.make_chunks, n)

    def iter_digits(self) -> Iterator[int]:
        return itertools.chain.from_iterable(self.make_chunks())

    def digit_at(self, k: int) -> int:
        """The k-th digit, 1-based. O(1) once the period is known, O(k)
        otherwise. A finder runs only when k lies past _MAX_PERIOD_DIGITS,
        where it costs less than reading to position k; below that, or
        when the period is longer than that, the stream is read."""
        if k < 1:
            raise ValueError(f"digit positions are 1-based, got {k}")
        pair = self._period
        if k > _MAX_PERIOD_DIGITS:
            try:
                pair = self._chunk_pair()
            except ValueError:
                pass  # no period within the cap
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
        """The first n digits as one chunk, range-checked once. Once the
        period is known they are the preperiod and enough copies of the
        period, cut to n; otherwise the stream's chunks are joined."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        if isinstance(pair := self._period, tuple):
            pre, per = pair
            chunk = (pre + per * -((len(pre) - n) // len(per)))[:n]
        else:
            chunk = _join(self.chunks(n), self.base)
        prefix = DigitPrefix(self.base, chunk)
        if len(prefix) < n:
            raise ValueError(f"stream ended after {len(prefix)} digits, wanted {n}")
        return prefix


def _leading_chunks(make_chunks: Callable[[], Iterator[Chunk]], n: int) -> Iterator[Chunk]:
    """The chunks of `make_chunks()` that hold its first n digits, the last
    one cut to fit."""
    if n <= 0:
        return
    for chunk in make_chunks():
        if len(chunk) >= n:
            yield chunk[:n]
            return
        n -= len(chunk)
        yield chunk


def _skip(make_chunks: Callable[[], Iterator[Chunk]], start: int) -> Iterator[Chunk]:
    """The chunks of `make_chunks()` from digit start + 1 on: the chunks
    before it are passed over whole, and the one that holds it is cut."""
    chunks = make_chunks()
    for chunk in chunks:
        if start < len(chunk):
            yield chunk[start:]
            yield from chunks
            return
        start -= len(chunk)


def _read_period(make_chunks: Callable[[], Iterator[Chunk]], base: Base, m: int, length: int) -> ChunkPair:
    """The (preperiod, period) pair of a stream whose chunks `make_chunks`
    makes, given m and L = `length`: its first m digits and the L after
    them. A finder reads its own factory here, not the stream's
    `make_chunks` attribute."""
    digits = _join(_leading_chunks(make_chunks, m + length), base)
    return digits[:m], digits[m:]


def periodic_stream(
    preperiod: Iterable[int], period: Iterable[int], base: Base = BASE4
) -> DigitStream:
    """Stream consisting of `preperiod` followed by `period` repeated forever.

    An empty period is refused first; then each part is range-checked once
    by `to_chunk`, the preperiod before the period, so the first bad digit
    is named. The two checked chunks are recorded on the stream as its
    (preperiod, period) pair, so `digit_at` and `stream_value` use them at
    once, and `eventual_period` gives them as tuples.
    After the preperiod, each chunk holds whole periods, twice as many as
    the chunk before, until a chunk reaches CHUNK_DIGITS digits.
    """
    if not isinstance(period, bytes):
        period = tuple(period)
    if not period:
        raise ValueError("period must be nonempty")
    return _tiled_stream(to_chunk(preperiod, base), to_chunk(period, base), base)


def _tiled_stream(head: Chunk, tile: Chunk, base: Base) -> DigitStream:
    """The stream of `head`, then `tile` repeated, which carries them as its
    pair and its shape; its restart passes over the chunks before a digit."""
    make = partial(_tiled_chunks, head, tile)
    return DigitStream(base, make, _period=(head, tile), _cycle=(len(head), len(tile), partial(_skip, make)))


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
    Consumers that read past the end see the stream simply stop.
    """
    data = to_chunk(digits, base)
    return DigitStream(base=base, make_chunks=lambda: iter((data,)))


def _split_denominator(q: int, s: int) -> tuple[int, int]:
    """(m, q') for a denominator q in base s.

    q' is the part of q coprime to s, and m is the number of steps
    t -> t / gcd(t, s) that take q to q': the preperiod length of every p/q
    in lowest terms. q' == 1 exactly when p/q terminates.

    While g = gcd(t, s) stays the same, each step divides t by g, so a run
    of such steps is the largest e with g**e dividing t. It is found by
    dividing by g, g**2, g**4, ... while they divide, then by the same
    powers on the way down: O(log e) big divisions instead of e gcd steps.
    Each new g is a proper divisor of the one before, so there are at most
    log2(s) runs.
    """
    m = 0
    while (g := math.gcd(q, s)) > 1:
        powers = [g]
        while True:
            quotient, rest = divmod(q, powers[-1])
            if rest:
                break
            q = quotient
            m += 1 << (len(powers) - 1)
            powers.append(powers[-1] ** 2)
        for i in range(len(powers) - 2, -1, -1):
            quotient, rest = divmod(q, powers[i])
            if not rest:
                q = quotient
                m += 1 << i
    return m, q


# Bound on the (q, s) pairs whose shape `_shape` keeps.
_SHAPE_CACHE_SIZE = 4096
# Widest power s**(m + L), in bits, that `_shape` keeps with a shape.
_SHAPE_POWER_BITS = 2**13


def _order(s: int, core: int, bound: int) -> int | None:
    """The multiplicative order of s modulo `core`, the least L >= 1 with
    s**L == 1 (mod core), when it is at most `bound`, else None. s and
    `core` must be coprime; the order of anything modulo 1 is 1.

    This is the only period-length search: L is the period of every p/q'
    in lowest terms. core divides s**L - 1 < s**L, so a core wider than
    `bound * s.bit_length()` bits has no order within the bound and is
    not searched. Otherwise L divides phi(core) < core, so L <= B =
    min(bound, core - 1) is looked for by baby-step giant-step (Shanks,
    1971) with width w = isqrt(B) + 1: the baby steps s**j, j < w, give
    L at once if it is below w, and are otherwise distinct; the giant
    steps s**(i*w), i = 1..w, then first meet a baby step s**j at the
    least i with a multiple of L in ((i-1)*w, i*w], which for L >= w is L
    itself, i*w - j. At most 2w multiplications, O(sqrt(B)).
    """
    if core.bit_length() > bound * s.bit_length():
        return None
    if core == 1:
        return 1
    width = math.isqrt(min(bound, core - 1)) + 1
    t = power = s % core
    baby = {1: 0}
    for j in range(1, width):
        if power == 1:
            return j  # j < width, so j <= B <= bound
        baby[power] = j
        power = power * t % core
    giant = power  # s**width
    for i in range(1, width + 1):
        if (j := baby.get(power)) is not None:
            return i * width - j if i * width - j <= bound else None
        power = power * giant % core
    return None


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape(q: int, s: int) -> tuple[int, int, int | None, int | None]:
    """(m, q', L, power) for a denominator q in base s: the preperiod length
    m and the part q' of q coprime to s from `_split_denominator`, the
    period length L, the order of s modulo q' (`_order`), or None when L is
    above _SHORT_PERIOD, and power = s**(m + L), which scales x to its first
    m + L digits, or None when L is None or power could be wider than
    _SHAPE_POWER_BITS.

    Memory: `expand` caches the shape of a q of at most _SHORT_PERIOD * b
    bits, b = s.bit_length(), so an entry holds at most 32*b bytes of q and
    1 KiB of power, besides a few hundred bytes of objects. With
    _SHAPE_CACHE_SIZE entries the cache stays under about 6 MB in base 4
    and 14 MB in base 2**64.
    """
    m, core = _split_denominator(q, s)
    length = _order(s, core, _SHORT_PERIOD)
    if length is None or (m + length) * s.bit_length() > _SHAPE_POWER_BITS:
        return m, core, length, None
    return m, core, length, s ** (m + length)


# For s = 2**k with k = 1, 2, 4: how many digits one byte holds, and the
# table from each byte value to those 8/k digits, most significant first
# (`product` lists the digit strings in the order of their values).
_BYTE_DIGITS = {
    1 << k: (8 // k, dict(enumerate(map(bytes, itertools.product(range(1 << k), repeat=8 // k)))))
    for k in (1, 2, 4)
}


def _base_digits(n: int, base: Base, count: int) -> Chunk:
    """The `count` base-s digits of 0 <= n < s**count, most significant
    first, as one chunk.

    For s = 2, 4 and 16, whose digits tile a byte, each byte of n's
    big-endian bytes is looked up in a 256-entry table of its digits by
    `codecs.charmap_encode` (Latin-1 decoding turns byte b into character
    b), and the surplus leading zeros of the first byte are cut: linear
    time, all in C. Every other base splits n in halves by `_split_digits`,
    so its cost is that of a few full-size divisions instead of `count`
    divmod steps on a `count`-digit integer.
    """
    s = base.s
    if (table := _BYTE_DIGITS.get(s)) is not None:
        per_byte, byte_digits = table
        raw = n.to_bytes(-(-count // per_byte), "big").decode("latin-1")
        out = codecs.charmap_encode(raw, "strict", byte_digits)[0]
        return out[len(out) - count :]
    wide = _wide(base)
    out = array("Q", bytes(8 * count)) if wide else bytearray(count)
    _split_digits(n, s, out, 0, count, {})
    return out if wide else bytes(out)


# At most this many digits are written by plain divmod steps; longer runs
# are split in halves first.
_DIGITS_LEAF = 64


def _split_digits(n: int, s: int, out, lo: int, hi: int, powers: dict[int, int]) -> None:
    """Write the hi - lo base-s digits of 0 <= n < s**(hi - lo) into
    out[lo:hi], most significant first. Like `_numeral` in the other
    direction, halving keeps the big-int divisions balanced; `powers`
    caches s**k across the recursion.
    """
    count = hi - lo
    if count <= _DIGITS_LEAF:
        for i in range(hi - 1, lo - 1, -1):
            n, out[i] = divmod(n, s)
        return
    low = count // 2
    if low not in powers:
        powers[low] = s**low
    high, rest = divmod(n, powers[low])
    _split_digits(high, s, out, lo, hi - low, powers)
    _split_digits(rest, s, out, hi - low, hi, powers)


# Longest chunk that `_long_division` divides out in a base whose digits
# `_split_digits` writes. It halves a chunk by big-int divisions, which are
# quadratic in CPython, so a long chunk costs more per digit: per 10**6
# base-10 digits, 0.9-1.1 s at 65536-digit chunks against 0.14-0.27 s at
# 1024. Chunks of 256 to 1024 digits gave the same trace times, within
# noise.
_SPLIT_CHUNK_DIGITS = 1024


def _long_division(r: int, base: Base, q: int, n: int) -> Iterator[Chunk]:
    """The base-s digits of r/q, 0 <= r < q, as chunks of n, 2n, ...
    digits: how every long-period `expand` stream computes its digits.

    The first chunk is one big-int division, value, r = divmod(r * s**n, q),
    whose quotient `_base_digits` writes out, so reading no further than it
    loads no numpy. Later chunks are such divisions too when s is 2 or 4,
    where they are faster than numpy, or when int64 cannot hold
    q * max(q, s), which bounds every product of int64 remainders; s**n is
    then computed only when n changes. Otherwise the k-th remainder
    r * s**k mod q comes from an int64 numpy array, filled by doubling (the
    second half of a prefix is its first half times s**len mod q), and its
    digit is that remainder times s, floor-divided by q. Chunks grow to
    CHUNK_DIGITS digits, or to _SPLIT_CHUNK_DIGITS for divisions that
    `_split_digits` writes out (every base but 2, 4 and 16).
    """
    s = base.s
    divide = s in (2, 4) or q * max(q, s) >= 2**63
    cap = CHUNK_DIGITS if s in _BYTE_DIGITS or not divide else _SPLIT_CHUNK_DIGITS
    power_n = power = None
    while True:
        if divide or power_n is None:  # the first chunk always divides
            if n != power_n:
                power_n, power = n, s**n
            value, r = divmod(r * power, q)
            yield _base_digits(value, base, n)
        else:
            import numpy as np

            rems = np.empty(n, dtype=np.int64)
            rems[0] = r
            have = 1
            while have < n:
                step = min(have, n - have)
                rems[have : have + step] = rems[:step] * pow(s, have, q) % q
                have += step
            yield chunk_from_array(rems * s // q, base)
            r = int(rems[-1]) * s % q
        n = min(2 * n, cap)


def expand(x: Fraction | int | str, base: Base = BASE4) -> DigitStream:
    """Canonical digit expansion of x in [0, 1].

    The stream's (preperiod, period) descriptor is minimal; terminating
    numbers get the period-(0) form, and the endpoints follow the
    convention 0 = .(0) and 1 = .(s-1). The expansion satisfies
    sum(a_k * s**-k) == x exactly, and preperiod + period length never
    exceeds the reduced denominator.

    x may be a Fraction, which is used as it is, or anything `Fraction`
    accepts; the range test and the x = 1 test compare the integers p and
    q of x = p/q. With q' the part of q coprime to s, the preperiod has m
    digits, the number of steps q -> q / gcd(q, s) that reach q', and the
    period L = ord_q'(s) digits (L = 1, period (0), when q' = 1). One
    lookup of `_shape` gives m and q' from `_split_denominator` in O(log m)
    big divisions, and L, when it is at most _SHORT_PERIOD, from `_order`
    in at most 34 modular multiplications, together with s**(m + L). Its
    cache holds _SHAPE_CACHE_SIZE (q, s) pairs, only for a q narrow enough
    to have a short period, so it stays small (`_shape` states its bound).

    When L <= _SHORT_PERIOD, the first m + L digits of x, the base-s
    digits of (p * s**(m + L)) // q that `_base_digits` writes out, are the
    preperiod and one period (the period's integer is r' * (s**L - 1) / q',
    with r'/q' the fractional part of x * s**m), and the stream records the
    pair at once; its chunks tile the period as `periodic_stream`'s do.
    Otherwise the stream is lazy: `_long_division` computes
    its digits, a first chunk of m + _SHORT_PERIOD and then longer ones.
    The stream's finder (see `DigitStream`) looks for L by `_order` in q'
    up to _MAX_PERIOD_DIGITS, in O(sqrt(_MAX_PERIOD_DIGITS)) modular
    multiplications and without reading a digit, and raises ValueError
    past it; a period it finds is the m + L digits that the stream's own
    chunks begin with. Its shape function (`DigitStream`'s `_cycle`)
    searches L up to a bound only for a q' with q' * max(q', s) < 2**63,
    and restarts the digits at any position k by long division from p *
    s**k mod q, whose first chunk holds CHUNK_DIGITS digits in bases 2, 4
    and 16 (`_base_digits` writes them in linear time) and _SHORT_PERIOD
    in the others.
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
    # A q too wide for a short period is not cached, so the cache stays small.
    shape = _shape if q.bit_length() <= _SHORT_PERIOD * s.bit_length() else _shape.__wrapped__
    m, core, length, power = shape(q, s)
    if length is not None:
        head = _base_digits(p * (power or s ** (m + length)) // q, base, m + length)
        # p < q, so `_base_digits` writes m + L digits in 0..s-1, and the
        # pair needs no range check.
        return _tiled_stream(head[:m], head[m:], base)
    _wide(base)  # refuses a base above 2**64 before any digit is computed
    make = partial(_long_division, p, base, q, m + _SHORT_PERIOD)

    def find() -> ChunkPair:
        if (length := _order(s, core, _MAX_PERIOD_DIGITS)) is None:
            raise ValueError(f"the period of {x} in base {s} is longer than {_MAX_PERIOD_DIGITS} digits")
        return _read_period(make, base, m, length)

    def cycle(most: int) -> Cycle | None:
        # Only a core whose products fit int64 is searched, in at most about
        # 2 * sqrt(most) word-size multiplications. The restart divides from
        # the remainder p * s**k mod q, whatever m and L are; in bases 2, 4
        # and 16 its first chunk is a whole window of CHUNK_DIGITS digits.
        if core * max(core, s) >= 2**63 or (length := _order(s, core, most - m)) is None:
            return None
        first = CHUNK_DIGITS if s in _BYTE_DIGITS else _SHORT_PERIOD
        return m, length, lambda k: _long_division(p * pow(s, k, q) % q, base, q, first)

    return DigitStream(base, make, _period=find, _cycle=cycle)


# Below this many digits a numeral is built whole instead of split. A leaf
# stays far under the 4300 digits that CPython's `int` accepts from a
# string in a base that is not a power of two.
_NUMERAL_LEAF = 128

# Digit values 0..35 to the characters `int` reads in bases up to 36; every
# other byte maps to "!", which `int` refuses.
_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"!")

# Power-of-two bases up to 36: `int` reads their numerals in linear time,
# and without the 4300-digit limit of the other bases.
_BINARY_NUMERAL_BASES = (2, 4, 8, 16, 32)


def _numeral(digits: Chunk, s: int, powers: dict[int, int] | None = None) -> int:
    """The integer whose base-s digits, most significant first, are `digits`.

    In bases 2, 4, 8, 16 and 32 it is one `int(text, s)` call on the digits
    translated to characters, all in C and in linear time. Other bases are
    halved, which keeps the big-int products balanced, so the cost is that
    of a few full-size multiplications instead of the quadratic `acc * s +
    d` loop. A leaf of at most _NUMERAL_LEAF digits is, for s <= 36, one
    `int(text, s)` call too; above base 36 it is that loop. `powers` caches
    s**k across the recursion.
    """
    n = len(digits)
    if n <= _NUMERAL_LEAF or s in _BINARY_NUMERAL_BASES:
        if s <= 36:
            return int(digits.translate(_ALNUM) or b"0", s)
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


def _power(s: int, n: int) -> int:
    """s**n, as a shift when s is a power of two."""
    return s**n if s & (s - 1) else 1 << (s.bit_length() - 1) * n


def _coprime_constructor() -> Callable[[int, int], Fraction]:
    """The Fraction n/d for coprime n and d > 0, made without the gcd that
    `Fraction(n, d)` runs on them. The standard library's constructor for
    this is private and changed name: `Fraction._from_coprime_ints` from
    Python 3.12 on, `Fraction(n, d, _normalize=False)` before it."""
    return getattr(Fraction, "_from_coprime_ints", None) or partial(Fraction, _normalize=False)


_from_coprime = _coprime_constructor()


def prefix_value(p: DigitPrefix) -> Fraction:
    """Exact partial sum sum_{k<=n} a_k * s**(-k) of a finite prefix.

    It is N / s**n, N the prefix's numeral (`_numeral`). For s = 2**k the
    fraction is reduced without a gcd: with t the number of trailing zero
    bits of N, it is (N >> t) / 2**(k*n - t), so a prefix in base 2, 4, 8,
    16 or 32 takes linear time. Other bases are reduced by `Fraction`.
    """
    s, n = p.base.s, len(p.chunk)
    numeral = _numeral(p.chunk, s)
    if s & (s - 1):
        return Fraction(numeral, s**n)
    bits = (s.bit_length() - 1) * n
    zeros = (numeral & -numeral).bit_length() - 1 if numeral else bits
    return _from_coprime(numeral >> zeros, 1 << bits - zeros)


def stream_value(stream: DigitStream) -> Fraction:
    """Exact limit value of an eventually periodic stream.

    Only streams carrying a (preperiod, period) descriptor have a value
    computable from finite data; anything else raises. With m = len(pre),
    L = len(per) and N the numeral of a digit string, the value is the
    single fraction (N(pre) * (s**L - 1) + N(per)) / (s**m * (s**L - 1)),
    reduced once by `Fraction`, since s**L - 1 is not a power of s. When s
    is a power of two its powers are shifts (`_power`).
    """
    if (pair := stream._chunk_pair()) is None:
        raise ValueError("stream value needs a (preperiod, period) descriptor")
    pre, per = pair
    s = stream.base.s
    cycle = _power(s, len(per)) - 1  # one period is worth N(per) / cycle
    return Fraction(_numeral(pre, s) * cycle + _numeral(per, s), _power(s, len(pre)) * cycle)


def dual_representation(p: DigitPrefix) -> DigitStream:
    """The companion expansion of a terminating number.

    Interprets p as the terminating expansion p(0), so p must be nonempty
    and end in a nonzero digit, and returns c_1 ... c_{k-1} [c_k - 1]
    followed by the constant maximal digit. Both expansions have the same
    exact value.
    """
    if len(p) == 0:
        raise ValueError("dual representation needs a nonempty prefix")
    if p.chunk[-1] == 0:
        raise ValueError("dual representation needs a prefix ending in a nonzero digit")
    pre = (*p.chunk[:-1], p.chunk[-1] - 1)
    return periodic_stream(pre, (p.base.s - 1,), p.base)


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
