"""The chunked stream path against per-digit oracles.

Each oracle below is the per-digit formula the chunked code replaces: the
greedy step rule, the block layout, the tiled period, the plain sequence
and long division with a table of seen remainders. Prefix lengths are
taken at the streams' own chunk edges, where an off-by-one would show.
"""

import hashlib
import itertools
import math
import re
import time
import tracemalloc
from array import array
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiclab import construct
from adiclab.construct import (
    ColumnSchedule,
    ProbabilityVector,
    ScheduleSpec,
    block_boundaries,
    block_stream,
    greedy_stream,
)
from adiclab import digits
from adiclab.cli import main
from adiclab.digits import (
    CHUNK_DIGITS,
    Base,
    DigitStream,
    expand,
    periodic_stream,
    prefix_value,
    stream_from_digits,
    stream_value,
    to_chunk,
)
from adiclab.stats import convergence_trace

BASES = st.one_of(st.integers(min_value=2, max_value=10), st.just(300))
# expand writes the digits of bases 2, 4 and 16 by a byte table and of every
# other base by halving; these add the other powers of two up to 256 to the
# 2, 4 and 8 in BASES.
POWER_OF_TWO_BASES = st.sampled_from([16, 32, 64, 128, 256])

# Denominators around the largest q with q * (CHUNK_DIGITS + 2) < 2**63:
# a column that took its floors from tau_i = p_i/q_i itself would overflow
# int64 past it. greedy_stream takes them from a convergent of tau_i
# instead, so these stay regression cases for any denominator-driven path.
INT64_LIMIT = (2**63 - 1) // (CHUNK_DIGITS + 2)
HUGE = 10**30 + 7
LARGE_DENOMINATORS = (INT64_LIMIT - 1, INT64_LIMIT, INT64_LIMIT + 1, 2**62 + 1, HUGE)


def greedy_oracle(tau: ProbabilityVector, n: int) -> tuple[int, ...]:
    nums = [t.numerator for t in tau.entries]
    dens = [t.denominator for t in tau.entries]
    prev = [p // q for p, q in zip(nums, dens)]
    out: list[int] = []
    k = 1
    while len(out) < n:
        for i, (p, q) in enumerate(zip(nums, dens)):
            nxt = (p * (k + 1)) // q
            if nxt != prev[i]:
                out.append(i)
                prev[i] = nxt
        k += 1
    return tuple(out[:n])


def block_oracle(columns: ColumnSchedule, spec: ScheduleSpec, n: int) -> tuple[int, ...]:
    out: list[int] = []
    k = 1
    while len(out) < n:
        for i, t in enumerate(columns.column(k).entries):
            out.extend([i] * math.floor(t * spec.term(k)))
        k += 1
    return tuple(out[:n])


def periodic_oracle(pre, per, n: int) -> tuple[int, ...]:
    return tuple(itertools.islice(itertools.chain(pre, itertools.cycle(per)), n))


def division_oracle(x: Fraction, s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of x in base s by long division that stops at
    the first remainder seen before: O(q) time and memory."""
    if x == 1:
        return (), (s - 1,)
    q, rem = x.denominator, x.numerator
    out: list[int] = []
    seen: dict[int, int] = {}
    while rem not in seen:
        seen[rem] = len(out)
        d, rem = divmod(rem * s, q)
        out.append(d)
    start = seen[rem]
    return tuple(out[:start]), tuple(out[start:])


def long_division(x: Fraction, s: int, n: int) -> tuple[int, ...]:
    """The first n digits of x < 1 in base s, one divmod each."""
    q, rem = x.denominator, x.numerator
    out = []
    for _ in range(n):
        d, rem = divmod(rem * s, q)
        out.append(d)
    return tuple(out)


def sha256_of(values) -> str:
    """Digest of a sequence of ints written as comma-separated decimals."""
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def edge_lengths(stream, chunks: int = 3) -> list[int]:
    """1 and the lengths just around the stream's first chunk boundaries."""
    ends = list(itertools.accumulate(len(c) for c in itertools.islice(stream.make_chunks(), chunks)))
    return sorted({n for end in ends for n in (end - 1, end, end + 1) if n >= 1} | {1})


@st.composite
def vectors(draw, s: int, max_den: int = 30) -> ProbabilityVector:
    weights = draw(st.lists(st.integers(min_value=0, max_value=max_den), min_size=s, max_size=s))
    if sum(weights) == 0:
        weights[draw(st.integers(min_value=0, max_value=s - 1))] = 1
    total = sum(weights)
    return ProbabilityVector(tuple(Fraction(w, total) for w in weights))


def kernel_stream(tau: ProbabilityVector) -> DigitStream:
    """The greedy stream of tau from the chunk kernel, whatever its period:
    `greedy_stream` tiles one period instead when it is short."""
    base = Base(tau.s)
    return DigitStream(base, partial(construct._greedy_chunks, tau, base))


def assert_matches(stream, oracle):
    lengths = edge_lengths(stream)
    want = oracle(lengths[-1])
    for n in lengths:
        assert stream.prefix(n).digits == want[:n], n
    assert tuple(itertools.islice(stream.iter_digits(), len(want))) == want
    assert stream.digit_at(len(want)) == want[-1]


class TestGreedyChunks:
    @settings(max_examples=25)
    @given(st.data(), BASES)
    def test_prefix_matches_step_formula(self, data, s):
        tau = data.draw(vectors(s))
        assert_matches(kernel_stream(tau), lambda n: greedy_oracle(tau, n))

    @pytest.mark.parametrize(
        "tau",
        [ProbabilityVector((Fraction(q // 3, q), Fraction(1, q), 1 - Fraction(q // 3 + 1, q))) for q in LARGE_DENOMINATORS]
        + [ProbabilityVector((Fraction(1, 2) - Fraction(1, HUGE), Fraction(1, 3), Fraction(1, 6) + Fraction(1, HUGE)))],
        ids=["below", "at", "above", "far-above", "huge", "mixed"],
    )
    def test_large_denominators_on_both_sides_of_int64(self, tau):
        stream = kernel_stream(tau)
        # Steps through the first chunk of full size (256 doubling to CHUNK_DIGITS).
        steps = sum(min(256 << k, CHUNK_DIGITS) for k in range(9))
        n = sum(math.floor(t * (steps + 1)) - math.floor(t) for t in tau.entries)
        assert stream.prefix(n).digits == greedy_oracle(tau, n)

    def test_cost_follows_the_digits(self):
        # Two nonzero entries in base 4096: a chunk costs a few passes over
        # the columns plus its digits, not a (steps x s) table, which is
        # 16 MB by the chunk of 4096 steps.
        tau = ProbabilityVector((Fraction(1, 3), *[Fraction(0)] * 4094, Fraction(2, 3)))
        tracemalloc.start()
        try:
            prefix = kernel_stream(tau).prefix(4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # The digits are those of (1/3, 2/3), with digit 1 written as 4095.
        pair = greedy_oracle(ProbabilityVector((Fraction(1, 3), Fraction(2, 3))), 4000)
        assert prefix.digits == tuple(4095 * d for d in pair)

    def test_zero_columns_start_settled(self, monkeypatch):
        # The base-300 vector of `--mean 1/2` has 15 nonzero entries over
        # D = 2**23; the kernel's first chunk finds the convergents of those
        # 15 columns only, not of all 300.
        calls = []
        convergent = construct._convergent
        monkeypatch.setattr(construct, "_convergent", lambda *args: calls.append(args) or convergent(*args))
        tau, _ = construct._mean_vector(Fraction(1, 2), Base(300))
        assert math.lcm(*(t.denominator for t in tau.entries)) == 2**23
        next(kernel_stream(tau).make_chunks())
        assert len(calls) == sum(map(bool, tau.entries)) == 15


def convergent_denominators(x: Fraction) -> list[int]:
    """The denominators q_k of the continued-fraction convergents of x."""
    p, q = x.numerator, x.denominator
    k0, k1, out = 1, 0, []
    while q:
        a, (p, q) = p // q, (q, p % q)
        k0, k1 = k1, a * k1 + k0
        out.append(k1)
    return out


# The greedy steps in the first four chunks: 256 + 512 + 1024 + 2048.
FOUR_CHUNK_STEPS = 3840


@st.composite
def wide_vectors(draw) -> ProbabilityVector:
    """tau over one denominator of 40 to 4200 bits, in bases 2 to 5."""
    s = draw(st.integers(min_value=2, max_value=5))
    bits = draw(st.integers(min_value=40, max_value=4200))
    den = draw(st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=den), min_size=s - 1, max_size=s - 1)))
    return ProbabilityVector(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))


def near_rational(p_over_q: Fraction, k: int, sign: int, s: int) -> ProbabilityVector:
    """tau_0 = p/q + sign/(q * 7**k), the rest of the mass over s - 1 digits."""
    head = p_over_q + Fraction(sign, p_over_q.denominator * 7**k)
    rest = [(1 - head) * w / sum(range(1, s)) for w in range(1, s)]
    return ProbabilityVector((head, *rest))


NEAR_RATIONALS = st.builds(
    near_rational,
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(5, 12)]),
    st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=7, max_value=1500)),
    st.sampled_from([1, -1]),
    st.integers(min_value=2, max_value=5),
)


class TestWideGreedyColumns:
    """Greedy columns of any denominator, whose floors come from one
    continued-fraction convergent per chunk, against the step formula."""

    @given(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=2 * 10**12),
    )
    def test_convergent_of_an_unreduced_fraction(self, q, p, g, n):
        # The kernel gives `_convergent` a column's n_i over the vector's D,
        # which need not be in lowest terms with n_i alone.
        x = Fraction(min(p, q), q)
        p, q = x.numerator, x.denominator
        got = construct._convergent(g * p, g * q, n)
        assert got == construct._convergent(p, q, n)
        if n >= q:
            assert got == (p, q, math.inf)
        else:
            assert got[1] <= n < got[2] and got[1] in convergent_denominators(x)

    @settings(max_examples=40)
    @given(st.one_of(wide_vectors(), NEAR_RATIONALS))
    def test_matches_the_oracle_at_chunk_edges_and_convergents(self, tau):
        stream = kernel_stream(tau)
        # Every chunk edge, and the stream lengths after the steps around
        # each convergent denominator the first four chunks reach, where a
        # column moves to its next convergent.
        steps = {
            q + d
            for t in tau.entries
            for q in convergent_denominators(t)
            if q <= FOUR_CHUNK_STEPS
            for d in (-1, 0, 1)
        }
        lengths = set(edge_lengths(stream, 4)) | {
            sum(math.floor(t * n) - math.floor(t) for t in tau.entries) for n in steps - {0}
        }
        want = greedy_oracle(tau, max(lengths))
        for n in sorted(lengths):
            assert stream.prefix(n).digits == want[:n], n

    @pytest.mark.parametrize(
        "tau",
        [near_rational(Fraction(1, 3), 3, 1, 4), near_rational(Fraction(2, 7), 3, -1, 3)]
        + [near_rational(Fraction(2, 7), 2, sign, 2) for sign in (1, -1)]
        # 769 is the second chunk end, and the convergent before 251/769,
        # 47/144, lies below it: kept one chunk too long, it would floor
        # 769 * tau_0 = 251 to 250.
        + [ProbabilityVector((Fraction(251, 769), Fraction(518, 769)))],
        ids=[
            "third-k3-above",
            "two-sevenths-k3-below",
            "two-sevenths-k2-above",
            "two-sevenths-k2-below",
            "at-a-chunk-end",
        ],
    )
    def test_chunks_on_both_sides_of_a_convergent_change(self, tau):
        # The first column's denominator lies past the first chunk end
        # (step 257) and inside the first four chunks, so that column
        # changes convergent mid-stream.
        assert 257 < tau.entries[0].denominator <= FOUR_CHUNK_STEPS
        stream = kernel_stream(tau)
        lengths = edge_lengths(stream, 4)
        want = greedy_oracle(tau, lengths[-1])
        for n in lengths:
            assert stream.prefix(n).digits == want[:n], n

    @pytest.mark.parametrize(
        "start, dtype",
        [
            (construct._INT64_STEPS - 1000, "int64"),
            (construct._INT64_STEPS - 999, "object"),
            (3_100_000_000, "object"),
        ],
        ids=["last-int64", "first-object", "past-the-bound"],
    )
    @pytest.mark.parametrize(
        "t",
        [
            Fraction(1, 3),
            Fraction(2**4199 + 12345, 2**4200 + 1),
            Fraction(1, 3) - Fraction(1, 3 * 7**1500),
            # p' = q' - 1 = 3_099_999_999 from the 3.1e9 start on, so the
            # products k*p' and m*q' there (about 9.6e18) pass 2**63.
            Fraction(3_099_999_999, 3_100_000_000),
        ],
        ids=["third", "wide", "near-third", "near-one"],
    )
    def test_column_step_past_the_int64_bound(self, start, dtype, t):
        # Steps near 3.1e9 without iterating to them: the kernel at a late
        # start against exact big-int increments, on both sides of the
        # bound where its arithmetic leaves int64. Column 0 is tau = 1,
        # which emits one digit at every step, so the digits show the step
        # of each copy of column 1, tau = t. The near-one t is the case
        # whose int64 products wrap past the bound.
        end = start + 1000
        assert (end <= construct._INT64_STEPS) == (dtype == "int64")
        taus = [Fraction(1), t]
        p, q = zip(*(construct._convergent(u.numerator, u.denominator, end)[:2] for u in taus))
        c = [int(u.numerator * qu < pu * u.denominator) for u, pu, qu in zip(taus, p, q)]
        digits = construct._greedy_digits(np.array(p), np.array(q), np.array(c), start, end)
        exact = [
            i
            for n in range(start, end)
            for i, u in enumerate(taus)
            for _ in range(math.floor(u * (n + 1)) - math.floor(u * n))
        ]
        assert digits.tolist() == exact

    def test_cli_construct_with_wide_tau(self, tmp_path):
        # 4200-bit denominators through `adiclab construct`, written as
        # exact fractions: the artifact holds the step formula's digits.
        tiny = Fraction(1, 7**1500)
        tau = ProbabilityVector((tiny, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4) - tiny))
        out = tmp_path / "wide.txt"
        argv = ["construct", "--tau", ",".join(tau.as_strings()), "--length", "100000", "--out", str(out)]
        assert main(argv) == 0
        header, text = out.read_text().splitlines()
        assert header.startswith("# adiclab ")
        assert tuple(map(int, text)) == greedy_oracle(tau, 100_000)


def wide_base_vector(entries: dict[int, Fraction], s: int) -> ProbabilityVector:
    """The vector with the given entries at their digits and 0 elsewhere."""
    return ProbabilityVector(tuple(entries.get(i, Fraction(0)) for i in range(s)))


def relabelled(small: ProbabilityVector, labels: tuple[int, ...], s: int) -> ProbabilityVector:
    """`small` in base s, its digit j written as labels[j]."""
    return wide_base_vector(dict(zip(labels, small.entries)), s)


def rest_of_one(*entries: Fraction) -> ProbabilityVector:
    """The vector of `entries`, then 1 less their sum."""
    return ProbabilityVector((*entries, 1 - sum(entries)))


# The (k, end) of the chunks that a long-period greedy stream computes in
# exact ints: 256 steps doubling to 8192, 16128 steps in all, the last
# ending at step 16129. The kernel takes up from there with 16384 steps.
PURE_CHUNKS = [(1, 257), (257, 769), (769, 1793), (1793, 3841), (3841, 7937), (7937, 16129)]
FIRST_KERNEL_CHUNK = (16129, 32513)

THIRDS = rest_of_one(Fraction(1, 3) - Fraction(1, 65537), Fraction(1, 3))
SWITCH_CASES = {
    "base-2": (ProbabilityVector((Fraction(30001, 65537), Fraction(35536, 65537))), None),
    # 20011 lies in (2**14, 2**15): the kernel's column 0 moves from a
    # convergent of denominator below 16129 to 5000/20011 itself at the switch.
    "base-3-convergent": (rest_of_one(Fraction(5000, 20011), Fraction(1, 7)), None),
    "base-4-mean": (construct._mean_vector(Fraction(242716, 161703), Base(4))[0], None),
    "base-10": (rest_of_one(Fraction(0), *(Fraction(1, q) for q in (11, 13, 17, 19, 23, 29, 31, 37))), None),
    # Three nonzero columns, checked against the oracle of the base-3 vector.
    "base-300": (relabelled(THIRDS, (0, 150, 299), 300), (THIRDS, (0, 150, 299))),
    # A one-digit vector has period 1, so greedy_stream tiles it; its chunk
    # factory is driven directly.
    "tau-i-is-1": (wide_base_vector({2: Fraction(1)}, 4), None),
}


class TestPureSteps:
    """A long-period greedy stream computes the chunks that end by step
    2**14 in exact ints, without numpy, and the rest with the kernel."""

    @pytest.mark.parametrize("tau, small", SWITCH_CASES.values(), ids=SWITCH_CASES.keys())
    def test_streams_agree_across_the_switch(self, tau, small, monkeypatch):
        base = Base(tau.s)
        exact, kernel_chunks = [], []
        steps, digits_of = construct._greedy_steps, construct._greedy_digits
        monkeypatch.setattr(construct, "_greedy_steps", lambda t, k, end, b: exact.append((k, end)) or steps(t, k, end, b))
        monkeypatch.setattr(
            construct, "_greedy_digits", lambda p, q, c, k, end: kernel_chunks.append((k, end)) or digits_of(p, q, c, k, end)
        )
        if period_of(tau) > CHUNK_DIGITS:
            stream = greedy_stream(tau)
        else:
            stream = DigitStream(base, partial(construct._pure_then_kernel, tau, base))
        kernel = kernel_stream(tau)
        # Around every chunk end up to that of the first kernel chunk.
        lengths = edge_lengths(stream, len(PURE_CHUNKS) + 1)
        assert lengths == edge_lengths(kernel, len(PURE_CHUNKS) + 1)
        if small is None:
            want = greedy_oracle(tau, lengths[-1])
        else:
            vector, labels = small
            want = tuple(labels[d] for d in greedy_oracle(vector, lengths[-1]))
        for n in lengths:
            assert stream.prefix(n).digits == want[:n], n
            assert kernel.prefix(n).digits == want[:n], n
        # One pass over the chunks: six exact ones, then the kernel.
        exact.clear()
        kernel_chunks.clear()
        list(itertools.islice(stream.make_chunks(), len(PURE_CHUNKS) + 1))
        assert exact == PURE_CHUNKS
        assert kernel_chunks == [FIRST_KERNEL_CHUNK]

    @pytest.mark.parametrize("nonzero", [256, 257])
    def test_more_than_256_columns_run_the_kernel_from_step_1(self, nonzero, monkeypatch):
        # Base 300 over D = 65537: the period is over CHUNK_DIGITS digits.
        tau = ProbabilityVector.from_numerators([1] * (nonzero - 1) + [65537 - nonzero + 1] + [0] * (300 - nonzero), 65537)
        assert period_of(tau) > CHUNK_DIGITS
        exact = []
        steps = construct._greedy_steps
        monkeypatch.setattr(construct, "_greedy_steps", lambda t, k, end, b: exact.append((k, end)) or steps(t, k, end, b))
        stream = greedy_stream(tau)
        lengths = edge_lengths(stream, 2)
        want = greedy_oracle(tau, lengths[-1])
        for n in lengths:
            assert stream.prefix(n).digits == want[:n], n
        assert bool(exact) == (nonzero <= 256)


@st.composite
def short_period_vectors(draw) -> ProbabilityVector:
    """tau over one denominator D, so that its period L divides D, in bases
    2, 3, 4, 10 and 300. The oracle costs s per step, so D shrinks as s
    grows."""
    s = draw(st.sampled_from([2, 3, 4, 10, 300]))
    den = draw(st.integers(min_value=1, max_value=3000 if s <= 4 else 600 if s == 10 else 40))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=den), min_size=s - 1, max_size=s - 1)))
    return ProbabilityVector(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))


def period_of(tau: ProbabilityVector) -> int:
    """L, the lcm of the denominators of tau."""
    return math.lcm(*(t.denominator for t in tau.entries))


class TestGreedyPeriod:
    """A greedy stream whose period L is at most CHUNK_DIGITS tiles one
    period, built without the kernel; a longer one runs the kernel, and
    finds its period, the kernel's first L digits, when it is first read."""

    @settings(max_examples=40, deadline=None)
    @given(short_period_vectors())
    def test_period_kernel_and_oracle_agree(self, tau):
        stream, kernel = greedy_stream(tau), kernel_stream(tau)
        length = period_of(tau)
        assert stream.eventual_period is not None
        assert len(stream.eventual_period[1]) == length
        lengths = {2 * length + 1, *edge_lengths(stream), *edge_lengths(kernel)}
        want = greedy_oracle(tau, max(lengths))
        for n in sorted(lengths):
            assert stream.prefix(n).digits == want[:n], n
            assert kernel.prefix(n).digits == want[:n], n
        assert stream.digit_at(max(lengths)) == want[-1]

    @pytest.mark.parametrize(
        "tau, periodic",
        [
            (ProbabilityVector((Fraction(1, 65536), Fraction(65535, 65536))), True),
            (ProbabilityVector((Fraction(1, 65537), Fraction(65536, 65537))), False),
            (ProbabilityVector.parse(f"1/4,1/3,{Fraction(5, 12) - Fraction(1, 2**14)},1/{2**14}"), True),
            (ProbabilityVector.parse(f"1/4,1/3,{Fraction(5, 12) - Fraction(1, 2**15)},1/{2**15}"), False),
        ],
        ids=["65536-base-2", "65537-base-2", "49152-base-4", "98304-base-4"],
    )
    def test_both_sides_of_the_chunk_length(self, tau, periodic):
        length = period_of(tau)
        assert (length <= CHUNK_DIGITS) == periodic
        stream = greedy_stream(tau)
        # The short side holds its period from the start, the long side a
        # finder, so its first prefix is read from the kernel.
        assert isinstance(stream._period, tuple) == periodic
        n = 2 * length + 1
        want = greedy_oracle(tau, n)
        assert stream.prefix(n).digits == want
        assert kernel_stream(tau).prefix(n).digits == want
        assert stream.eventual_period == ((), want[:length])
        assert stream.prefix(n).digits == want

    def test_denominator_in_lowest_terms(self, monkeypatch):
        # 65537/131074 is 1/2: the vector's D is 2, not 131074 (past
        # CHUNK_DIGITS), so the stream tiles a period of two digits.
        monkeypatch.setattr(construct, "_greedy_digits", lambda *args: pytest.fail("a kernel chunk ran"))
        tau = ProbabilityVector.from_numerators([65537, 65537], 131074)
        assert (tau.numerators, tau.denominator) == ((1, 1), 2)
        assert greedy_stream(tau).eventual_period == ((), (0, 1))

    def test_no_period_past_the_cap(self, monkeypatch):
        # L is the lcm of the denominators; one past the cap gives no finder.
        monkeypatch.setattr(construct, "_MAX_PERIOD_DIGITS", 65537)
        at_cap = greedy_stream(ProbabilityVector((Fraction(1, 65537), Fraction(65536, 65537))))
        assert len(at_cap.eventual_period[1]) == 65537
        for over in ("1/65538,65537/65538", "1/2,1/65537,65535/131074"):
            stream = greedy_stream(ProbabilityVector.parse(over))
            assert stream.eventual_period is None
            with pytest.raises(ValueError, match="needs a \\(preperiod, period\\) descriptor"):
                stream_value(stream)

    def test_value_and_far_digits(self):
        tau = ProbabilityVector.parse("1/2,1/3,1/6,0")
        stream = greedy_stream(tau)
        assert stream.eventual_period == ((), (0, 1, 0, 0, 1, 2))
        assert stream_value(stream) == Fraction(262, 4095)
        for tau in (
            tau,
            ProbabilityVector.parse("1/7,3/8,27/56"),
            ProbabilityVector.parse("1/65536,65535/65536"),
            ProbabilityVector.parse("1/65537,65536/65537"),
        ):
            period = greedy_oracle(tau, period_of(tau))
            stream = greedy_stream(tau)
            for k in (1, 10**12, 10**12 + 1, 3**40):
                assert stream.digit_at(k) == period[(k - 1) % len(period)], (tau, k)
            assert stream.eventual_period == ((), period)
            s = tau.s
            numeral = int("".join(map(str, period)), s)
            assert stream_value(stream) == Fraction(numeral, s ** len(period) - 1), tau


def count_column_work(monkeypatch) -> dict:
    """Counts, from now on, of the per-block work a column rule can cost:
    `ProbabilityVector`s built by the plain constructor (a common-denominator
    search over every entry) and vector means evaluated (a Fraction product
    per entry)."""
    work = {"vectors": 0, "means": 0}
    init, mean = ProbabilityVector.__init__, ProbabilityVector.__dict__["_mean"]
    compute_mean = mean.func

    def counted_init(self, entries):
        work["vectors"] += 1
        init(self, entries)

    def counted_mean(self):
        work["means"] += 1
        return compute_mean(self)

    monkeypatch.setattr(ProbabilityVector, "__init__", counted_init)
    monkeypatch.setattr(mean, "func", counted_mean)
    return work


class TestBlockChunks:
    @settings(max_examples=40)
    @given(st.data(), st.integers(min_value=2, max_value=10), st.sampled_from([1, 2]))
    def test_prefix_matches_block_layout(self, data, s, degree):
        columns = ColumnSchedule.constant(data.draw(vectors(s)))
        spec = ScheduleSpec.polynomial(degree)
        assert_matches(block_stream(columns, spec, Base(s)), lambda n: block_oracle(columns, spec, n))

    def test_base_300(self):
        # Every block re-checks a 300-entry column, so one sparse vector
        # stands in for a Hypothesis sweep here.
        tau = ProbabilityVector((Fraction(1, 3),) + (Fraction(0),) * 298 + (Fraction(2, 3),))
        columns, spec = ColumnSchedule.constant(tau), ScheduleSpec.polynomial(2)
        assert_matches(block_stream(columns, spec, Base(300)), lambda n: block_oracle(columns, spec, n))

    def test_base_300_uniform_column(self, monkeypatch):
        # A 300-entry column's mean once cost one Fraction product per entry
        # and block: 0.7-1 s for these 20000 digits (about 370 blocks) on a
        # 2-vCPU x86-64 machine. The constant column is built, and its mean
        # taken, once, before the stream starts.
        tau = ProbabilityVector((Fraction(1, 300),) * 300)
        columns, spec = ColumnSchedule.constant(tau), ScheduleSpec.polynomial(1)
        work = count_column_work(monkeypatch)
        got = block_stream(columns, spec, Base(300)).prefix(20000).digits
        assert work == {"vectors": 0, "means": 0}
        assert got == block_oracle(columns, spec, 20000)

    @pytest.mark.parametrize(
        "rate, digits_sha, boundaries_sha",
        [
            (
                "harmonic",
                "29127cf964a4391ef4efcb2d6b1118e0022c3da4fc07319a09bc40e441ae31f9",
                "74729189dd1d9084294a25ada2333ea68d239bee90ddc3b12ca138814c802dad",
            ),
            (
                "quadratic",
                "61f919eb19de094ae52e60fa01dc6a7f6e56a2adf870494896c01a7eb2112e47",
                "e05e94701c9f3b2140e2e1c7a8b75559bad0076c9ffe63e7be60d9dc8777ad63",
            ),
        ],
        ids=["harmonic", "quadratic"],
    )
    def test_base_300_converging_columns(self, rate, digits_sha, boundaries_sha, monkeypatch):
        # A converging column once cost 300 Fraction products and a
        # Fraction-checked vector per block: about 1 s for these 20000 digits
        # (about 370 blocks) on a 2-vCPU x86-64 machine. Its columns now come
        # from integer numerators, with no vector search and no mean. The
        # digests are those of that code.
        tau = ProbabilityVector((Fraction(1, 300),) * 300)
        columns, spec = ColumnSchedule.converging(tau, 0, rate), ScheduleSpec.polynomial(1)
        work = count_column_work(monkeypatch)
        got = block_stream(columns, spec, Base(300)).prefix(20000).digits
        assert work == {"vectors": 0, "means": 0}
        assert sha256_of(got) == digits_sha
        assert sha256_of(block_boundaries(columns, spec, 20000)) == boundaries_sha

    def test_long_runs_are_split(self):
        columns = ColumnSchedule.converging(ProbabilityVector.parse("1/2,1/4,1/4,0"), 3)
        spec = ScheduleSpec.affine(200_000)
        stream = block_stream(columns, spec)
        sizes = [len(c) for c in itertools.islice(stream.make_chunks(), 12)]
        assert max(sizes) == CHUNK_DIGITS
        n = sum(sizes)
        assert stream.prefix(n).digits == block_oracle(columns, spec, n)


class TestPeriodicChunks:
    @settings(max_examples=60)
    @given(st.data(), BASES)
    def test_prefix_matches_tiled_period(self, data, s):
        digit = st.integers(min_value=0, max_value=s - 1)
        pre = data.draw(st.lists(digit, max_size=5))
        per = data.draw(st.lists(digit, min_size=1, max_size=7))
        stream = periodic_stream(pre, per, Base(s))
        assert_matches(stream, lambda n: periodic_oracle(pre, per, n))

    def test_chunks_reach_full_size(self):
        stream = periodic_stream((1,), (0, 2, 3))
        sizes = [len(c) for c in itertools.islice(stream.make_chunks(), 20)]
        assert sizes[:4] == [1, 3, 6, 12]
        assert CHUNK_DIGITS <= sizes[-1] < 2 * CHUNK_DIGITS
        n = sum(sizes)
        assert stream.prefix(n).digits == periodic_oracle((1,), (0, 2, 3), n)


class TestDigitSequences:
    @settings(max_examples=40)
    @given(st.data(), BASES)
    def test_ints_and_bytes_give_the_same_stream(self, data, s):
        digits = data.draw(st.lists(st.integers(min_value=0, max_value=min(s, 256) - 1), min_size=1, max_size=300))
        for source in (digits, tuple(digits), bytes(digits)):
            stream = stream_from_digits(source, Base(s))
            assert stream.prefix(len(digits)).digits == tuple(digits)
            assert [stream.digit_at(k) for k in (1, len(digits))] == [digits[0], digits[-1]]

    @pytest.mark.parametrize(
        "s, bad",
        [(4, (0, 4)), (4, (-1,)), (4, (1.0,)), (4, bytes([1, 7])), (300, (300,)), (300, (-2,)), (2, "01")],
    )
    def test_out_of_range_digits_are_refused(self, s, bad):
        with pytest.raises(ValueError, match="out of range"):
            stream_from_digits(bad, Base(s))

    def test_bases_beyond_64_bits_are_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            periodic_stream((), (1,), Base(2**64 + 1))
        assert periodic_stream((), (2**64 - 1,), Base(2**64)).prefix(2).digits == (2**64 - 1,) * 2


class TestChunkedTally:
    @settings(max_examples=40)
    @given(st.data(), BASES)
    def test_counts_match_a_per_digit_tally(self, data, s):
        digits = data.draw(st.lists(st.integers(min_value=0, max_value=s - 1), min_size=1, max_size=400))
        points = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=len(digits)), min_size=1)))
        trace = convergence_trace(stream_from_digits(digits, Base(s)), points)
        for n, report in zip(points, trace.reports):
            assert report.counts == tuple(digits[:n].count(i) for i in range(s))

    def test_checkpoints_across_chunk_edges(self):
        tau = ProbabilityVector.parse("1/2,1/3,1/6,0")
        stream = kernel_stream(tau)
        points = edge_lengths(stream, 4)
        digits = greedy_oracle(tau, points[-1])
        trace = convergence_trace(stream, points)
        for n, report in zip(points, trace.reports):
            assert report.counts == tuple(digits[:n].count(i) for i in range(4))


# The largest q for which expand's remainder arithmetic can run in int64
# (q * max(q, s) < 2**63, with s <= q), as it does in bases other than 2
# and 4; above it, every base divides big ints.
INT64_REMAINDERS = math.isqrt(2**63 - 1)
EXPAND_EDGES = (1, 255, 256, 257, CHUNK_DIGITS - 1, CHUNK_DIGITS, CHUNK_DIGITS + 1)
# 3001 bits: every long division by it is a big-int division.
WIDE_DENOMINATOR = 3**1893 + 2


def smallest_prime_factor(s: int) -> int:
    return next(p for p in range(2, s + 1) if s % p == 0)


@st.composite
def expand_cases(draw):
    """(x, s): denominators with periods around the 256-digit short path
    (s**L - 1 has period L), ordinary ones, and 1 (terminating x), each
    times a power of a prime factor of s, which adds a preperiod."""
    s = draw(st.one_of(BASES, POWER_OF_TWO_BASES))
    core = draw(
        st.one_of(
            st.just(1),
            st.sampled_from([254, 255, 256, 257, 258]).map(lambda length: s**length - 1),
            st.integers(min_value=2, max_value=10**5),
        )
    )
    q = core * smallest_prime_factor(s) ** draw(st.integers(min_value=0, max_value=9))
    return Fraction(draw(st.integers(min_value=0, max_value=q)), q), s


def count_tail_chunks(monkeypatch) -> list[int]:
    """A one-entry list that counts the chunks, the first one included,
    that lazy `expand` streams made from now on compute: every chunk comes
    from `_long_division`, whether by a big-int division or from an int64
    remainder array."""
    count = [0]
    long_division = digits._long_division

    def counted(*args):
        for chunk in long_division(*args):
            count[0] += 1
            yield chunk

    monkeypatch.setattr(digits, "_long_division", counted)
    return count


class TestExpandChunks:
    @settings(max_examples=60, deadline=None)
    @given(expand_cases(), st.sampled_from(EXPAND_EDGES))
    def test_matches_the_division_oracle(self, case, n):
        x, s = case
        pre, per = division_oracle(x, s)
        stream = expand(x, Base(s))
        for length in {n, *edge_lengths(stream)}:
            assert stream.prefix(length).digits == periodic_oracle(pre, per, length), length
        assert stream.eventual_period == (pre, per)
        assert stream_value(stream) == x

    @pytest.mark.parametrize("s", [2, 3, 4, 10, 300])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_both_sides_of_int64(self, s, side):
        # core * s**j lands just below, or just above, the int64 limit. The
        # core's period, 509 or 1018 digits in these bases, is past the
        # short path and still cheap for the oracle.
        core = 1019
        j = 0
        while core * s ** (j + 1) <= INT64_REMAINDERS:
            j += 1
        q = core * s ** (j if side == "below" else j + 1)
        p = q // 3
        while math.gcd(p, q) > 1:
            p += 1
        x = Fraction(p, q)
        pre, per = division_oracle(x, s)
        assert len(per) > 256
        stream = expand(x, Base(s))
        assert stream.eventual_period == (pre, per)
        assert stream.prefix(CHUNK_DIGITS + 1).digits == periodic_oracle(pre, per, CHUNK_DIGITS + 1)

    @pytest.mark.parametrize(
        "q", [INT64_REMAINDERS - 1, INT64_REMAINDERS, INT64_REMAINDERS + 1, 2**64 - 59, WIDE_DENOMINATOR]
    )
    @pytest.mark.parametrize("s", [2, 3, 4, 8, 10, 16, 256, 300, 2**16, 2**64])
    def test_large_denominators_at_the_int64_limit(self, q, s):
        x = Fraction(2 * q // 3, q)
        stream = expand(x, Base(s))
        want = long_division(x, s, CHUNK_DIGITS + 1)
        for n in EXPAND_EDGES:
            assert stream.prefix(n).digits == want[:n], n

    def test_wide_denominators_divide_in_short_chunks(self, monkeypatch):
        # In base 10 each chunk is one big-int division, and halving writes
        # out its digits, so chunks stop growing at _SPLIT_CHUNK_DIGITS: the
        # quadratic halving stays near-linear. The counter sees every chunk,
        # the 256-digit first one included.
        written = []
        base_digits = digits._base_digits

        def counted(n, base, count):
            written.append(count)
            return base_digits(n, base, count)

        monkeypatch.setattr(digits, "_base_digits", counted)
        computed = count_tail_chunks(monkeypatch)
        stream = expand(Fraction(1, 3**2000 + 2), Base(10))
        assert len(stream.prefix(CHUNK_DIGITS + 1)) == CHUNK_DIGITS + 1
        cap = digits._SPLIT_CHUNK_DIGITS
        assert cap == 1024
        full = -(-(CHUNK_DIGITS + 1 - 256 - 512) // cap)
        assert written == [256, 512] + [cap] * full
        assert computed == [2 + full]

    @pytest.mark.parametrize("s", [4, 10])
    def test_the_chunk_counter_sees_each_producer(self, s, monkeypatch):
        # Base 4 divides big ints, base 10 fills int64 remainder arrays.
        computed = count_tail_chunks(monkeypatch)
        stream = expand(Fraction(1, 999983), Base(s))
        assert computed == [0]
        stream.prefix(1000)
        assert computed[0] > 0

    def test_period_search_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(digits, "_MAX_PERIOD_DIGITS", 1000)
        computed = count_tail_chunks(monkeypatch)
        at_cap = expand(Fraction(1, 4**1000 - 1))
        assert at_cap.eventual_period == ((), (0,) * 999 + (1,))
        over = expand(Fraction(1, 4**1001 - 1))
        # Below the cap, digit_at reads the stream and needs no period.
        assert [over.digit_at(k) for k in (1, 1000)] == [0, 0]
        read = computed[0]
        assert read > 0
        with pytest.raises(ValueError, match="longer than 1000 digits"):
            over.eventual_period
        with pytest.raises(ValueError, match="longer than 1000 digits"):
            stream_value(over)
        assert computed == [read]

    def test_a_failed_search_reads_no_digit(self, monkeypatch):
        # 10**30 + 57 has a period of far more than 10**7 digits in base 4,
        # which the order search settles without long division.
        x = Fraction(1, 10**30 + 57)
        computed = count_tail_chunks(monkeypatch)
        message = re.escape(f"the period of {x} in base 4 is longer than {10**7} digits")
        stream = expand(x)
        for read in (lambda: stream.eventual_period, lambda: stream_value(stream)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                read()
        assert computed == [0]

    def test_digit_at_reads_past_a_failed_period_search(self, monkeypatch):
        monkeypatch.setattr(digits, "_MAX_PERIOD_DIGITS", 1000)
        computed = count_tail_chunks(monkeypatch)
        over = expand(Fraction(1, 4**1001 - 1))
        # Past the cap the search runs, fails, and the stream is read.
        assert over.digit_at(1001) == 1
        assert over.digit_at(1002) == 0
        read = computed[0]
        assert read > 0
        # No error is kept: each read searches again, with no digit read.
        for search in (lambda: over.eventual_period, lambda: stream_value(over)):
            with pytest.raises(ValueError, match="longer than 1000 digits"):
                search()
        assert computed == [read]

    def test_the_denominator_is_split_once(self, monkeypatch):
        # expand's shape gives the finder q', so finding the period of a
        # long-period stream splits q no second time. 4**1001 - 1 is too
        # wide for the shape cache, so every expand of it splits q.
        calls = []
        split = digits._split_denominator

        def counted(q, s):
            calls.append(q)
            return split(q, s)

        monkeypatch.setattr(digits, "_split_denominator", counted)
        q = 4**1001 - 1
        stream = expand(Fraction(1, q))
        assert stream.eventual_period == ((), (0,) * 1000 + (1,))
        assert calls == [q]

    @pytest.mark.parametrize("s", [2**16, 2**64 - 1, 2**64])
    def test_bases_of_64_bit_digits(self, s):
        for x in (Fraction(0), Fraction(1, 3), Fraction(5, 12), Fraction(7, 2 * (s + 1)), Fraction(1)):
            pre, per = division_oracle(x, s)
            stream = expand(x, Base(s))
            assert stream.eventual_period == (pre, per), x
            assert stream.prefix(20).digits == periodic_oracle(pre, per, 20), x
            assert stream_value(stream) == x

    def test_bases_beyond_64_bits_are_refused(self):
        # A short period and a lazy stream are both refused when made.
        for x in (Fraction(1, 3), Fraction(1, 999983)):
            with pytest.raises(ValueError, match="2\\*\\*64"):
                expand(x, Base(2**64 + 1))

    def test_order_cache_stays_bounded(self):
        # 10**4 distinct primes q > 10**5, more than the cache holds; each
        # shape is worked out once, and the cache keeps at most its bound.
        sieve = bytearray([1]) * 250_000
        sieve[:2] = b"\0\0"
        for i in range(2, 500):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, len(sieve), i)))
        primes = [q for q in range(100_001, len(sieve)) if sieve[q]][:10_000]
        assert len(primes) == 10_000 > digits._SHAPE_CACHE_SIZE
        info = digits._shape.cache_info()
        assert info.maxsize == digits._SHAPE_CACHE_SIZE
        for q in primes:
            expand(Fraction(1, q))
        after = digits._shape.cache_info()
        assert after.misses - info.misses == len(primes)
        assert after.currsize <= digits._SHAPE_CACHE_SIZE
        # A q of 3170 bits is at least 4**256, so its period is longer than
        # 256 digits without a search, and it never enters the cache.
        wide = expand(Fraction(1, 3**2000))
        assert digits._shape.cache_info() == after
        assert wide.prefix(300).digits == long_division(Fraction(1, 3**2000), 4, 300)
        # A q of 100003 bits stays out too, although its part coprime to 4,
        # q' = 7, has a three-digit period, which is still found.
        huge = expand(Fraction(1, 7 * 2**100_000))
        assert digits._shape.cache_info() == after
        assert huge.eventual_period == ((0,) * 50_000, (0, 2, 1))
        # A short period that left the cache is found again.
        assert expand(Fraction(1, 3)).eventual_period == ((), (1,))

    def test_short_prefix_of_a_huge_period_is_cheap(self):
        x = Fraction(1, 10**30 + 57)
        start = time.perf_counter()
        got = expand(x).prefix(1000).digits
        assert time.perf_counter() - start < 0.5
        assert got == long_division(x, 4, 1000)


def brute_orders(s: int, top: int) -> dict[int, int]:
    """The order of s modulo every core in 2..top coprime to s, by stepping
    through the powers of s, all cores at once."""
    cores = np.array([c for c in range(2, top + 1) if math.gcd(c, s) == 1], dtype=np.int64)
    orders = np.zeros_like(cores)
    power = s % cores
    for k in range(1, top):
        orders[(power == 1) & (orders == 0)] = k
        power = power * s % cores
    assert orders.all()
    return dict(zip(cores.tolist(), orders.tolist()))


class TestOrder:
    @pytest.mark.parametrize("s", [2, 3, 4, 10, 300])
    def test_matches_brute_force(self, s):
        cap = digits._MAX_PERIOD_DIGITS
        assert [digits._order(s, 1, bound) for bound in (0, 1, cap)] == [None, 1, 1]
        for core, order in brute_orders(s, 3000).items():
            got = [digits._order(s, core, bound) for bound in (order - 1, order, cap)]
            assert got == [None, order, order], (core, order)


def divmod_digits(n: int, s: int, count: int) -> tuple[int, ...]:
    """The count base-s digits of n, most significant first, by divmod."""
    out = []
    for _ in range(count):
        n, d = divmod(n, s)
        out.append(d)
    return tuple(reversed(out))


class TestFastPaths:
    """Each fast path against the general code it stands in for."""

    @pytest.mark.parametrize("s", [2, 4, 16, 8, 32, 64, 128, 256])
    @pytest.mark.parametrize("count", [*range(10), 255, 256, 257])
    def test_table_digits_match_divmod(self, s, count):
        for n in {0, s**count - 1, (s**count - 1) // 3}:
            got = digits._base_digits(n, Base(s), count)
            assert type(got) is bytes and tuple(got) == divmod_digits(n, s, count), n

    @pytest.mark.parametrize("s", [3, 10, 300])
    @pytest.mark.parametrize(
        "count", [0, 1, *(k * digits._DIGITS_LEAF + d for k in (1, 2) for d in (-1, 0, 1)), 1000]
    )
    def test_halving_digits_match_divmod(self, s, count):
        for n in {0, s**count - 1, (s**count - 1) // 7, s ** max(count - 1, 0)}:
            got = digits._base_digits(n, Base(s), count)
            assert type(got) is (array if s > 256 else bytes), s
            assert tuple(got) == divmod_digits(n, s, count), n

    def test_bytes_are_checked_without_a_copy(self):
        data = bytes([0, 1, 2, 3])
        assert digits.to_chunk(data, Base(4)) is data
        with pytest.raises(ValueError, match=r"^digit 4 out of range for base 4$"):
            digits.to_chunk(b"\x00\x04", Base(4))

    def test_other_buffers_take_the_general_path(self):
        class Digits(bytes):
            pass

        for source in (bytearray(b"\x01\x03"), Digits(b"\x01\x03")):
            chunk = digits.to_chunk(source, Base(4))
            assert type(chunk) is bytes and chunk == b"\x01\x03"
        with pytest.raises(ValueError, match=r"^digit 4 out of range for base 4$"):
            digits.to_chunk(bytearray(b"\x00\x04"), Base(4))
        wide = array("Q", [299, 0, 7])
        chunk = digits.to_chunk(wide, Base(300))
        assert chunk == wide and chunk is not wide
        with pytest.raises(ValueError, match=r"^digit 300 out of range for base 300$"):
            digits.to_chunk(array("Q", [1, 300]), Base(300))

    @pytest.mark.parametrize(
        "stream",
        [
            periodic_stream((299, 1), (0, 298, 5), Base(300)),
            expand(Fraction(1, 3**2000), Base(300)),
            kernel_stream(ProbabilityVector.parse("1/2,1/3,1/6,0")),
            expand(Fraction(1, 10**30 + 57)),
            periodic_stream((1,), (0, 2, 3)),
        ],
        ids=["wide-periodic", "wide-lazy", "greedy", "lazy", "periodic"],
    )
    def test_prefix_matches_the_chained_chunks(self, stream):
        chunks = list(itertools.islice(stream.make_chunks(), 6))
        chained = tuple(itertools.chain.from_iterable(chunks))
        for n in sorted({0, 1, *edge_lengths(stream, 6)} - {len(chained) + 1}):
            got = stream.prefix(n)
            assert len(got) == n and got.digits == chained[:n], n
            assert got == digits.DigitPrefix(stream.base, chained[:n])

    def test_expand_does_not_depend_on_the_shape_cache(self):
        xs = [Fraction(p, q) for q in (1, 3, 12, 457, 1019, 4**5 * 7) for p in (0, 1, q // 2, q - 1, q)]
        for s in (2, 4, 10, 300):
            warm = [(expand(x, Base(s)).eventual_period, expand(x, Base(s)).prefix(40)) for x in xs]
            digits._shape.cache_clear()
            cold = [(expand(x, Base(s)).eventual_period, expand(x, Base(s)).prefix(40)) for x in xs]
            assert cold == warm, s

    @pytest.mark.parametrize("s", [2, 3, 16, 256, 300])
    def test_value_round_trip_with_preperiods(self, s):
        primes = [p for p in (2, 3, 5) if s % p == 0]
        for core in (1, 7, 11, 1019):
            for powers in itertools.product(range(4), repeat=len(primes)):
                q = core * math.prod(p ** (3 * e) for p, e in zip(primes, powers))
                for num in (0, 1, q // 3, q - 1, q):
                    x = Fraction(num, q)
                    assert stream_value(expand(x, Base(s))) == x, (x, s)


SMALL_RATIONAL_BASES = (2, 3, 4, 5, 8, 10, 16, 32, 64, 128, 256, 300)


class TestSmallRationals:
    """Every p/q in [0, 1] with q <= 60: in every power-of-two base up to
    256, whose digits expand writes by a byte table or by halving, and in
    bases that are not powers of two."""

    @pytest.mark.parametrize("s", SMALL_RATIONAL_BASES)
    def test_descriptor_value_and_prefix(self, s):
        base, depth = Base(s), 64
        for q in range(1, 61):
            for p in range(q + 1):
                x = Fraction(p, q)
                stream = expand(x, base)
                pre, per = stream.eventual_period
                assert (pre, per) == division_oracle(x, s), x
                assert len(pre) + len(per) <= q, x
                assert stream_value(stream) == x, x
                assert 0 <= x - prefix_value(stream.prefix(depth)) <= Fraction(1, s**depth), x

    @pytest.mark.parametrize("s", [2, 3, 4, 10, 300])
    def test_pair_needs_no_range_check(self, s):
        # expand records the digits that `_base_digits` writes as its pair
        # without `periodic_stream`'s range check: each part passes
        # `to_chunk` unchanged, and the stream's chunks are the ones that
        # `periodic_stream` gives the same pair. The wide denominators have
        # a preperiod too long for `_shape` to keep s**(m + L); the last x has
        # the longest period that expand records at once, 256 digits.
        base = Base(s)
        xs = [Fraction(p, q) for q in range(1, 41) for p in range(q + 1)]
        xs += [Fraction(1, 3 * s**5000), Fraction(5, 7 * s**3000), Fraction(s**256 - 2, s**256 - 1)]
        for x in xs:
            stream = expand(x, base)
            pre, per = stream._period
            assert to_chunk(pre, base) == pre and to_chunk(per, base) == per, x
            assert type(pre) is type(per) is type(to_chunk(per, base)), x
            tiled = periodic_stream(pre, per, base)
            assert list(itertools.islice(stream.make_chunks(), 4)) == list(itertools.islice(tiled.make_chunks(), 4))
            if x.denominator > 40:
                assert (tuple(pre), tuple(per)) == division_oracle(x, s), x


def numeral(digits, s: int) -> int:
    acc = 0
    for d in digits:
        acc = acc * s + d
    return acc


def textbook_value(pre, per, s: int) -> Fraction:
    """N(pre)/s^m + N(per)/(s^m (s^L - 1)), summed as two Fractions."""
    m, length = len(pre), len(per)
    return Fraction(numeral(pre, s), s**m) + Fraction(numeral(per, s), s**m * (s**length - 1))


class TestStreamValue:
    @settings(max_examples=80)
    @given(st.data(), BASES)
    def test_matches_the_textbook_sum(self, data, s):
        digit = st.integers(min_value=0, max_value=s - 1)
        # Up to 300 digits, past the 128-digit leaves where numerals split.
        pre = data.draw(st.lists(digit, max_size=300))
        per = data.draw(st.lists(digit, min_size=1, max_size=300))
        assert stream_value(periodic_stream(pre, per, Base(s))) == textbook_value(pre, per, s)

    @pytest.mark.parametrize("s", [2, 3, 4, 10, 300])
    @pytest.mark.parametrize("pre", [(), (0,), (1,), (1, 0, 1)], ids=["empty", "0", "1", "101"])
    def test_maximal_period_carries(self, s, pre):
        # pre followed by (s-1) forever is pre with 1 added at its last place.
        for length in (1, 2, 5):
            value = stream_value(periodic_stream(pre, (s - 1,) * length, Base(s)))
            assert value == textbook_value(pre, (s - 1,) * length, s)
            assert value == Fraction(numeral(pre, s) + 1, s ** len(pre))


class TestValidationMessages:
    @pytest.mark.parametrize(
        "pre, per, s, bad",
        [
            ((0, 4), (1,), 4, 4),
            ((1,), (2, 5), 4, 5),
            ((7,), (9,), 4, 7),
            ((-1,), (4,), 4, -1),
            ((), (1.0,), 4, 1.0),
            ((2,), (3, 300), 300, 300),
            ((301,), (-1,), 300, 301),
        ],
    )
    def test_periodic_stream_names_the_first_bad_digit(self, pre, per, s, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(f'digit {bad!r} out of range for base {s}')}$"):
            periodic_stream(pre, per, Base(s))

    @pytest.mark.parametrize(
        "x, shown", [(Fraction(-1, 3), "-1/3"), (Fraction(4, 3), "4/3"), (2, "2"), ("5/4", "5/4")]
    )
    def test_expand_refuses_values_outside_the_unit_interval(self, x, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(f'expand is defined on [0, 1], got {shown}')}$"):
            expand(x)

    @pytest.mark.parametrize("s", [2, 3, 4, 10, 256, 300])
    def test_periods_up_to_256_digits_are_known_at_once(self, s):
        # s**L - 1 has period L: 256 digits is the longest short period.
        known = expand(Fraction(1, s**256 - 1), Base(s))
        lazy = expand(Fraction(1, s**257 - 1), Base(s))

        def unread():
            raise AssertionError("the stream was read")

        # Without its digits, the 256-digit stream still answers from its
        # period; the 257-digit one has none yet, so digit_at reads the stream.
        object.__setattr__(known, "make_chunks", unread)
        object.__setattr__(lazy, "make_chunks", unread)
        assert known.digit_at(10**9) == 1  # 256 divides 10**9
        with pytest.raises(AssertionError, match="the stream was read"):
            lazy.digit_at(1)
        # Its first read of the period finds it.
        assert lazy.eventual_period == ((), (0,) * 256 + (1,))
        assert known.eventual_period == ((), (0,) * 255 + (1,))
        # The order search on both sides of the short bound.
        short = digits._SHORT_PERIOD
        assert digits._order(s, s**256 - 1, short) == 256
        assert digits._order(s, s**257 - 1, short) is None
        assert digits._order(s, s**257 - 1, short + 1) == 257

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(5, 24), Fraction(22, 113), Fraction(0), Fraction(1)])
    def test_short_period_is_known_at_once(self, x):
        stream = expand(x)

        def unread():
            raise AssertionError("the stream was read")

        # The instance's own make_chunks now fails, so digit_at must use the period.
        object.__setattr__(stream, "make_chunks", unread)
        pre, per = division_oracle(x, 4)
        k = 10**9
        assert stream.digit_at(k) == per[(k - len(pre) - 1) % len(per)]
