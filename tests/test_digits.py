import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adiclab import digits
from adiclab.digits import (
    BASE4,
    Base,
    DigitPrefix,
    digit_text,
    dual_representation,
    expand,
    has_two_representations,
    parse_digit_text,
    periodic_stream,
    prefix_value,
    stream_from_digits,
    stream_value,
)


@st.composite
def unit_rationals(draw, max_denominator=10**4):
    q = draw(st.integers(min_value=1, max_value=max_denominator))
    p = draw(st.integers(min_value=0, max_value=q))
    return Fraction(p, q)


class TestBase:
    def test_default_is_four(self):
        assert Base().s == 4

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_degenerate_radix(self, bad):
        with pytest.raises(ValueError):
            Base(bad)


class TestDigitPrefix:
    def test_validates_digit_range(self):
        with pytest.raises(ValueError):
            DigitPrefix(BASE4, (0, 4))
        with pytest.raises(ValueError):
            DigitPrefix(BASE4, (-1,))

    def test_text_round_trip(self):
        p = DigitPrefix(BASE4, (1, 0, 2, 3))
        assert digit_text(bytes(p.digits)) == "1023"
        assert tuple(parse_digit_text("1023", 4)) == (1, 0, 2, 3)

    def test_from_text_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_digit_text("12x3", 4)
        with pytest.raises(ValueError):
            parse_digit_text("159", 4)  # 5 and 9 out of range for base 4

    def test_equal_wide_prefixes_hash_equal(self):
        # Base 300 holds its digits in an unhashable array("Q") chunk.
        a, b = DigitPrefix(Base(300), [299, 0, 5]), DigitPrefix(Base(300), (299, 0, 5))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("text", ["\u0661\u0662", "1\u00b2", "\uff11"])
    def test_from_text_accepts_ascii_digits_only(self, text):
        # Arabic-Indic, superscript and fullwidth digits pass str.isdigit().
        with pytest.raises(ValueError, match="non-digit character"):
            parse_digit_text(text, 4)


class TestExpand:
    def test_quarter_terminates_with_zero_period(self):
        stream = expand(Fraction(1, 4))
        assert stream.eventual_period == ((1,), (0,))
        assert stream.prefix(6).digits == (1, 0, 0, 0, 0, 0)

    def test_third_has_period_one(self):
        # Long-division oracle: remainder 1 recurs immediately with digit 1,
        # and the geometric series sum(4**-k) = 1/3 confirms the value.
        stream = expand(Fraction(1, 3))
        assert stream.eventual_period == ((), (1,))
        assert stream_value(stream) == Fraction(1, 3)

    def test_fifth_has_period_zero_three(self):
        # Long-division oracle; 3/(4**2 - 1) = 1/5 confirms the period value.
        stream = expand(Fraction(1, 5))
        assert stream.eventual_period == ((), (0, 3))
        assert stream_value(stream) == Fraction(1, 5)

    def test_endpoint_conventions(self):
        assert expand(Fraction(0)).eventual_period == ((), (0,))
        assert expand(Fraction(1)).eventual_period == ((), (3,))

    def test_other_bases(self):
        assert expand(Fraction(1, 3), Base(2)).eventual_period == ((), (0, 1))
        assert expand(Fraction(1, 2), Base(3)).eventual_period == ((), (1,))
        assert expand(Fraction(1, 2), Base(10)).eventual_period == ((5,), (0,))

    @pytest.mark.parametrize("bad", [Fraction(-1, 2), Fraction(5, 4)])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            expand(bad)

    @given(unit_rationals())
    def test_value_reconstruction_is_exact(self, x):
        # Independent reconstruction from the (preperiod, period) descriptor.
        assert stream_value(expand(x)) == x

    @given(unit_rationals(), st.integers(min_value=1, max_value=48))
    def test_prefix_value_within_tail_bound(self, x, n):
        gap = x - prefix_value(expand(x).prefix(n))
        assert 0 <= gap <= Fraction(1, 4**n)

    @given(unit_rationals())
    def test_period_length_bounded_by_denominator(self, x):
        pre, per = expand(x).eventual_period
        assert len(pre) + len(per) <= x.denominator

    @given(unit_rationals(max_denominator=500))
    def test_deterministic(self, x):
        a, b = expand(x), expand(x)
        assert a.eventual_period == b.eventual_period
        assert a.prefix(40).digits == b.prefix(40).digits

    @given(unit_rationals(max_denominator=300), st.integers(min_value=1, max_value=60))
    def test_digit_at_matches_iteration(self, x, k):
        stream = expand(x)
        assert stream.digit_at(k) == stream.prefix(k).digits[-1]


class TestPrefixValue:
    def test_empty_prefix_is_zero(self):
        assert prefix_value(DigitPrefix(BASE4, ())) == 0

    def test_all_threes(self):
        assert prefix_value(DigitPrefix(BASE4, (3, 3))) == Fraction(15, 16)

    def test_mixed_digits(self):
        # Exact-rational sum: 1/4 + 0 + 2/64.
        assert prefix_value(DigitPrefix(BASE4, (1, 0, 2))) == Fraction(9, 32)

    @given(st.data(), st.one_of(st.integers(min_value=2, max_value=10), st.sampled_from([16, 35, 36, 37, 300])))
    def test_matches_the_schoolbook_numeral(self, data, s):
        # Long prefixes are split in halves, and leaves up to base 36 are read
        # by int(text, s), letters past 9; the acc*s + d loop is the oracle.
        digits = data.draw(st.lists(st.integers(min_value=0, max_value=s - 1), max_size=1500))
        pre = data.draw(st.lists(st.integers(min_value=0, max_value=s - 1), max_size=300))
        acc = 0
        for d in digits:
            acc = acc * s + d
        assert prefix_value(DigitPrefix(Base(s), tuple(digits))) == Fraction(acc, s ** len(digits))
        if digits:
            value = stream_value(periodic_stream(pre, digits, Base(s)))
            head = prefix_value(DigitPrefix(Base(s), tuple(pre)))
            assert value == head + Fraction(acc, s ** len(digits) - 1) / s ** len(pre)


class TestDualRepresentation:
    def test_single_digit(self):
        dual = dual_representation(DigitPrefix(BASE4, (1,)))
        assert dual.eventual_period == ((0,), (3,))
        assert stream_value(dual) == Fraction(1, 4)

    def test_two_digits(self):
        dual = dual_representation(DigitPrefix(BASE4, (2, 1)))
        assert dual.eventual_period == ((2, 0), (3,))
        assert stream_value(dual) == Fraction(9, 16)

    def test_top_digit(self):
        dual = dual_representation(DigitPrefix(BASE4, (3,)))
        assert dual.eventual_period == ((2,), (3,))
        assert stream_value(dual) == Fraction(3, 4)

    def test_rejects_empty_and_zero_tail(self):
        with pytest.raises(ValueError):
            dual_representation(DigitPrefix(BASE4, ()))
        with pytest.raises(ValueError):
            dual_representation(DigitPrefix(BASE4, (1, 0)))

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=12),
        st.integers(min_value=1, max_value=3),
    )
    def test_value_equality_holds_exactly(self, head, last):
        p = DigitPrefix(BASE4, (*head, last))
        dual = dual_representation(p)
        assert stream_value(dual) == prefix_value(p)
        # Partial sums differ by exactly the swapped tail: the dual prefix of
        # length n is smaller by 4**-n.
        n = len(p)
        assert prefix_value(p) - prefix_value(dual.prefix(n)) == Fraction(1, 4**n)


class TestHasTwoRepresentations:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (Fraction(1, 4), True),
            (Fraction(1, 2), True),  # 1/2 = 2/4 terminates in base 4
            (Fraction(3, 64), True),
            (Fraction(1, 3), False),
            (Fraction(1, 6), False),
            (Fraction(0), False),
            (Fraction(1), False),
        ],
    )
    def test_base4_cases(self, x, expected):
        assert has_two_representations(x) is expected

    def test_matches_period_descriptor(self):
        for q in range(1, 80):
            for p in range(q + 1):
                x = Fraction(p, q)
                pre, per = expand(x).eventual_period
                terminating_inside = per == (0,) and 0 < x < 1
                assert has_two_representations(x) is terminating_inside

    def test_domain(self):
        with pytest.raises(ValueError):
            has_two_representations(Fraction(3, 2))


def split_by_steps(q: int, s: int) -> tuple[int, int]:
    """(m, q') by one gcd step per preperiod digit."""
    m = 0
    while (g := math.gcd(q, s)) > 1:
        q //= g
        m += 1
    return m, q


class TestSplitDenominator:
    @given(
        st.one_of(st.integers(min_value=2, max_value=10), st.just(300)),
        st.integers(min_value=1, max_value=10**6),
        st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=200)), max_size=4),
    )
    def test_matches_one_step_per_digit(self, s, core, powers):
        q = core * math.prod(p**e for p, e in powers)
        assert digits._split_denominator(q, s) == split_by_steps(q, s)

    def test_long_preperiod_is_cheap(self):
        # One gcd step per digit took about 2.7 s here: 10**5 steps on a
        # 10**5-bit q (2-vCPU x86-64).
        q = 7 * 2**100_000
        start = time.perf_counter()
        split = digits._split_denominator(q, 10)
        assert time.perf_counter() - start < 0.1
        assert split == (100_000, 7)
        assert not has_two_representations(Fraction(1, q), Base(10))
        assert has_two_representations(Fraction(1, q // 7), Base(10))


class TestStreams:
    def test_periodic_stream_requires_period(self):
        with pytest.raises(ValueError):
            periodic_stream((1,), ())

    def test_stream_value_needs_descriptor(self):
        from adiclab.construct import ColumnSchedule, ProbabilityVector, ScheduleSpec, block_stream

        # A block stream is procedural: it carries no (preperiod, period) pair.
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        stream = block_stream(columns, ScheduleSpec.polynomial(1))
        with pytest.raises(ValueError):
            stream_value(stream)

    def test_finite_stream_prefix_overrun(self):
        stream = stream_from_digits((1, 2, 3))
        assert stream.prefix(3).digits == (1, 2, 3)
        with pytest.raises(ValueError):
            stream.prefix(4)

    def test_library_periods_are_not_read_back(self):
        # expand finds a long period from its own remainders; the stream's
        # digits are not read again to match it.
        stream = expand(Fraction(1, 1019))

        def unread():
            raise AssertionError("the stream was read")

        object.__setattr__(stream, "make_chunks", unread)
        pre, per = stream.eventual_period
        assert (len(pre), len(per)) == (0, 509)

    def test_digit_at_is_one_based(self):
        stream = expand(Fraction(1, 5))
        assert [stream.digit_at(k) for k in (1, 2, 3, 4)] == [0, 3, 0, 3]
        with pytest.raises(ValueError):
            stream.digit_at(0)

    def test_negative_prefix_length_is_refused(self):
        with pytest.raises(ValueError, match=r"^prefix length must be >= 0, got -1$"):
            expand(Fraction(1, 5)).prefix(-1)

    def test_digit_at_past_the_end_of_a_finite_stream(self):
        with pytest.raises(ValueError, match=r"^stream ended after 2 digits, before position 5$"):
            stream_from_digits((1, 2)).digit_at(5)
