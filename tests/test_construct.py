import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from adiclab.construct import (
    CONDITION_DIVERGES,
    CONDITION_INDEX,
    CONDITION_NEXT_TERM,
    MEAN_DEFICIT,
    ColumnConstraintError,
    ColumnSchedule,
    DistinguishResult,
    ProbabilityVector,
    ScheduleRejectedError,
    ScheduleSpec,
    _integer_window,
    _mean_numerators,
    _mean_vector,
    block_boundaries,
    block_stream,
    columns_from_config,
    floor_counts,
    greedy_increments,
    greedy_stream,
    mean_target_stream,
    prefix_distinguish,
    schedule_from_config,
    validate_schedule,
)
from adiclab.digits import BASE4, Base, expand, stream_from_digits
from adiclab.entropy import be_dimension, neg_entropy_minimum
from adiclab.stats import convergence_trace, digit_counts


@st.composite
def probability_vectors(draw, size=4, max_denominator=12):
    # Random rational points on the simplex with small denominators.
    den = draw(st.integers(min_value=1, max_value=max_denominator))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=size - 1, max_size=size - 1)))
    parts = []
    last = 0
    for c in (*cuts, den):
        parts.append(Fraction(c - last, den))
        last = c
    return ProbabilityVector(tuple(parts))


class TestProbabilityVector:
    def test_parse_and_mean(self):
        tau = ProbabilityVector.parse("1/10,2/10,3/10,4/10")
        assert tau.mean() == 2
        assert tau.as_strings() == ["1/10", "1/5", "3/10", "2/5"]

    def test_parse_decimal_strings_exactly(self):
        tau = ProbabilityVector.parse("0.5,0.25,0.25,0")
        assert tau.entries == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            ProbabilityVector.parse("1/2,1/2,1/2,-1/2")
        with pytest.raises(ValueError):
            ProbabilityVector.parse("1/2,1/4,0,0")

    @given(
        probability_vectors(size=5, max_denominator=30),
        st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=5, max_value=10**6)),
    )
    def test_from_numerators_is_the_plain_vector(self, tau, scale):
        # Both hold the vector in lowest terms, over the lcm of its entries'
        # denominators, whatever common factor the integers carry.
        lcm = math.lcm(*(t.denominator for t in tau.entries))
        den = scale * lcm
        nums = [t.numerator * (den // t.denominator) for t in tau.entries]
        direct = ProbabilityVector.from_numerators(nums, den)
        for plain in (tau, ProbabilityVector.parse(",".join(tau.as_strings()))):
            assert direct == plain and hash(direct) == hash(plain)
            assert direct.numerators == plain.numerators and direct.denominator == plain.denominator == lcm
        assert direct.entries == tau.entries

    @pytest.mark.parametrize("den", [0, -2])
    def test_from_numerators_refuses_a_denominator_below_1(self, den):
        with pytest.raises(ValueError, match=rf"^denominator must be >= 1, got {den}$"):
            ProbabilityVector.from_numerators([0, 0] if den == 0 else [-1, -1], den)

    @pytest.mark.parametrize(
        "nums, den, entries",
        [([1, -1, 2], 2, "1/2,-1/2,1"), ([1, 1, 1], 2, "1/2,1/2,1/2"), ([2], 2, "1")],
        ids=["negative", "sum", "short"],
    )
    def test_from_numerators_refuses_like_the_plain_vector(self, nums, den, entries):
        with pytest.raises(ValueError) as plain:
            ProbabilityVector.parse(entries)
        with pytest.raises(ValueError) as direct:
            ProbabilityVector.from_numerators(nums, den)
        assert str(direct.value) == str(plain.value)


class TestGreedyIncrements:
    def test_point_mass(self):
        tau = ProbabilityVector.parse("1,0,0,0")
        for n in (1, 2, 17, 1000):
            assert greedy_increments(tau, n) == (1, 0, 0, 0)

    def test_half_half(self):
        tau = ProbabilityVector.parse("1/2,1/2,0,0")
        assert greedy_increments(tau, 1) == (1, 1, 0, 0)
        assert greedy_increments(tau, 2) == (0, 0, 0, 0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            greedy_increments(ProbabilityVector.parse("1,0,0,0"), 0)

    @given(probability_vectors(), st.integers(min_value=1, max_value=500))
    def test_values_in_zero_one(self, tau, n):
        assert all(v in (0, 1) for v in greedy_increments(tau, n))

    @given(probability_vectors(), st.integers(min_value=1, max_value=200))
    def test_telescoping_sum(self, tau, n):
        totals = [0] * 4
        for k in range(1, n + 1):
            for i, v in enumerate(greedy_increments(tau, k)):
                totals[i] += v
        expected = [a - b for a, b in zip(floor_counts(tau, n + 1), floor_counts(tau, 1))]
        assert totals == expected


class TestGreedyStream:
    def test_point_mass_is_constant(self):
        stream = greedy_stream(ProbabilityVector.parse("0,0,0,1"))
        assert stream.prefix(10).digits == (3,) * 10

    def test_half_half_alternates(self):
        stream = greedy_stream(ProbabilityVector.parse("1/2,1/2,0,0"))
        assert stream.prefix(12).digits == (0, 1) * 6

    def test_uniform_boundary_counts(self):
        stream = greedy_stream(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        for m in (1, 2, 5, 25, 50):
            counts = digit_counts(stream.prefix(4 * m))
            assert counts == (m, m, m, m)

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            greedy_stream(ProbabilityVector.parse("1/2,1/2"), BASE4)

    def test_negative_boundary_is_refused(self):
        with pytest.raises(ValueError, match=r"^boundary must be >= 0, got -1$"):
            floor_counts(ProbabilityVector.parse("1/2,1/2,0,0"), -1)

    @given(probability_vectors(), st.integers(min_value=1, max_value=400))
    def test_exact_counts_at_boundaries(self, tau, n):
        targets = floor_counts(tau, n)
        prefix = greedy_stream(tau).prefix(sum(targets))
        assert digit_counts(prefix) == targets

    def test_frequencies_converge(self):
        tau = ProbabilityVector.parse("1/10,2/10,3/10,4/10")
        trace = convergence_trace(greedy_stream(tau), (10**4,))
        rep = trace.reports[0]
        for freq, target in zip(rep.freqs, tau.entries):
            assert abs(freq - target) <= Fraction(1, 1000)


class TestScheduleSpec:
    def test_terms(self):
        assert ScheduleSpec.polynomial(2).term(5) == 25
        assert ScheduleSpec.affine(2, 1).term(3) == 7
        assert ScheduleSpec.geometric(2).term(10) == 1024

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ScheduleSpec.polynomial(0)
        with pytest.raises(ValueError):
            ScheduleSpec.affine(Fraction(1, 2))
        with pytest.raises(ValueError):
            ScheduleSpec.geometric(Fraction(1, 2))
        with pytest.raises(ValueError):
            ScheduleSpec(family="mystery")

    def test_affine_must_be_positive_from_one(self):
        with pytest.raises(ValueError, match=r"^affine schedule must be positive from k = 1$"):
            ScheduleSpec.affine(1, -1)

    def test_terms_are_one_based(self):
        with pytest.raises(ValueError, match=r"^schedule index must be >= 1, got 0$"):
            ScheduleSpec.polynomial(1).term(0)

    def test_labels(self):
        assert ScheduleSpec.polynomial(1).label() == "k"
        assert ScheduleSpec.polynomial(2).label() == "k^2"
        assert ScheduleSpec.geometric(2).label() == "2^k"


class TestValidateSchedule:
    def test_linear_accepted(self):
        validation = validate_schedule(ScheduleSpec.polynomial(1))
        assert validation.accepted
        assert all(c.holds for c in validation.conditions)
        assert [c.name for c in validation.conditions] == [
            CONDITION_DIVERGES,
            CONDITION_NEXT_TERM,
            CONDITION_INDEX,
        ]

    def test_quadratic_and_affine_accepted(self):
        assert validate_schedule(ScheduleSpec.polynomial(2)).accepted
        assert validate_schedule(ScheduleSpec.affine(3, 2)).accepted

    def test_doubling_rejected_on_partial_sum_condition(self):
        validation = validate_schedule(ScheduleSpec.geometric(2))
        assert not validation.accepted
        assert [c.name for c in validation.failed()] == [CONDITION_NEXT_TERM]

    def test_constant_rejected_on_divergence_and_index(self):
        validation = validate_schedule(ScheduleSpec.geometric(1))
        assert not validation.accepted
        assert {c.name for c in validation.failed()} == {CONDITION_DIVERGES, CONDITION_INDEX}


class TestBlockStream:
    def test_uniform_linear_blocks(self):
        # Blocks 1..3 are empty (floor(k/4) = 0), block 4 is "0123".
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        stream = block_stream(columns, ScheduleSpec.polynomial(1))
        assert stream.prefix(8).digits == (0, 1, 2, 3) * 2
        assert block_boundaries(columns, ScheduleSpec.polynomial(1), 20) == [0, 0, 0, 4, 8, 12, 16]

    def test_point_mass_blocks(self):
        columns = ColumnSchedule.constant(ProbabilityVector.parse("0,0,0,1"))
        stream = block_stream(columns, ScheduleSpec.polynomial(1))
        prefix = stream.prefix(50)
        assert set(prefix.digits) == {3}

    def test_rejected_schedule_raises(self):
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        with pytest.raises(ScheduleRejectedError, match="next_term_over_partial_sum"):
            block_stream(columns, ScheduleSpec.geometric(2))

    def test_columns_are_one_based(self):
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        with pytest.raises(ValueError, match=r"^column indices are 1-based, got 0$"):
            columns.column(0)

    def test_a_rule_may_return_a_tuple(self):
        # The column is made a vector, and so checked as one.
        columns = ColumnSchedule(rule=lambda n: (Fraction(1, 2), Fraction(1, 2)), mean=Fraction(1, 2))
        assert columns.column(3) == ProbabilityVector((Fraction(1, 2), Fraction(1, 2)))
        assert block_stream(columns, ScheduleSpec.polynomial(1), Base(2)).prefix(6).digits == (0, 1, 0, 1, 0, 0)
        with pytest.raises(ValueError, match="negative entry"):
            ColumnSchedule(rule=lambda n: (Fraction(3, 2), Fraction(-1, 2))).column(1)

    def test_declared_mean_violation_is_hard_error(self):
        tau = ProbabilityVector.parse("1/4,1/4,1/4,1/4")  # true mean 3/2
        columns = ColumnSchedule.constant(tau, mean=Fraction(1))
        with pytest.raises(ColumnConstraintError, match="column 1"):
            block_stream(columns, ScheduleSpec.polynomial(1)).prefix(1)

    def test_converging_columns_match_rate_rule(self):
        limit = ProbabilityVector.parse("1/2,1/2,0,0")
        columns = ColumnSchedule.converging(limit, mix_digit=2)
        # eps_n = 1/(n+1): column n is (1/2 - 1/(2n+2), 1/2 - 1/(2n+2), 1/(n+1), 0)
        for n in (1, 4, 9):
            col = columns.column(n)
            half_less = Fraction(1, 2) - Fraction(1, 2 * n + 2)
            assert col.entries == (half_less, half_less, Fraction(1, n + 1), 0)

    @given(probability_vectors(size=4, max_denominator=30), st.integers(0, 3), st.sampled_from(["harmonic", "quadratic"]))
    def test_converging_columns_match_the_fraction_formula(self, limit, mix, rate):
        columns = ColumnSchedule.converging(limit, mix, rate)
        for n in (1, 2, 7, 100):
            eps = Fraction(1, n + 1) if rate == "harmonic" else Fraction(1, (n + 1) ** 2)
            want = [t * (1 - eps) for t in limit.entries]
            want[mix] += eps
            assert columns.column(n) == ProbabilityVector(tuple(want))

    def test_converging_frequency_approaches_limit(self):
        limit = ProbabilityVector.parse("1/2,1/2,0,0")
        columns = ColumnSchedule.converging(limit, mix_digit=2)
        stream = block_stream(columns, ScheduleSpec.polynomial(2))
        rep = convergence_trace(stream, (10**5,)).reports[0]
        assert abs(rep.freqs[0] - Fraction(1, 2)) <= Fraction(1, 100)

    def test_block_length_bounds(self):
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/6,1/3,1/3,1/6"))
        spec = ScheduleSpec.polynomial(1)
        boundaries = block_boundaries(columns, spec, 10**4)
        total = 0
        for k, boundary in enumerate(boundaries, start=1):
            length = boundary - total
            assert spec.term(k) - 4 <= length <= spec.term(k)
            total = boundary

    def test_explicit_columns_then_tail(self):
        a = ProbabilityVector.parse("1,0,0,0")
        b = ProbabilityVector.parse("0,0,0,1")
        columns = ColumnSchedule.explicit([a], b)
        assert columns.column(1) is a
        assert columns.column(2) is b
        assert columns.column(100) is b

    def test_explicit_columns_must_match_the_tail(self):
        four, three = ProbabilityVector.parse("1/4,1/4,1/4,1/4"), ProbabilityVector.parse("1/3,1/3,1/3")
        with pytest.raises(ValueError, match="^column 2 has 3 entries, the tail has 4$"):
            ColumnSchedule.explicit([four, three], four)
        with pytest.raises(ValueError, match="^column 1 has 4 entries, the tail has 3$"):
            ColumnSchedule.explicit([four], three)

    def test_first_column_of_the_wrong_length_is_refused_before_any_digit(self):
        columns = ColumnSchedule.constant(ProbabilityVector.parse("1/3,1/3,1/3"))
        with pytest.raises(ValueError, match="^column 1 has 3 entries, base is 4$"):
            block_stream(columns, ScheduleSpec.polynomial(1))

    def test_every_column_length_is_checked(self):
        # Column 3 has one extra entry; without the check its digit 4 would
        # index past the base-4 alphabet, and a short column would silently
        # never emit the top digit.
        uniform = ProbabilityVector.parse("1/4,1/4,1/4,1/4")
        wide = ProbabilityVector.parse("1/5,1/5,1/5,1/5,1/5")
        columns = ColumnSchedule(rule=lambda n: wide if n == 3 else uniform)
        # Blocks 1 and 2 hold 8 and 16 digits.
        stream = block_stream(columns, ScheduleSpec.affine(8))
        assert stream.prefix(24).digits == (0, 0, 1, 1, 2, 2, 3, 3) + (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
        with pytest.raises(ValueError, match="^column 3 has 5 entries, base is 4$"):
            stream.prefix(25)


class TestMeanTargetStream:
    def test_degenerate_endpoints(self):
        assert mean_target_stream(0).prefix(10).digits == (0,) * 10
        assert mean_target_stream(3).prefix(10).digits == (3,) * 10

    def test_midpoint_uses_uniform_vector(self):
        stream = mean_target_stream(Fraction(3, 2))
        assert digit_counts(stream.prefix(400)) == (100, 100, 100, 100)

    def test_interior_mean_converges(self):
        stream = mean_target_stream(Fraction(1, 2))
        rep = convergence_trace(stream, (10**4,)).reports[0]
        assert abs(rep.mean - Fraction(1, 2)) <= Fraction(1, 100)

    def test_other_base(self):
        stream = mean_target_stream(Fraction(1), Base(3))
        rep = convergence_trace(stream, (3000,)).reports[0]
        assert abs(rep.mean - 1) <= Fraction(1, 100)

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_target_stream(Fraction(7, 2))
        with pytest.raises(ValueError):
            mean_target_stream(-1)

    @staticmethod
    def _moved(weights, first, theta):
        # Step 1 of `_mean_numerators` in Fractions: the window's weights,
        # moved to mean theta by mixing them with the point mass at the
        # window's first digit if their mean is above theta, else at its
        # last one. Returns tau and the pivot's place in the window.
        w = [Fraction(x) for x in weights]
        total = sum(w)
        mu = first + sum(i * x for i, x in enumerate(w)) / total
        pivot = 0 if mu > theta else len(w) - 1
        t = (mu - theta) / (mu - first - pivot)
        return [(1 - t) * x / total + t * (i == pivot) for i, x in enumerate(w)], pivot

    @classmethod
    def _oracle(cls, theta, base):
        # The documented construction, restated in Fractions: the window of
        # the argmin's nonzero entries, widened to hold floor(theta) and the
        # digit after it, is moved to mean theta; over D the entries are
        # floored, and the R that round up are found by trying each run of
        # R+1 consecutive indices in the pivot's frame with one left out,
        # until one sums to the frame's missing index sum M. D jumps by the
        # 1/D**2 estimate of the deficit until it is within MEAN_DEFICIT.
        s = base.s
        optimum = neg_entropy_minimum(float(theta), base)
        a = min(math.floor(theta), s - 2)
        support = [i for i, t in enumerate(optimum.argmin) if t]
        first, last = min(a, support[0]), max(a + 2, support[-1] + 1)
        tau, pivot = cls._moved(optimum.argmin[first:last], first, theta)
        frame = [abs(i - pivot) for i in range(last - first)]
        d = theta.denominator * max(1, 2**16 // theta.denominator)
        while True:
            nums = [math.floor(x * d) for x in tau]
            if up := d - sum(nums):
                target = sum(j * (x * d - n) for j, x, n in zip(frame, tau, nums))
                b, x = next(
                    (b, x)
                    for b in range(len(frame) - up)
                    for x in [sum(range(b, b + up + 1)) - target]
                    if b <= x <= b + up
                )
                nums = [n + (b <= j <= b + up and j != x) for j, n in zip(frame, nums)]
            tau_d = ProbabilityVector(tuple([0] * first + [Fraction(n, d) for n in nums] + [0] * (s - last)))
            deficit = optimum.dimension_bound - be_dimension(tau_d, base)
            if deficit <= MEAN_DEFICIT:
                return tau_d
            d <<= max(1, math.ceil(math.log2(deficit / MEAN_DEFICIT) / 2))

    @pytest.mark.parametrize(
        "s, thetas",
        [
            (4, [Fraction(k, 100) for k in range(1, 300)]),
            (2, [Fraction(k, 100) for k in range(1, 100, 7)]),
            (3, [Fraction(k, 50) for k in range(1, 100, 9)]),
            (10, [Fraction(k, 10) for k in range(1, 90, 11)]),
            (300, [Fraction(1, 2), Fraction(10), Fraction(299, 2), Fraction(290)]),
        ],
    )
    def test_vector_is_the_plain_rationalization(self, s, thetas):
        for theta in thetas:
            tau, deficit = _mean_vector(theta, Base(s))
            assert tau == self._oracle(theta, Base(s)), theta
            assert tau.mean() == theta and min(tau.entries) >= 0
            assert deficit <= MEAN_DEFICIT

    @pytest.mark.parametrize(
        "theta, s", [(Fraction(1, 3), 4), (Fraction(13, 10), 4), (Fraction(23, 25), 4), (Fraction(37, 10), 10)]
    )
    def test_stream_is_the_greedy_stream_of_the_plain_rationalization(self, theta, s):
        tau = self._oracle(theta, Base(s))
        n = 2**17
        assert mean_target_stream(theta, Base(s)).prefix(n) == greedy_stream(tau, Base(s)).prefix(n)

    def test_documented_mean_misses(self):
        # The mean is theta exactly; the figures that the docstring states
        # are the deficits and the denominators.
        base4 = {}
        for k in range(1, 300):
            theta = Fraction(k, 100)
            tau, deficit = _mean_vector(theta, BASE4)
            assert tau.mean() == theta
            base4[theta] = deficit
        assert max(base4.values()) <= MEAN_DEFICIT == 2.0**-25
        for theta in range(10, 300, 10):
            tau, deficit = _mean_vector(Fraction(theta), Base(300))
            assert tau.mean() == theta and deficit <= MEAN_DEFICIT

    def test_base4_means_up_to_denominator_1000_tile(self):
        # Every theta in [1/4, 11/4] with denominator up to 1000 gets D =
        # den * (2**16 // den), and its deficit stays below 2.0e-8 (the
        # docstring's figure; 89/354 has the largest, 1.41e-8). Each
        # denominator's thetas nearest both ends and a stride through the
        # middle stand for all of them. Entries over D make a greedy period
        # of at most D digits, which the stream tiles.
        for q in (*range(1, 61), *range(61, 1001, 13), 354, 992, 997, 1000):
            low, high = -(-q // 4), 11 * q // 4
            for p in {low, low + 1, high - 1, high, *range(low, high + 1, max(1, q // 7))}:
                theta = Fraction(p, q)
                tau, deficit = _mean_vector(theta, BASE4)
                assert tau.mean() == theta and deficit < 2.0e-8, theta
                d = theta.denominator * (2**16 // theta.denominator)
                assert all(d % t.denominator == 0 for t in tau.entries), theta
        for theta in (Fraction(1, 4), Fraction(89, 354), Fraction(11, 4)):
            pre, period = mean_target_stream(theta)._period
            assert pre == b"" and len(period) <= 2**16, theta

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 10, 300]),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.sampled_from(["low", "high", "any"]),
    )
    def test_every_vector_is_exact_or_refused(self, s, p, q, where):
        # Means near either end, where D must grow, and anywhere inside.
        theta = {"low": Fraction(p, q * 10**3), "high": s - 1 - Fraction(p, q * 10**3)}.get(where)
        if theta is None:
            theta = Fraction(p % (q * (s - 1)), q) or Fraction(1, q)
        assume(0 < theta < s - 1)
        try:
            tau, deficit = _mean_vector(theta, Base(s))
        except ValueError as exc:
            assert str(exc).startswith("no vector over D = ")
            return
        assert tau.mean() == theta and min(tau.entries) >= 0
        assert deficit <= MEAN_DEFICIT
        bound = neg_entropy_minimum(float(theta), Base(s)).dimension_bound
        assert bound - be_dimension(tau, Base(s)) == pytest.approx(deficit, abs=1e-12)

    @pytest.mark.parametrize("s", [4, 300])
    def test_thetas_within_half_an_ulp_of_an_end(self, s):
        # float(theta) is the end itself, so the optimum is solved at the
        # nearest float inside, and the vector still has mean theta exactly.
        for theta in (Fraction(1, 10**400), s - 1 - Fraction(1, 10**400), s - 1 - Fraction(1, 10**20)):
            tau, deficit = _mean_vector(theta, Base(s))
            assert tau.mean() == theta and min(tau.entries) >= 0 and deficit <= MEAN_DEFICIT

    def test_theta_past_the_doublings_is_refused(self, monkeypatch):
        # theta = 1/100 needs a D past 2**16; with no doubling allowed it is
        # refused.
        import adiclab.construct as construct

        monkeypatch.setattr(construct, "_MAX_DOUBLINGS", 0)
        with pytest.raises(ValueError, match=r"^no vector over D = 65500 \* 2\*\*k, k <= 0, has mean exactly 1/100 in base 4$"):
            mean_target_stream(Fraction(1, 100))
        assert mean_target_stream(Fraction(1, 4))._period is not None

    def test_set_up_is_linear_and_takes_no_lcm(self, monkeypatch):
        # Base 10000 at theta = 5000, where every entry is nonzero and
        # distinct: each D tried rounds at most s entries, and the vector is
        # checked once in its own integers. No lcm is taken at all: the
        # vector's denominator is the greedy stream's period.
        import adiclab.construct as construct

        rounded = []
        numerators = construct._mean_numerators

        def counted(window, *args):
            rounded.append(len(window[0]))
            return numerators(window, *args)

        def no_lcm(*args):
            raise AssertionError("an lcm was taken")

        monkeypatch.setattr(construct, "_mean_numerators", counted)
        monkeypatch.setattr(construct.math, "lcm", no_lcm)
        s = 10000
        stream = mean_target_stream(Fraction(5000), Base(s))
        assert 1 <= len(rounded) <= 8 and max(rounded) <= s
        assert stream.prefix(10).base.s == s

    def test_negative_patched_entry_is_refused_by_from_numerators(self):
        # The point mass at 0 has mean 0, below 1/2, so it is mixed with the
        # point mass at the last digit: (1/2, 1/2) over D = 2.
        assert _mean_numerators(_integer_window((1.0, 0.0)), 0, Fraction(1, 2), 2) == [1, 1]
        assert _mean_numerators(_integer_window((0.5, 0.5)), 0, Fraction(1, 2), 2) == [1, 1]
        # (4, 3, 0, 1)/8 has mean 3/4, so mean 1/4 mixes it with the point
        # mass at 0: tau*8 = (6 - 2/3, 1, 0, 1/3). One entry rounds up, at
        # frame index 1, whatever the fractional parts.
        assert _mean_numerators(_integer_window((0.5, 0.375, 0.0, 0.125)), 0, Fraction(1, 4), 8) == [6, 2, 0, 0]
        with pytest.raises(ValueError, match="negative entry"):
            ProbabilityVector.from_numerators([-1, 3, 0, 0], 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=40).filter(any),
        st.integers(0, 5),
        st.integers(1, 60),
        st.integers(1, 10**6),
        st.data(),
    )
    def test_numerators_of_any_float_weights(self, weights, first, den, scale, data):
        # Float simplex weights, a theta in [first, last digit) and a d over
        # its denominator: the rule never fails, the integers sum to d with
        # index sum theta*d, and each lies within one unit of D*tau_i.
        weights = [w / math.fsum(weights) for w in weights]
        assume(any(weights))
        theta = first + Fraction(data.draw(st.integers(0, (len(weights) - 1) * den - 1)), den)
        d = theta.denominator * scale
        nums = _mean_numerators(_integer_window(weights), first, theta, d)
        assert len(nums) == len(weights) and min(nums) >= 0
        assert sum(nums) == d
        assert sum(i * n for i, n in enumerate(nums, first)) == theta * d
        moved, _ = self._moved(weights, first, theta)
        assert all(abs(n - x * d) <= 1 for n, x in zip(nums, moved))

    @pytest.mark.parametrize(
        "theta, s",
        [
            (Fraction(1, 3), 4),
            (Fraction(89, 354), 4),
            (Fraction(1, 100), 4),
            (Fraction(1, 10**400), 4),
            (Fraction(37, 10), 10),
            (Fraction(1, 2), 300),
            (Fraction(150), 300),
            (Fraction(5000), 10**4),
        ],
    )
    def test_every_entry_is_within_one_unit(self, theta, s, monkeypatch):
        # Each n_i of the vector taken lies within one unit of D*tau_i, tau
        # the window moved to mean theta (`_moved`).
        import adiclab.construct as construct

        calls = []

        def recorded(window, first, th, d):
            # The window's integers are the weights over one power of two,
            # which moves to the same tau.
            calls.append((window[0], first, d, numerators(window, first, th, d)))
            return calls[-1][-1]

        numerators = construct._mean_numerators
        monkeypatch.setattr(construct, "_mean_numerators", recorded)
        tau, _ = _mean_vector(theta, Base(s))
        weights, first, d, nums = calls[-1]
        moved, _ = self._moved(weights, first, theta)
        assert all(abs(n - x * d) <= 1 for n, x in zip(nums, moved)), theta
        assert [Fraction(n, d) for n in nums] == list(tau.entries[first : first + len(nums)])

    def test_reflected_theta_gives_the_reversed_vector(self):
        # The rule treats both ends alike, so s-1-theta gets the vector of
        # theta reversed.
        grid = [
            *((4, Fraction(k, 100)) for k in range(1, 300)),
            *((10, Fraction(k, 10)) for k in range(1, 90)),
            *((300, theta) for theta in (Fraction(1, 2), Fraction(10), Fraction(299, 2), Fraction(290))),
        ]
        assert len(grid) == 392
        for s, theta in grid:
            tau, _ = _mean_vector(theta, Base(s))
            reflected, _ = _mean_vector(s - 1 - theta, Base(s))
            assert reflected.entries == tau.entries[::-1], (s, theta)

    @pytest.mark.parametrize("s, theta, most", [(10**4, 5000, 2**24), (4 * 10**4, 20000, 2**26), (4 * 10**5, 200000, 2**29)])
    def test_mid_range_denominator_stays_near_s_times_a_constant(self, s, theta, most, monkeypatch):
        # The deficit falls as 1/D**2 with no s**3 term, so a mid-range theta
        # in a large base needs D of only a few thousand times s.
        import adiclab.construct as construct

        tried = []
        numerators = construct._mean_numerators

        def counted(window, first, th, d):
            tried.append(d)
            return numerators(window, first, th, d)

        monkeypatch.setattr(construct, "_mean_numerators", counted)
        tau, _ = _mean_vector(Fraction(theta), Base(s))
        assert tau.mean() == theta and tried[-1] <= most

    @pytest.mark.parametrize("theta, s", [(Fraction(1, 100), 4), (Fraction(5000), 10**4)])
    def test_window_is_read_once_per_theta(self, theta, s, monkeypatch):
        # The float window becomes integers once, however many D are tried.
        import adiclab.construct as construct

        windows, tried = [], []
        integer_window, numerators = construct._integer_window, construct._mean_numerators

        def read(weights):
            windows.append(integer_window(weights))
            return windows[-1]

        def counted(window, first, th, d):
            assert window is windows[-1]
            tried.append(d)
            return numerators(window, first, th, d)

        monkeypatch.setattr(construct, "_integer_window", read)
        monkeypatch.setattr(construct, "_mean_numerators", counted)
        tau, _ = _mean_vector(theta, Base(s))
        assert tau.mean() == theta
        assert len(windows) == 1 and len(tried) >= 2, tried


class TestPrefixDistinguish:
    def test_immediate_difference(self):
        a = mean_target_stream(0)
        b = mean_target_stream(3)
        result = prefix_distinguish(a, b, 10)
        assert result.differs and result.index == 1

    def test_identical_streams_undetermined(self):
        a, b = expand(Fraction(1, 3)), expand(Fraction(1, 3))
        result = prefix_distinguish(a, b, 100)
        assert not result.differs and result.index is None

    def test_block_pair_differ_early(self):
        spec = ScheduleSpec.polynomial(1)
        a = block_stream(ColumnSchedule.constant(ProbabilityVector.parse("1/4,1/4,1/4,1/4")), spec)
        b = block_stream(ColumnSchedule.constant(ProbabilityVector.parse("1/2,1/2,0,0")), spec)
        result = prefix_distinguish(a, b, 100)
        assert result.differs and result.index <= 100

    def test_symmetry_and_monotonicity(self):
        a = expand(Fraction(1, 5))
        b = expand(Fraction(1, 7))
        fwd = prefix_distinguish(a, b, 50)
        rev = prefix_distinguish(b, a, 50)
        assert fwd.index == rev.index
        assert prefix_distinguish(a, b, fwd.index).index == fwd.index

    def test_horizon_validation(self):
        a = expand(Fraction(1, 3))
        with pytest.raises(ValueError):
            prefix_distinguish(a, a, 0)

    def test_stream_ending_before_the_horizon_is_refused(self):
        # Position 3 exists in only one stream: neither agreement nor difference.
        short, long = stream_from_digits((0, 1)), stream_from_digits((0, 1, 2))
        for a, b in ((short, long), (long, short), (short, short)):
            with pytest.raises(ValueError, match="stream ended after 2 digits"):
                prefix_distinguish(a, b, 3)
        assert prefix_distinguish(short, long, 2) == DistinguishResult(False, None, 2)
        # A difference before the end is still a difference.
        assert prefix_distinguish(short, stream_from_digits((1, 1, 2)), 3).index == 1


class TestConfigParsing:
    def test_schedule_round_trip(self):
        docs = {
            '{"family": "polynomial", "degree": 2}': ScheduleSpec.polynomial(2),
            '{"family": "affine", "a": "2", "b": "1"}': ScheduleSpec.affine(2, 1),
            '{"family": "affine", "a": 2, "b": 1}': ScheduleSpec.affine(2, 1),
            '{"family": "geometric", "ratio": "3"}': ScheduleSpec.geometric(3),
        }
        for doc, spec in docs.items():
            assert schedule_from_config(json.loads(doc)) == spec

    def test_columns_config_must_be_an_object(self):
        with pytest.raises(ValueError, match=r"^columns config must be an object with a 'kind' key, got \[\]$"):
            columns_from_config([])

    def test_constant_columns_config(self):
        columns = columns_from_config({"kind": "constant", "tau": ["1/4", "1/4", "1/4", "1/4"]})
        assert columns.column(7).entries == (Fraction(1, 4),) * 4
        assert columns.mean == Fraction(3, 2)

    def test_constant_columns_with_declared_theta(self):
        columns = columns_from_config(
            {"kind": "constant", "tau": ["1/6", "1/3", "1/3", "1/6"], "theta": "3/2"}
        )
        assert columns.mean == Fraction(3, 2)
        # Rationals may be JSON integers too.
        assert columns_from_config({"kind": "constant", "tau": [0, 1, 0, 0], "theta": 1}).mean == 1

    def test_converging_columns_config(self):
        columns = columns_from_config(
            {"kind": "converging", "limit": ["1/2", "1/2", "0", "0"], "mix_digit": 2}
        )
        expected = ColumnSchedule.converging(ProbabilityVector.parse("1/2,1/2,0,0"), 2, "harmonic")
        for n in (1, 2, 7, 100):
            assert columns.column(n) == expected.column(n)
        assert columns.mean is None

    def test_explicit_columns_config(self):
        columns = columns_from_config(
            {
                "kind": "explicit",
                "columns": [["1", "0", "0", "0"]],
                "tail": ["0", "0", "0", "1"],
            }
        )
        assert columns.column(1).entries == (1, 0, 0, 0)
        assert columns.column(5).entries == (0, 0, 0, 1)

    def test_full_document(self):
        doc = {
            "schedule": {"family": "polynomial", "degree": 1},
            "columns": {"kind": "constant", "tau": ["1/4", "1/4", "1/4", "1/4"]},
        }
        columns, spec = columns_from_config(doc["columns"]), schedule_from_config(doc["schedule"])
        assert spec == ScheduleSpec.polynomial(1)
        assert block_stream(columns, spec).prefix(4).digits == (0, 1, 2, 3)

    def test_bad_configs(self):
        with pytest.raises(ValueError):
            schedule_from_config({"degree": 1})
        with pytest.raises(ValueError):
            schedule_from_config({"family": "fibonacci"})
        with pytest.raises(ValueError):
            columns_from_config({"kind": "drifting"})
        with pytest.raises(ValueError):
            ColumnSchedule.converging(ProbabilityVector.parse("1/2,1/2,0,0"), mix_digit=7)
        with pytest.raises(ValueError):
            ColumnSchedule.converging(ProbabilityVector.parse("1/2,1/2,0,0"), 2, rate="cubic")
