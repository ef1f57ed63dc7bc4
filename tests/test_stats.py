from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adiclab.digits import BASE4, DigitPrefix, constant_stream, expand
from adiclab.stats import (
    DEFAULT_CHECKPOINTS,
    FreqReport,
    convergence_trace,
    digit_counts,
    format_decimal,
    freq_report,
    weak_normality_verdict,
)

prefix_digits = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=200)


class TestDigitCounts:
    def test_empty(self):
        assert digit_counts(DigitPrefix(BASE4, ())) == (0, 0, 0, 0)

    def test_all_threes(self):
        assert digit_counts(DigitPrefix(BASE4, (3, 3, 3))) == (0, 0, 0, 3)

    def test_mixed(self):
        assert digit_counts(DigitPrefix(BASE4, (0, 1, 0, 1, 2))) == (2, 2, 1, 0)


class TestFreqReport:
    def test_all_threes(self):
        rep = freq_report(DigitPrefix(BASE4, (3, 3)))
        assert rep.freqs == (0, 0, 0, 1)
        assert rep.mean == 3

    def test_one_of_each(self):
        rep = freq_report(DigitPrefix(BASE4, (0, 1, 2, 3)))
        assert rep.freqs == (Fraction(1, 4),) * 4
        assert rep.mean == Fraction(3, 2)

    def test_tally_oracle(self):
        rep = freq_report(DigitPrefix(BASE4, (1, 1, 0, 2)))
        assert rep.freqs == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 0)
        assert rep.mean == 1

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            freq_report(DigitPrefix(BASE4, ()))

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            FreqReport(
                n=2,
                counts=(1, 1, 0, 0),
                freqs=(Fraction(1, 2), Fraction(1, 2), 0, 0),
                mean=Fraction(3, 2),  # true mean is 1/2
            )

    @given(prefix_digits)
    def test_exact_identities(self, digits):
        p = DigitPrefix(BASE4, tuple(digits))
        rep = freq_report(p)
        assert sum(rep.counts) == rep.n == len(digits)
        assert sum(rep.freqs) == 1
        # Digit-sum route equals the count route exactly.
        assert rep.mean == Fraction(sum(digits), len(digits))
        assert 0 <= rep.mean <= 3

    @given(prefix_digits, st.integers(min_value=0, max_value=3))
    def test_incremental_consistency(self, digits, extra):
        before = freq_report(DigitPrefix(BASE4, tuple(digits)))
        after = freq_report(DigitPrefix(BASE4, (*digits, extra)))
        delta = [b - a for a, b in zip(before.counts, after.counts)]
        assert delta[extra] == 1 and sum(delta) == 1


class TestConvergenceTrace:
    def test_constant_stream(self):
        trace = convergence_trace(constant_stream(3), (10, 100))
        assert [r.mean for r in trace.reports] == [3, 3]

    def test_expansion_of_third(self):
        trace = convergence_trace(expand(Fraction(1, 3)), (1000,))
        assert trace.reports[0].freqs == (0, 1, 0, 0)
        assert trace.reports[0].mean == 1

    def test_expansion_of_fifth_alternates(self):
        trace = convergence_trace(expand(Fraction(1, 5)), (10, 10**4))
        final = trace.reports[-1]
        assert final.freqs == (Fraction(1, 2), 0, 0, Fraction(1, 2))

    def test_greedy_uniform_near_uniform_at_scale(self):
        from adiclab.construct import ProbabilityVector, greedy_stream

        stream = greedy_stream(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        rep = convergence_trace(stream, (10**5,)).reports[0]
        assert max(abs(f - Fraction(1, 4)) for f in rep.freqs) <= Fraction(1, 1000)

    def test_checkpoint_validation(self):
        stream = constant_stream(0)
        with pytest.raises(ValueError):
            convergence_trace(stream, ())
        with pytest.raises(ValueError):
            convergence_trace(stream, (10, 10))
        with pytest.raises(ValueError):
            convergence_trace(stream, (0, 5))

    def test_finite_source_exhaustion(self):
        from adiclab.digits import stream_from_digits

        with pytest.raises(ValueError, match="ended at 3"):
            convergence_trace(stream_from_digits((1, 2, 3)), (10,))

    def test_default_checkpoints_shape(self):
        assert DEFAULT_CHECKPOINTS == (10, 100, 1000, 10**4, 10**5, 10**6)

    def test_csv_format(self):
        trace = convergence_trace(expand(Fraction(1, 3)), (2, 4))
        assert trace.to_csv() == "n,v0,v1,v2,v3,r_n\n2,0,1,0,0,1\n4,0,1,0,0,1\n"

    def test_csv_precision(self):
        trace = convergence_trace(expand(Fraction(1, 5)), (3,))
        # freqs (2/3, 0, 0, 1/3) at n=3: digits 0,3,0
        row = trace.to_csv(precision=3).splitlines()[1]
        assert row == "3,0.667,0,0,0.333,1"

    def test_json_mirror(self):
        trace = convergence_trace(expand(Fraction(1, 3)), (2,))
        doc = trace.to_json_dict()
        assert doc["base"] == 4
        assert doc["checkpoints"] == [2]
        assert doc["reports"][0] == {
            "n": 2,
            "counts": [0, 2, 0, 0],
            "freqs": ["0", "1", "0", "0"],
            "mean": "1",
        }


class TestWeakNormality:
    def test_exact_uniform_with_zero_tolerance(self):
        verdict = weak_normality_verdict(freq_report(DigitPrefix(BASE4, (0, 1, 2, 3))), 0)
        assert verdict.consistent and verdict.max_deviation == 0

    def test_point_mass_is_inconsistent(self):
        report = freq_report(DigitPrefix(BASE4, (0, 0, 0, 0)))
        verdict = weak_normality_verdict(report, Fraction(1, 8))
        assert not verdict.consistent
        assert verdict.max_deviation == Fraction(3, 4)

    def test_greedy_uniform_prefix_is_consistent(self):
        from adiclab.construct import ProbabilityVector, greedy_stream

        stream = greedy_stream(ProbabilityVector.parse("1/4,1/4,1/4,1/4"))
        verdict = weak_normality_verdict(freq_report(stream.prefix(10**4)), Fraction(1, 100))
        assert verdict.consistent

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            weak_normality_verdict(freq_report(DigitPrefix(BASE4, (0,))), Fraction(-1, 10))


class TestPeriodicDeviationBound:
    @pytest.mark.parametrize("x", [Fraction(1, 6), Fraction(1, 5), Fraction(3, 28)])
    def test_deviation_at_period_boundaries(self, x):
        stream = expand(x)
        pre, per = stream.eventual_period
        period_counts = [0] * 4
        for d in per:
            period_counts[d] += 1
        for m in (1, 2, 7, 40):
            n = len(pre) + m * len(per)
            rep = freq_report(stream.prefix(n))
            for i in range(4):
                deviation = abs(rep.freqs[i] - Fraction(period_counts[i], len(per)))
                assert deviation <= Fraction(len(pre), n)


class TestFormatDecimal:
    def test_significant_digits(self):
        assert format_decimal(Fraction(1, 3), 3) == "0.333"
        assert format_decimal(Fraction(1, 4)) == "0.25"
        assert format_decimal(Fraction(2, 3), 12) == "0.666666666667"

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            format_decimal(Fraction(1, 3), 0)
