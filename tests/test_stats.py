import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adiclab import stats
from adiclab.digits import BASE4, CHUNK_DIGITS, Base, DigitPrefix, constant_stream, expand, stream_from_digits
from adiclab.stats import (
    DEFAULT_CHECKPOINTS,
    ConvergenceTrace,
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

    @given(st.data(), st.sampled_from([2, 4, 300]))
    def test_matches_a_per_digit_tally(self, data, s):
        # Base 300 holds its digits in an array("Q") chunk, the others in bytes.
        digits = data.draw(st.lists(st.integers(0, s - 1), max_size=50))
        expected = [0] * s
        for d in digits:
            expected[d] += 1
        assert digit_counts(DigitPrefix(Base(s), digits)) == tuple(expected)

    @pytest.mark.parametrize("count", [True, False], ids=["count", "bincount"])
    def test_tally_is_cross_checked(self, monkeypatch, count):
        # The counts are refused as a report's are; an empty prefix has none to check.
        if not count:
            monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
        monkeypatch.setattr(stats, "_tally", one_count_moved(stats._tally))
        with pytest.raises(AssertionError, match="digit counts disagree with the digit sum or the length"):
            digit_counts(DigitPrefix(BASE4, (1, 2, 3)))
        assert digit_counts(DigitPrefix(BASE4, ())) == (0, 0, 0, 0)


def one_count_moved(tally):
    """`tally` with one count moved from digit 1 to digit 0: the length
    holds and the digit sum breaks."""

    def faulty(chunk, s, count):
        counts = list(tally(chunk, s, count))
        if counts[1]:
            counts[0], counts[1] = counts[0] + 1, counts[1] - 1
        return counts if count else np.array(counts)

    return faulty


def record_pieces(monkeypatch) -> list[tuple[bool, int]]:
    """Patch `stats._tally` to append each piece's path (True: counted
    without numpy) and length to the list returned."""
    tally, pieces = stats._tally, []

    def recorded(chunk, s, count):
        pieces.append((count, len(chunk)))
        return tally(chunk, s, count)

    monkeypatch.setattr(stats, "_tally", recorded)
    return pieces


# Digit values mod s, byte by byte, to draw a random piece in base s.
MOD_TABLES = {s: bytes(b % s for b in range(256)) for s in range(2, 11)}


class TestTallyPaths:
    @given(
        st.integers(2, 10),
        st.integers(0, CHUNK_DIGITS),
        st.sampled_from(["random", "top"]),
        st.randoms(use_true_random=False),
    )
    @example(2, 0, "random", random.Random(0))
    @example(10, CHUNK_DIGITS, "top", random.Random(0))
    @example(7, CHUNK_DIGITS, "random", random.Random(1))
    @settings(deadline=None)
    def test_count_and_bincount_agree(self, s, length, fill, rng):
        # Empty pieces, pieces of all s - 1 digits and random pieces up to
        # CHUNK_DIGITS digits, in every base the count path takes.
        if fill == "top":
            piece = bytes([s - 1]) * length
        else:
            piece = rng.randbytes(length).translate(MOD_TABLES[s])
        counted = stats._tally(piece, s, True)
        binned = stats._tally(piece, s, False)
        assert isinstance(counted, list) and counted == binned.tolist()
        assert counted == [piece.count(d) for d in range(s)] and sum(counted) == length
        # The digit sum does not depend on the path that counts the piece.
        assert stats._digit_sum(piece, s) == sum(piece)

    def test_the_rule(self, monkeypatch):
        # In a base up to 16, the pieces are counted while the digits counted,
        # the piece's included, are at most 2**20, and bincounted after (a
        # piece that crosses 2**20, whole); a larger base is bincounted from
        # its first piece. Nothing else, such as a loaded numpy, moves the tally.
        assert stats._COUNT_DIGITS == 2**20 and "numpy" in sys.modules
        pieces = record_pieces(monkeypatch)
        cases = [
            # base, digits, checkpoints, digits counted, digits bincounted
            (4, 2**20, None, 2**20, 0),
            # To its end, a piece starts at the last default checkpoint, 10**6.
            (16, 2**20 + 1, None, 10**6, 2**20 + 1 - 10**6),
            (10, 2**20 + 1, (2**20,), 2**20, 0),
            (2, 2**20 + 1, (10, 2**20 + 1), 10 + 15 * CHUNK_DIGITS, 2**20 + 1 - 10 - 15 * CHUNK_DIGITS),
            (17, 10, None, 0, 10),
        ]
        for s, length, points, counted, binned in cases:
            pieces.clear()
            digits = bytes(d % s for d in range(length))
            trace = stats._trace(Base(s), (digits,), points)
            paths = [count for count, _ in pieces]
            assert paths == sorted(paths, reverse=True), s
            assert sum(n for count, n in pieces if count) == counted, s
            assert sum(n for count, n in pieces if not count) == binned, s
            assert trace.reports[-1].counts == tuple(digits[: counted + binned].count(d) for d in range(s))

    @pytest.mark.parametrize("count", [True, False], ids=["count", "bincount"])
    def test_both_paths_give_one_trace(self, monkeypatch, count):
        digits = bytes(d % 7 for d in range(3 * CHUNK_DIGITS + 5))
        points = (1, 10, CHUNK_DIGITS + 1, len(digits))
        if not count:
            monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
        got = convergence_trace(stream_from_digits(digits, Base(7)), points)
        assert [r.counts for r in got.reports] == [tuple(digits[:n].count(d) for d in range(7)) for n in points]
        assert digit_counts(DigitPrefix(Base(7), digits)) == got.reports[-1].counts

    def test_every_tally_is_at_most_one_chunk(self, monkeypatch, tmp_path):
        # Four chunks' digits, held in one chunk or read from a file: every
        # entry point cuts them into pieces of at most CHUNK_DIGITS digits.
        from adiclab.cli import main
        from adiclab.digits import digit_text

        tally, lengths = stats._tally, []

        def recorded(chunk, s, count):
            lengths.append(len(chunk))
            return tally(chunk, s, count)

        monkeypatch.setattr(stats, "_tally", recorded)
        digits = bytes(range(4)) * CHUNK_DIGITS
        source = tmp_path / "digits.txt"
        source.write_text(digit_text(digits) + "\n")
        runs = {
            "digit_counts": lambda: digit_counts(DigitPrefix(BASE4, digits)),
            "freq_report": lambda: freq_report(DigitPrefix(BASE4, digits)),
            "convergence_trace": lambda: convergence_trace(stream_from_digits(digits), (10, len(digits))),
            "analyze --in": lambda: main(["analyze", "--in", str(source), "--out", str(tmp_path / "a.csv")]),
        }
        for name, run in runs.items():
            lengths.clear()
            run()
            assert sum(lengths) == len(digits) and max(lengths) <= CHUNK_DIGITS, name

    @pytest.mark.parametrize("switch", [60, 100])
    @pytest.mark.parametrize("s", [2, 4, 10, 16])
    def test_a_trace_that_crosses_the_switch(self, monkeypatch, s, switch):
        # Checkpoints before, at and after the switch, chunk edges off it;
        # at 60 the piece from 37 to 99 crosses it and is bincounted whole.
        digits = bytes((7 * d + d // 3) % s for d in range(1000))
        chunks = [digits[:37], digits[37:250], digits[250:]]
        points = (5, 99, 100, 101, 250, 1000)
        monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
        want = stats._trace(Base(s), chunks, points)
        assert [r.counts for r in want.reports] == [tuple(digits[:n].count(d) for d in range(s)) for n in points]
        monkeypatch.setattr(stats, "_COUNT_DIGITS", switch)
        pieces = record_pieces(monkeypatch)
        assert stats._trace(Base(s), chunks, points) == want
        counted = {60: 2, 100: 4}[switch]  # pieces end at 5, 37, 99, 100, 101, 250, 1000
        assert [count for count, _ in pieces] == [True] * counted + [False] * (7 - counted)
        # A moved count in a piece after the switch is still refused.
        tally, moved = stats._tally, one_count_moved(stats._tally)
        monkeypatch.setattr(stats, "_tally", lambda chunk, s, count: (tally if count else moved)(chunk, s, count))
        with pytest.raises(AssertionError, match="digit counts disagree"):
            stats._trace(Base(s), chunks, points)


BYTE_BASES = range(2, 257)


class TestDigitSum:
    """`_digit_sum` of a bytes piece: adler32's low half over spans of
    65520 // (s - 1) digits, whose sums stay below the modulus 65521."""

    def test_a_full_span_sums_to_its_edge(self):
        # All s - 1 digits fill a span to the largest sum it can hold: 65520
        # where s - 1 divides it (base 2, all ones; base 10, all nines). One
        # more digit in a span would pass the modulus.
        for s in BYTE_BASES:
            span = 65520 // (s - 1)
            for length in (span - 1, span, span + 1, 2 * span, CHUNK_DIGITS):
                piece = bytes([s - 1]) * length
                assert stats._digit_sum(piece, s) == (s - 1) * length, (s, length)

    @pytest.mark.parametrize("count", [True, False], ids=["count", "bincount"])
    def test_a_trace_of_full_spans_on_each_path(self, monkeypatch, count):
        # Two chunks of all s - 1 digits in every byte base pass the trace's
        # cross-check, on the count path (bases up to 16) and on bincount.
        if not count:
            monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
        pieces = record_pieces(monkeypatch)
        for s in BYTE_BASES if not count else range(2, 17):
            top = bytes([s - 1]) * CHUNK_DIGITS
            report = stats._trace(Base(s), (top, top), (10, 2 * CHUNK_DIGITS)).reports[-1]
            assert report.counts[-1] == 2 * CHUNK_DIGITS
        assert {path for path, _ in pieces} == {count}

    @pytest.mark.parametrize("s", [2, 4, 10, 16, 200, 256])
    def test_one_call_per_span(self, monkeypatch, s):
        # One adler32 call per span, so a piece that fits in one span is one call.
        import zlib

        adler32, spans = zlib.adler32, []

        def recorded(data, value):
            spans.append(len(data))
            return adler32(data, value)

        monkeypatch.setattr(zlib, "adler32", recorded)
        span = 65520 // (s - 1)
        for length in (1, span, span + 1, CHUNK_DIGITS):
            spans.clear()
            piece = bytes(d % s for d in range(length))
            assert stats._digit_sum(piece, s) == sum(piece)
            assert spans == [min(span, length - i) for i in range(0, length, span)], length


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

    @pytest.mark.parametrize("count", [True, False], ids=["count", "bincount"])
    def test_tally_is_cross_checked(self, monkeypatch, count):
        # The report must be refused, as a trace report is.
        if not count:
            monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
        monkeypatch.setattr(stats, "_tally", one_count_moved(stats._tally))
        with pytest.raises(AssertionError, match="digit counts disagree"):
            freq_report(DigitPrefix(BASE4, (1, 2, 3)))

    def test_long_prefix_is_summed_in_bounded_pieces(self, monkeypatch):
        digit_sum, pieces = stats._digit_sum, []

        def recorded(piece, s):
            pieces.append(len(piece))
            return digit_sum(piece, s)

        monkeypatch.setattr(stats, "_digit_sum", recorded)
        rep = freq_report(DigitPrefix(BASE4, bytes(range(4)) * CHUNK_DIGITS))
        assert rep.counts == (CHUNK_DIGITS,) * 4
        assert pieces == [CHUNK_DIGITS] * 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FreqReport((-1, 2))

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="at least one digit"):
            FreqReport((0, 0, 0, 0))

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

    @pytest.mark.parametrize("points", [(2.7, 10.5), ("3",), (10, 20.0)])
    def test_checkpoints_must_be_integers(self, points):
        # A float or a string is refused, not truncated to an int.
        with pytest.raises(TypeError):
            convergence_trace(constant_stream(0), points)

    def test_numpy_integer_checkpoints_are_accepted(self):
        trace = convergence_trace(constant_stream(1), np.array([2, 5]))
        assert trace.checkpoints == (2, 5)

    def test_finite_source_exhaustion(self):
        from adiclab.digits import stream_from_digits

        with pytest.raises(ValueError, match="ended at 3"):
            convergence_trace(stream_from_digits((1, 2, 3)), (10,))

    @pytest.mark.parametrize("fault", [lambda c: c[1:] + c[:1], lambda c: [2 * x for x in c]], ids=["digit", "length"])
    def test_tally_is_cross_checked(self, monkeypatch, fault):
        # On each path: a permuted count breaks the digit sum, a doubled one the length.
        tally = stats._tally
        for count in (True, False):
            paths = []

            def faulty(chunk, s, on_count_path):
                paths.append(on_count_path)
                counts = fault(list(tally(chunk, s, on_count_path)))
                return counts if on_count_path else np.array(counts)

            if not count:
                monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
            monkeypatch.setattr(stats, "_tally", faulty)
            with pytest.raises(AssertionError, match="digit counts disagree"):
                convergence_trace(constant_stream(3), (10,))
            assert paths and set(paths) == {count}

    @pytest.mark.parametrize("s", [*BYTE_BASES, 257, 300, 2**40])
    def test_digit_sum_matches_the_builtin_sum(self, monkeypatch, s):
        # Up to base 256 a piece is bytes, summed by adler32 spans without
        # numpy, whichever path counts it; above it an array("Q"), summed by
        # numpy. Empty, all s - 1, random and mixed pieces.
        from array import array

        from adiclab.digits import to_chunk

        if s <= 256:
            monkeypatch.setitem(sys.modules, "numpy", None)
        top = [s - 1] * CHUNK_DIGITS
        rng = random.Random(s)
        random_digits = rng.choices(range(s), k=rng.randrange(CHUNK_DIGITS))
        for digits in ([], [0], top, [d % s for d in range(CHUNK_DIGITS)], top[:-1] + [0], random_digits):
            piece = to_chunk(digits, Base(s))
            assert isinstance(piece, bytes if s <= 256 else array)
            assert stats._digit_sum(piece, s) == sum(piece) == sum(digits)

    def test_digit_sum_is_cross_checked(self, monkeypatch):
        # One digit sum serves both paths, and a wrong one is refused on each.
        digit_sum = stats._digit_sum
        monkeypatch.setattr(stats, "_digit_sum", lambda piece, s: digit_sum(piece, s) + 1)
        pieces = record_pieces(monkeypatch)
        for count in (True, False):
            if not count:
                monkeypatch.setattr(stats, "_COUNT_DIGITS", 0)
            pieces.clear()
            with pytest.raises(AssertionError, match="digit counts disagree"):
                convergence_trace(constant_stream(3), (10,))
            assert pieces and {path for path, _ in pieces} == {count}

    def test_long_chunks_are_tallied_in_bounded_pieces(self):
        # One 4 * 10**6-digit chunk: an intp copy of it alone is 30.5 MiB.
        from adiclab.digits import stream_from_digits

        digits = bytes(range(4)) * 10**6
        stream, prefix = stream_from_digits(digits), DigitPrefix(BASE4, digits)
        points = (10, 1001, 10**6, 4 * 10**6)
        tracemalloc.start()
        try:
            trace = convergence_trace(stream, points)
            counts = digit_counts(prefix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert [r.counts for r in trace.reports] == [
            (3, 3, 2, 2), (251, 250, 250, 250), (250000,) * 4, (10**6,) * 4
        ]
        assert counts == (10**6,) * 4

    def test_to_end_takes_the_end_as_the_last_checkpoint(self):
        # Without points, a trace takes DEFAULT_CHECKPOINTS below the end, then the end.
        chunks = [bytes(7), bytes(3), bytes(95)]
        trace = stats._trace(BASE4, chunks)
        assert trace.checkpoints == (10, 100, 105)
        assert stats._trace(BASE4, chunks[:2]).checkpoints == (10,)
        # With points, chunks past the last checkpoint are read, not tallied.
        read = []
        trace = stats._trace(BASE4, (read.append(c) or c for c in chunks), (5,))
        assert trace.checkpoints == (5,) and len(read) == 3

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


class TestSerializationFromCounts:
    @staticmethod
    def assert_cells_are_exact(counts, precision):
        rep = FreqReport(counts)
        n = sum(counts)
        freqs = [format_decimal(Fraction(c, n), precision) for c in counts]
        mean = format_decimal(Fraction(sum(i * c for i, c in enumerate(counts)), n), precision)
        assert rep.to_json_dict(precision) == {"n": n, "counts": list(counts), "freqs": freqs, "mean": mean}
        trace = ConvergenceTrace(Base(len(counts)), (n,), (rep,))
        assert trace.to_csv(precision).splitlines()[1] == ",".join([str(n), *freqs, mean])

    @given(st.data(), st.sampled_from([2, 4, 10, 300]), st.integers(1, 17))
    def test_cells_equal_the_exact_fractions(self, data, s, precision):
        counts = data.draw(st.lists(st.integers(0, 2**70), min_size=s, max_size=s))
        counts[data.draw(st.integers(0, s - 1))] += 1
        self.assert_cells_are_exact(tuple(counts), precision)

    @pytest.mark.parametrize(
        "counts",
        [
            (2**53 + 1, 2**53 - 1, 3, 0),
            (1, 2**64 + 1),
            (2**64 - 1, 2**64, 2**64 + 1, 7, 0, 0, 0, 0, 0, 10**30),
            (3**60, 5**40, 7**30, 11**25),
        ],
    )
    def test_counts_past_the_float_mantissa(self, counts):
        for precision in (1, 12, 17):
            self.assert_cells_are_exact(counts, precision)


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
