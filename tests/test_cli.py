import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from adiclab import _digitfile
from adiclab.cli import COMMANDS, ExperimentConfig, UsageError, _parse_sweep, build_parser, effective_config, main
from adiclab.digits import CHUNK_DIGITS, Base, DigitStream, expand, parse_digit_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


UNIFORM_COLUMNS = {"kind": "constant", "tau": ["1/4", "1/4", "1/4", "1/4"]}
CONVERGING_COLUMNS = {"kind": "converging", "limit": ["1/2", "1/2", "0", "0"], "mix_digit": 2}


class TestConstruct:
    def test_mean_zero(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--mean", "0", "--length", "10")
        assert code == 0
        assert out.strip() == "0000000000"

    def test_greedy_half(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--tau", "1/2,1/2,0,0", "--length", "6")
        assert code == 0
        assert out.strip() == "010101"

    def test_expand_third(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--rational", "1/3", "--base", "4", "--length", "5"
        )
        assert code == 0
        assert out.strip() == "11111"

    def test_block_config(self, tmp_path, capsys):
        config = tmp_path / "blocks.json"
        config.write_text(
            json.dumps(
                {
                    "schedule": {"family": "polynomial", "degree": 1},
                    "columns": {"kind": "constant", "tau": ["1/4", "1/4", "1/4", "1/4"]},
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "construct", "--config", str(config), "--length", "8"
        )
        assert code == 0
        assert out.strip() == "01230123"

    def test_file_output_with_header_and_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "digits.txt"
        code, _, _ = run_cli(
            capsys, "construct", "--mean", "3", "--length", "12", "--out", str(out_path)
        )
        assert code == 0
        header, digits = out_path.read_text().splitlines()
        assert digits == "3" * 12

        sidecar = json.loads((tmp_path / "digits.txt.json").read_text())
        cfg = ExperimentConfig.from_json_dict(sidecar["config"])
        # The header hash must match a re-serialization of the config.
        assert header == f"# adiclab 0.1.0 config={cfg.config_hash()}"
        assert sidecar["provenance"]["config_hash"] == cfg.config_hash()

    def test_reproducible_outputs(self, tmp_path, capsys):
        # Identical configs must produce byte-identical outputs.
        path = tmp_path / "digits.txt"
        argv = ("construct", "--tau", "1/10,2/10,3/10,4/10", "--length", "500", "--out", str(path))
        assert run_cli(capsys, *argv)[0] == 0
        first = path.read_bytes()
        assert run_cli(capsys, *argv)[0] == 0
        assert path.read_bytes() == first

    def test_failed_stream_leaves_no_partial_artifact(self, tmp_path, capsys):
        # The declared mean 3/2 breaks at column 4, after digits were emitted.
        balanced = ["1/6", "1/3", "1/3", "1/6"]
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "schedule": {"family": "polynomial", "degree": 1},
                    "columns": {
                        "kind": "explicit",
                        "theta": "3/2",
                        "columns": [balanced] * 3 + [["1/2", "1/2", "0", "0"]],
                        "tail": balanced,
                    },
                }
            )
        )
        out_path = tmp_path / "out.txt"
        argv = ("construct", "--config", str(config), "--length", "100", "--out", str(out_path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "column 4" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

        out_path.write_bytes(b"earlier artifact\n")
        assert run_cli(capsys, *argv)[0] == 2
        assert out_path.read_bytes() == b"earlier artifact\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "out.txt"]

    @pytest.mark.parametrize("earlier", [None, b"earlier artifact\n"])
    def test_unwritable_sidecar_leaves_no_artifact(self, tmp_path, capsys, earlier):
        out_path = tmp_path / "out.txt"
        (tmp_path / "out.txt.json").mkdir()
        if earlier is not None:
            out_path.write_bytes(earlier)
        before = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run_cli(capsys, "construct", "--mean", "3", "--length", "10", "--out", str(out_path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list((tmp_path / "out.txt.json").iterdir()) == []
        if earlier is not None:
            assert out_path.read_bytes() == earlier

    @pytest.mark.parametrize("command", ["analyze", "construct"])
    def test_an_out_in_a_missing_directory_is_named_as_given(self, tmp_path, capsys, command):
        # The refusal names the --out path (construct stages its sidecar
        # first, so it names that), not the temporary file staged beside it.
        source = tmp_path / "s.txt"
        source.write_text("0123\n")
        out_path = tmp_path / "missing" / "x.csv"
        if command == "analyze":
            flags, named = ["--in", str(source)], out_path
        else:
            flags, named = ["--mean", "3", "--length", "4"], tmp_path / "missing" / "x.csv.json"
        got = run_cli(capsys, command, *flags, "--out", str(out_path))
        assert got == (2, "", f"error: [Errno 2] No such file or directory: '{named}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.txt"]

    def test_out_through_symlink_replaces_its_target(self, tmp_path, capsys):
        target = tmp_path / "target.txt"
        target.write_text("earlier artifact\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert run_cli(capsys, "construct", "--mean", "3", "--length", "4", "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_text().splitlines()[1] == "3333"

    def test_out_to_pipe_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code = run_cli(capsys, "construct", "--mean", "3", "--length", "4", "--out", str(fifo))[0]
        reader.join(timeout=10)
        assert code == 0 and not reader.is_alive()
        assert received[0].splitlines()[1] == "3333"
        assert not fifo.is_file()

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "construct", "--mean", "0")[0] == 2  # no length
        assert run_cli(capsys, "construct", "--length", "5")[0] == 2  # no source
        assert run_cli(
            capsys, "construct", "--mean", "0", "--tau", "1,0,0,0", "--length", "5"
        )[0] == 2  # two sources
        assert run_cli(capsys, "construct", "--mean", "0", "--length", "0")[0] == 2
        assert run_cli(capsys, "construct", "--mean", "9", "--length", "5")[0] == 2
        assert run_cli(capsys, "construct", "--rational", "x/y", "--length", "5")[0] == 2
        code, _, err = run_cli(
            capsys, "construct", "--mean", "0", "--length", str(10**8 + 1)
        )
        assert code == 2 and "length" in err
        assert run_cli(capsys, "construct", "--base", "12", "--mean", "0", "--length", "5")[0] == 2
        got = run_cli(capsys, "construct", "--tau", "1/0,1,0,0", "--length", "5")
        assert got == (2, "", "error: Fraction(1, 0)\n")

    def test_mean_with_no_exact_vector_is_refused(self, tmp_path, capsys, monkeypatch):
        # theta = 1/100 needs a D past 2**16, so with no doubling allowed no
        # exact vector is found: exit 2, and no artifact is left.
        from adiclab import construct

        monkeypatch.setattr(construct, "_MAX_DOUBLINGS", 0)
        out_path = tmp_path / "m.txt"
        code, out, err = run_cli(capsys, "construct", "--mean", "1/100", "--length", "5", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == "error: no vector over D = 65500 * 2**k, k <= 0, has mean exactly 1/100 in base 4\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_source_that_ends_early_is_refused(self, tmp_path, capsys, monkeypatch):
        # No construct source ends today; one that did must not leave a short artifact.
        from adiclab import cli
        from adiclab.digits import stream_from_digits

        monkeypatch.setattr(cli, "_stream_from_config", lambda cfg: stream_from_digits((1, 2)))
        message = "error: digit source ended after 2 digits, wanted 5\n"
        assert run_cli(capsys, "construct", "--mean", "0", "--length", "5") == (2, "12", message)
        got = run_cli(capsys, "construct", "--mean", "0", "--length", "5", "--out", str(tmp_path / "x.txt"))
        assert got == (2, "", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"schedule": {"family": "geometric", "ratio": "2"}, "columns": UNIFORM_COLUMNS},
                "schedule s_k = 2^k rejected; failed condition(s): next_term_over_partial_sum",
            ),
            (
                {"schedule": {"family": "polynomial", "degree": 1}},
                "block construction needs both 'schedule' and 'columns' in the config",
            ),
            (
                {"schedule": {"family": "polynomial", "degree": 1}, "columns": {**UNIFORM_COLUMNS, "theta": "1"}},
                "column 1 has mean 3/2, declared mean is 1",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {"kind": "constant"}},
                "columns kind 'constant' needs the key 'tau'",
            ),
            (
                {"schedule": {"family": "geometric"}, "columns": UNIFORM_COLUMNS},
                "schedule family 'geometric' needs the key 'ratio'",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {"kind": "converging", "limit": ["1", "0", "0", "0"]}},
                "columns kind 'converging' needs the key 'mix_digit'",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {"kind": "explicit", "tail": ["1", "0", "0", "0"]}},
                "columns kind 'explicit' needs the key 'columns'",
            ),
            (
                {"schedule": {"family": "polynomial", "degree": [2]}, "columns": UNIFORM_COLUMNS},
                "schedule family 'polynomial': 'degree' has the wrong type, got [2]",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {"kind": "constant", "tau": 4}},
                "columns kind 'constant': 'tau' has the wrong type, got 4",
            ),
            (
                {"schedule": {"family": "polynomial", "degree": 1.5}, "columns": UNIFORM_COLUMNS},
                "schedule family 'polynomial': 'degree' has the wrong type, got 1.5",
            ),
            (
                {"schedule": {"family": "polynomial", "degree": "2"}, "columns": UNIFORM_COLUMNS},
                "schedule family 'polynomial': 'degree' has the wrong type, got '2'",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {**CONVERGING_COLUMNS, "mix_digit": 2.7}},
                "columns kind 'converging': 'mix_digit' has the wrong type, got 2.7",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {**CONVERGING_COLUMNS, "mix_digit": True}},
                "columns kind 'converging': 'mix_digit' has the wrong type, got True",
            ),
            (
                {"schedule": {"family": "polynomial", "degre": 2}, "columns": UNIFORM_COLUMNS},
                "schedule family 'polynomial' does not read 'degre'",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {**UNIFORM_COLUMNS, "thta": "3/2"}},
                "columns kind 'constant' does not read 'thta'",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {**CONVERGING_COLUMNS, "theta": "1"}},
                "columns kind 'converging' does not read 'theta'",
            ),
            (
                {
                    "schedule": {"family": "polynomial"},
                    "columns": {**UNIFORM_COLUMNS, "tau": [True, False, False, False]},
                },
                "columns kind 'constant': 'tau' has the wrong type, got [True, False, False, False]",
            ),
            (
                {"schedule": {"family": "affine", "a": 1.1}, "columns": UNIFORM_COLUMNS},
                "schedule family 'affine': 'a' has the wrong type, got 1.1",
            ),
            (
                {"schedule": {"family": "geometric", "ratio": True}, "columns": UNIFORM_COLUMNS},
                "schedule family 'geometric': 'ratio' has the wrong type, got True",
            ),
            (
                {"schedule": {"family": "polynomial"}, "columns": {**UNIFORM_COLUMNS, "theta": 1.5}},
                "columns kind 'constant': 'theta' has the wrong type, got 1.5",
            ),
            (
                {
                    "schedule": {"family": "polynomial"},
                    "columns": {"kind": "explicit", "columns": [[0.5, 0.5, 0, 0]], "tail": ["1", "0", "0", "0"]},
                },
                "columns kind 'explicit': 'columns' has the wrong type, got [[0.5, 0.5, 0, 0]]",
            ),
            (
                {
                    "schedule": {"family": "polynomial"},
                    "columns": {"kind": "explicit", "columns": {"1,0,0,0": 5}, "tail": ["1", "0", "0", "0"]},
                },
                "columns kind 'explicit': 'columns' has the wrong type, got {'1,0,0,0': 5}",
            ),
        ],
        ids=[
            "geometric",
            "no-columns",
            "wrong-theta",
            "no-tau",
            "no-ratio",
            "no-mix-digit",
            "no-columns-list",
            "degree-type",
            "tau-type",
            "degree-float",
            "degree-string",
            "mix-digit-float",
            "mix-digit-bool",
            "unread-degre",
            "unread-thta",
            "unread-theta",
            "tau-bools",
            "a-float",
            "ratio-bool",
            "theta-float",
            "columns-floats",
            "columns-object",
        ],
    )
    def test_block_config_errors(self, doc, message, tmp_path, capsys):
        config = tmp_path / "blocks.json"
        config.write_text(json.dumps(doc))
        for command in (["construct", "--length", "10"], ["analyze"]):
            got = run_cli(capsys, *command, "--config", str(config))
            assert got == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "base, head, tail, message",
        [
            # A 4-entry tail in base 3 once raised IndexError after digits
            # went out; a 3-entry tail in base 4 never emitted digit 3.
            (3, [["1/3", "1/3", "1/3"]] * 3, ["1/4"] * 4, "column 1 has 3 entries, the tail has 4"),
            (4, [["1/4"] * 4], ["1/3"] * 3, "column 1 has 4 entries, the tail has 3"),
        ],
        ids=["long-tail", "short-tail"],
    )
    def test_explicit_columns_of_the_wrong_length(self, base, head, tail, message, tmp_path, capsys):
        config = tmp_path / "blocks.json"
        columns = {"kind": "explicit", "columns": head, "tail": tail}
        config.write_text(json.dumps({"base": base, "schedule": {"family": "polynomial"}, "columns": columns}))
        for command in (["construct", "--length", "20"], ["analyze"]):
            got = run_cli(capsys, *command, "--config", str(config))
            assert got == (2, "", f"error: {message}\n")


class TestAnalyze:
    def test_file_trace(self, tmp_path, capsys):
        source = tmp_path / "digits.txt"
        source.write_text("0123" * 25 + "\n")
        code, out, _ = run_cli(capsys, "analyze", "--in", str(source))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# adiclab 0.1.0 config=")
        assert lines[1] == "n,v0,v1,v2,v3,r_n"
        assert lines[-1] == "100,0.25,0.25,0.25,0.25,1.5"

    def test_file_with_header_comment_is_accepted(self, tmp_path, capsys):
        source = tmp_path / "digits.txt"
        source.write_text("# some header\n0123012301\n")
        code, out, _ = run_cli(capsys, "analyze", "--in", str(source), "--checkpoints", "10")
        assert code == 0 and out.splitlines()[-1].startswith("10,")

    def test_inline_constructor_with_normality(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--tau", "1/4,1/4,1/4,1/4",
            "--checkpoints", "10,100", "--normality-tol", "1/100",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("# normality: consistent")

    def test_expansion_of_fifth(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--rational", "1/5", "--checkpoints", "10000"
        )
        assert code == 0
        assert out.splitlines()[-1] == "10000,0.5,0,0,0.5,1.5"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--rational", "1/3", "--checkpoints", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc)[0] == "provenance"
        assert doc["reports"][0]["counts"] == [0, 4, 0, 0]

    def test_json_normality_object(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--tau", "1/4,1/4,1/4,1/4", "--checkpoints", "10,100",
            "--format", "json", "--normality-tol", "1/100",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["normality"] == {"n": 100, "tol": "0.01", "max_deviation": "0", "consistent": True}
        assert list(doc)[-1] == "normality"

    def test_exit_zero_even_when_inconsistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--mean", "0", "--checkpoints", "10", "--normality-tol", "0"
        )
        assert code == 0
        assert "inconsistent" in out

    # Runs main(argv) in a fresh interpreter, numpy first loaded or not, and
    # prints the tally paths that ran (True: counted without numpy).
    PATH_PROBE = (
        "import json, sys\n"
        "from adiclab import stats\n"
        "from adiclab.cli import main\n"
        "argv, preload = json.loads(sys.argv[1])\n"
        "if preload:\n"
        "    import numpy\n"
        "paths, tally = [], stats._tally\n"
        "stats._tally = lambda chunk, s, count: paths.append(count) or tally(chunk, s, count)\n"
        "status = main(argv)\n"
        "print(json.dumps([status, sorted(set(paths)), 'numpy' in sys.modules]))\n"
    )

    @pytest.mark.parametrize(
        "size, pipe, preload, checkpoints, want",
        [
            (2**20, False, False, None, [True]),
            (2**20 + 1, False, False, None, [False, True]),
            (2**20 + 1, False, False, "10,1048576", [True]),
            (2**20, True, False, None, [True]),
            (2**20, False, True, None, [True]),
        ],
        ids=["2^20-bytes", "2^20+1-bytes", "2^20+1-bytes-checkpoint-2^20", "pipe", "numpy-loaded"],
    )
    def test_which_tally_path_runs(self, tmp_path, size, pipe, preload, checkpoints, want):
        # The first 2**20 digits of a base-4 tally are counted without numpy,
        # from a file or a pipe, whether numpy is loaded or not; the rest of
        # a longer tally is bincounted, which loads numpy.
        if pipe and not os.path.exists("/dev/stdin"):
            pytest.skip("needs /dev/stdin")
        digits = (b"0123" * (size // 4 + 1))[:size]
        source = tmp_path / "digits.txt"
        source.write_bytes(digits)
        argv = ["analyze", "--in", "/dev/stdin" if pipe else str(source), "--out", str(tmp_path / "a.csv")]
        if checkpoints:
            argv += ["--checkpoints", checkpoints]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", self.PATH_PROBE, json.dumps([argv, preload])],
            input=digits if pipe else None, capture_output=True, env=env,
        )
        assert done.returncode == 0, done.stderr
        status, paths, numpy_loaded = json.loads(done.stdout)
        assert (status, paths) == (0, want)
        assert numpy_loaded == (preload or False in want)
        n = int(checkpoints.split(",")[-1]) if checkpoints else size
        assert (tmp_path / "a.csv").read_text().splitlines()[-1].startswith(f"{n},")

    def test_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("01x3\n")
        assert run_cli(capsys, "analyze", "--in", str(bad))[0] == 2
        assert run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.txt"))[0] == 2
        source = tmp_path / "short.txt"
        source.write_text("0123\n")
        code, _, err = run_cli(capsys, "analyze", "--in", str(source), "--checkpoints", "10")
        assert code == 2 and "before checkpoint" in err
        got = run_cli(capsys, "analyze", "--in", str(source), "--checkpoints", "2,10")
        assert got == (2, "", "error: stream ended at 4 digits, before checkpoint 10\n")
        assert run_cli(capsys, "analyze", "--rational", "1/3", "--format", "text")[0] == 2
        assert run_cli(capsys, "analyze", "--in", str(source), "--mean", "0")[0] == 2

    def test_file_conflicts_with_a_block_config(self, tmp_path, capsys):
        source = tmp_path / "digits.txt"
        source.write_text("0123012301\n")
        config = tmp_path / "blocks.json"
        config.write_text(json.dumps({"schedule": {"family": "polynomial"}, "columns": UNIFORM_COLUMNS}))
        got = run_cli(capsys, "analyze", "--in", str(source), "--config", str(config))
        assert got == (2, "", "error: --in conflicts with inline digit source(s) ['schedule', 'columns']\n")

    def test_inline_source_is_read_to_at_most_the_construct_length(self, capsys):
        start = time.perf_counter()
        got = run_cli(capsys, "analyze", "--tau", "1/2,1/2,0,0", "--checkpoints", "10,1000000000000")
        assert got == (
            2,
            "",
            "error: --checkpoints: an inline source is read to at most 100000000 digits, got 1000000000000\n",
        )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("digits, bad", [("\u0660\u0661\u0662\u0663", "\u0660"), ("01\u00b23", "\u00b2")])
    def test_non_ascii_digits_are_refused(self, tmp_path, capsys, digits, bad):
        # Arabic-Indic digits and a superscript two are digits to str.isdigit().
        source = tmp_path / "digits.txt"
        source.write_text(f"# any text \u0663 here\n{digits}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", "--in", str(source))
        assert code == 2
        assert f"non-digit character {bad!r} for base 4 in {source}" in err

    def test_comment_lines_may_hold_any_utf8(self, tmp_path, capsys):
        source = tmp_path / "digits.txt"
        source.write_text("# caf\u00e9 \u0663\n  0123 \n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--in", str(source))
        assert code == 0 and out.splitlines()[-1] == "4,0.25,0.25,0.25,0.25,1.5"

    @pytest.mark.parametrize("base, allowed", [("2", 100000), ("4", 100000), ("300", 1333), ("400000", 1)])
    def test_checkpoints_are_capped_by_count_times_base(self, tmp_path, capsys, base, allowed):
        # Each checkpoint writes a row of s + 2 cells: a 4-digit file in
        # base 10**6 took 12.5 s and 171 MB before this cap.
        source = tmp_path / "digits.txt"
        source.write_text("0101\n")
        over = ",".join(map(str, range(1, allowed + 2)))
        start = time.perf_counter()
        got = run_cli(capsys, "analyze", "--in", str(source), "--base", base, "--checkpoints", over)
        message = f"error: --checkpoints: got {allowed + 1}; at most {allowed} are allowed in base {base}\n"
        assert got == (2, "", message)
        assert time.perf_counter() - start < 1.0
        if allowed < 2000:  # 100000 checkpoints take about 2 s to run
            source.write_text("01" * allowed + "\n")
            edge = ",".join(map(str, range(1, allowed + 1)))
            code, out, _ = run_cli(capsys, "analyze", "--in", str(source), "--base", base, "--checkpoints", edge)
            assert code == 0 and len(out.splitlines()) == allowed + 2

    def test_default_checkpoints_past_the_cap_are_refused(self, tmp_path, capsys):
        source = tmp_path / "digits.txt"
        source.write_text("0123\n")
        got = run_cli(capsys, "analyze", "--in", str(source), "--base", "400001")
        assert got == (2, "", "error: --checkpoints: got 1; at most 0 are allowed in base 400001\n")

    def test_mean_target_trace_hits_theta(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--mean", "3/2", "--checkpoints", "100000"
        )
        assert code == 0
        final = out.splitlines()[-1].split(",")
        assert abs(float(final[-1]) - 1.5) <= 1e-3

    def test_precision_flag_and_env(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "digits.txt"
        source.write_text("012\n")
        _, out, _ = run_cli(
            capsys, "analyze", "--in", str(source), "--checkpoints", "3", "--precision", "3"
        )
        assert out.splitlines()[-1] == "3,0.333,0.333,0.333,0,1"
        monkeypatch.setenv("ADICLAB_PRECISION", "3")
        _, out_env, _ = run_cli(capsys, "analyze", "--in", str(source), "--checkpoints", "3")
        assert out_env.splitlines()[-1] == "3,0.333,0.333,0.333,0,1"
        monkeypatch.setenv("ADICLAB_PRECISION", "nope")
        assert run_cli(capsys, "analyze", "--in", str(source))[0] == 2


def whole_file_digits(path: str, s: int) -> bytes:
    """The reader that the block reader replaced, kept as its oracle: the
    whole file as one string, cut by `str.splitlines`."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read digit file: {exc}")
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        try:
            lines.append(parse_digit_text(line.strip(), s))
        except ValueError as exc:
            raise UsageError(f"{exc} in {path}")
    digits = b"".join(lines)
    if not digits:
        raise UsageError(f"no digits found in {path}")
    return digits


def block_digits(path: str, s: int) -> bytes:
    return b"".join(_digitfile.digit_file(path, Base(s)).make_chunks())


def outcome(read, path, s):
    """The digits `read` finds in the file, or the message it refuses it with."""
    try:
        return read(str(path), s)
    except (UsageError, ValueError) as exc:
        return str(exc)


# Units of a digit file: digits, a non-ASCII digit, a non-digit, whitespace
# that is no line break, '#', every line break of `str.splitlines` and a
# comment holding multi-byte UTF-8.
FILE_UNITS = [
    *"0123456789", "0123", "\u0663", "x", " ", "\t", "\x1f", "\xa0",
    "#", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "# caf\u00e9 \u0663\n",
]
# Bytes of a file whose only possible faults are undecodable bytes: digits,
# line breaks, a valid UTF-8 comment and invalid or cut UTF-8 sequences.
BYTE_UNITS = [b"0", b"1", b"01", b"\n", b"\r\n", b"\n#\xc3\xa9\n", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f"]


class TestDigitFile:
    @pytest.fixture
    def block(self, monkeypatch):
        def set_block(size):
            monkeypatch.setattr(_digitfile, "BLOCK_BYTES", size)

        return set_block

    @settings(max_examples=300)
    @given(
        st.lists(st.sampled_from(FILE_UNITS), max_size=40).map("".join),
        st.integers(min_value=1, max_value=9),
        st.sampled_from([2, 4, 10]),
    )
    def test_blocks_agree_with_the_whole_file_reader(self, tmp_path_factory, text, size, s):
        path = tmp_path_factory.mktemp("blocks") / "digits.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_digitfile, "BLOCK_BYTES", size)
            assert outcome(block_digits, path, s) == outcome(whole_file_digits, path, s)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(BYTE_UNITS), max_size=30).map(b"".join), st.integers(min_value=1, max_value=9))
    def test_decode_errors_name_their_byte_in_the_file(self, tmp_path_factory, data, size):
        path = tmp_path_factory.mktemp("bytes") / "digits.txt"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_digitfile, "BLOCK_BYTES", size)
            assert outcome(block_digits, path, 4) == outcome(whole_file_digits, path, 4)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, CHUNK_DIGITS])
    def test_undecodable_byte_is_placed_in_the_file(self, tmp_path, capsys, block, size):
        block(size)
        source = tmp_path / "digits.txt"
        source.write_bytes(b"# h\n0123\xff0\n")
        got = run_cli(capsys, "analyze", "--in", str(source))
        assert got == (2, "", "error: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n")

    def test_unreadable_paths_are_refused_as_before(self, tmp_path):
        for path in (tmp_path / "nope.txt", tmp_path):
            got = outcome(block_digits, path, 4)
            assert got == outcome(whole_file_digits, path, 4)
            assert got.startswith("cannot read digit file: [Errno ")

    def test_bad_character_past_the_first_block(self, tmp_path, capsys, block):
        block(4)
        source = tmp_path / "digits.txt"
        source.write_text("0123\n0123012x01\n")
        got = run_cli(capsys, "analyze", "--in", str(source))
        assert got == (2, "", f"error: non-digit character 'x' for base 4 in {source}\n")

    @pytest.mark.parametrize("line, bad", [("01 23", " "), ("012\t 3", "\t"), ("0123\xa0 \n", None), ("  0123  ", None)])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_whitespace_at_a_block_edge(self, tmp_path, capsys, block, line, bad, size):
        # Whitespace inside a digit line is refused, naming its first
        # character, wherever a block edge falls; at either end it is stripped.
        block(size)
        source = tmp_path / "digits.txt"
        source.write_text(f"# header\n{line}\n")
        code, out, err = run_cli(capsys, "analyze", "--in", str(source))
        if bad is None:
            assert code == 0 and out.splitlines()[-1] == "4,0.25,0.25,0.25,0.25,1.5"
        else:
            assert (code, err) == (2, f"error: non-digit character {bad!r} for base 4 in {source}\n")

    @pytest.mark.parametrize("size", range(1, 9))
    def test_comment_with_utf8_across_a_block_edge(self, tmp_path, capsys, block, size):
        block(size)
        source = tmp_path / "digits.txt"
        source.write_text("# caf\u00e9 \u0663 \u2603\n0123\n# \u00e9\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--in", str(source))
        assert code == 0 and out.splitlines()[-1] == "4,0.25,0.25,0.25,0.25,1.5"

    @pytest.mark.parametrize("size", range(1, 6))
    def test_every_line_break_is_accepted(self, tmp_path, capsys, block, size):
        block(size)
        source = tmp_path / "digits.txt"
        source.write_bytes("01\r\n23\r#c\r\n01\v23\u202801\u202923\x1c\n".encode("utf-8"))
        code, out, _ = run_cli(capsys, "analyze", "--in", str(source), "--format", "json")
        assert code == 0 and json.loads(out)["reports"][-1]["counts"] == [3, 3, 3, 3]

    def test_chunks_are_bounded_and_the_stream_rereads_the_file(self, tmp_path):
        source = tmp_path / "digits.txt"
        source.write_text("# h\n" + "0123" * 40000 + "\n" + "3" * 100 + "\n")
        stream = _digitfile.digit_file(str(source), Base(4))
        first, again = list(stream.make_chunks()), list(stream.make_chunks())
        assert first == again
        assert max(map(len, first)) <= CHUNK_DIGITS
        assert b"".join(first) == whole_file_digits(str(source), 4)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("base", ["4", "100000"])
    def test_a_pipe_is_read_once(self, base):
        # A pipe cannot be read twice: the file is read in one pass in every
        # base, the default list's cap (4 points in base 10**5) included.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "adiclab", "analyze", "--in", "/dev/stdin", "--base", base]
        done = subprocess.run(argv, input="# h\n0123\n", capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1].endswith(",1.5")

    def test_a_bad_line_comes_before_a_decode_error_in_a_later_block(self, tmp_path, capsys, block):
        # The whole-file reader decoded everything before parsing, so it
        # named the 0xff; the block reader stops at the first bad block.
        block(4)
        source = tmp_path / "digits.txt"
        source.write_bytes(b"01x\n" + b"0" * 10 + b"\xff\n")
        got = run_cli(capsys, "analyze", "--in", str(source))
        assert got == (2, "", f"error: non-digit character 'x' for base 4 in {source}\n")

    @pytest.mark.parametrize("length", [1, 9, 10, 11, 99, 100, 101, 10**5, 10**5 + 1])
    def test_default_checkpoints_end_at_the_end_of_the_file(self, tmp_path, capsys, length):
        source = tmp_path / "digits.txt"
        source.write_text("0" * length + "\n")
        code, out, _ = run_cli(capsys, "analyze", "--in", str(source), "--format", "json")
        expected = [p for p in (10, 100, 1000, 10**4, 10**5) if p < length] + [length]
        assert code == 0 and json.loads(out)["checkpoints"] == expected

    @pytest.mark.parametrize("length, points", [(1000, 3), (10**4 + 1, 5)])
    def test_default_checkpoints_in_a_base_near_the_cap(self, tmp_path, capsys, length, points):
        # Base 10**5 allows 4 checkpoints, so a default list is refused
        # once the file is read and found to pass 10**4 digits.
        source = tmp_path / "digits.txt"
        source.write_text("01" * (length // 2) + "1" * (length % 2) + "\n")
        code, out, err = run_cli(capsys, "analyze", "--in", str(source), "--base", "100000", "--format", "json")
        if points <= 4:
            assert code == 0 and json.loads(out)["checkpoints"] == [10, 100, 1000]
        else:
            assert (code, err) == (2, "error: --checkpoints: got 5; at most 4 are allowed in base 100000\n")

    def test_comments_only_file_has_no_digits(self, tmp_path, capsys):
        source = tmp_path / "digits.txt"
        source.write_text("# one\n#two\n\n")
        for extra in ([], ["--checkpoints", "5"]):
            got = run_cli(capsys, "analyze", "--in", str(source), *extra)
            assert got == (2, "", f"error: no digits found in {source}\n")

    def test_bad_character_past_the_last_checkpoint(self, tmp_path, capsys, block):
        source = tmp_path / "digits.txt"
        source.write_text("0123x\n")
        for size in (2, CHUNK_DIGITS):
            block(size)
            got = run_cli(capsys, "analyze", "--in", str(source), "--checkpoints", "2")
            assert got == (2, "", f"error: non-digit character 'x' for base 4 in {source}\n")

    def test_file_errors_come_before_the_checkpoint_cap(self, tmp_path, capsys, monkeypatch):
        from adiclab import stats

        def no_tally(chunk, s, count):
            raise AssertionError("tallied")

        monkeypatch.setattr(stats, "_tally", no_tally)
        over = ",".join(map(str, range(1, 1336)))
        source = tmp_path / "digits.txt"
        source.write_text("0101\n01x\n")
        got = run_cli(capsys, "analyze", "--in", str(source), "--base", "300", "--checkpoints", over)
        assert got == (2, "", f"error: non-digit character 'x' for base 300 in {source}\n")
        source.write_text("0101\n")
        got = run_cli(capsys, "analyze", "--in", str(source), "--base", "300", "--checkpoints", over)
        assert got == (2, "", "error: --checkpoints: got 1335; at most 1333 are allowed in base 300\n")
        got = run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.txt"), "--base", "300", "--checkpoints", over)
        assert got[0] == 2 and got[2].startswith("error: cannot read digit file: [Errno 2]")

    def test_memory_is_bounded_by_the_block(self, tmp_path, capsys):
        # The whole-file reader held the text, its digits and an 8-byte
        # intp copy of them: about 30 MB for these 3 * 10**6 digits.
        source = tmp_path / "digits.txt"
        source.write_text("# h\n" + "0123" * 750000 + "\n")
        argv = ["analyze", "--in", str(source), "--format", "json"]
        assert main(argv) == 0  # loads numpy and the stats module first
        first = capsys.readouterr().out
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == first
        assert json.loads(first)["reports"][-1]["counts"] == [750000] * 4
        assert peak < 2 * 2**20


class TestDimension:
    def test_point_mass(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--tau", "1,0,0,0")
        assert code == 0
        assert json.loads(out)["dimension"] == 0.0

    def test_tau_sums_left_to_right(self, capsys):
        # The builtin sum compensates its rounding from Python 3.12 on and
        # gives 0.8962406251802889 here.
        code, out, _ = run_cli(capsys, "dimension", "--tau", "1/6,1/6,1/6,1/2")
        assert code == 0
        assert '"dimension": 0.8962406251802891\n' in out

    def test_theta_midpoint(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--theta", "1.5")
        doc = json.loads(out)
        assert code == 0
        assert doc["dimension_bound"] == 1.0
        assert doc["lambda"] == 0.0
        assert set(doc) == {"provenance", "theta", "m", "argmin", "lambda", "dimension_bound"}

    @pytest.mark.parametrize("theta", ["340000", "360000"])
    def test_mid_range_theta_in_base_400000_is_solved(self, capsys, theta):
        # Bisecting on the rows' own means, whose rounding grows like
        # s**2 2**-53, no midpoint stopped within 1e-10 of these thetas, and
        # the command exited 2 after about 25 s.
        code, out, err = run_cli(capsys, "dimension", "--theta", theta, "--base", "400000")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["theta"] == float(theta) and len(doc["argmin"]) == 400000

    def test_oracle_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--theta", "3/2", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["oracle"]["difference"]) <= 1e-4

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--sweep", "1/2:5/2:1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "theta,m,dimension_bound"
        assert len(lines) == 7  # header comment + csv header + 5 rows

    def test_errors(self, capsys):
        assert run_cli(capsys, "dimension", "--theta", "5")[0] == 2
        assert run_cli(capsys, "dimension", "--tau", "1,1,0,0")[0] == 2
        assert run_cli(capsys, "dimension")[0] == 2
        assert run_cli(capsys, "dimension", "--theta", "1", "--tau", "1,0,0,0")[0] == 2
        assert run_cli(capsys, "dimension", "--sweep", "1:2")[0] == 2
        for sweep in ("1:0:1", "0:1:0"):
            got = run_cli(capsys, "dimension", "--sweep", sweep)
            assert got == (2, "", f"error: --sweep needs step > 0 and stop >= start, got '{sweep}'\n")
        assert run_cli(capsys, "dimension", "--tau", "1,0,0,0", "--oracle")[0] == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--theta", "1/2", "--format", "csv"], "dimension --theta writes JSON; --format csv"),
            (["--tau", "1,0,0,0", "--format", "text"], "dimension --tau writes JSON; --format text"),
            (["--sweep", "0:1:1/2", "--format", "json"], "dimension --sweep writes CSV; --format json"),
        ],
    )
    def test_format_the_mode_does_not_write(self, flags, message, tmp_path, capsys):
        got = run_cli(capsys, "dimension", *flags)
        assert got == (2, "", f"error: {message} is not applicable\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"format": flags[-1]}))
        got = run_cli(capsys, "dimension", *flags[:2], "--config", str(config))
        assert got == (2, "", f"error: {message} is not applicable\n")

    @pytest.mark.parametrize(
        "flags, fmt", [(["--theta", "1/2"], "json"), (["--sweep", "0:1:1/2"], "csv")]
    )
    def test_format_the_mode_writes(self, flags, fmt, capsys):
        # Only the provenance, which hashes the flags, may differ.
        code, default, _ = run_cli(capsys, "dimension", *flags)
        assert code == 0
        code, named, _ = run_cli(capsys, "dimension", *flags, "--format", fmt)
        assert code == 0
        if fmt == "json":
            default, named = json.loads(default), json.loads(named)
            del default["provenance"], named["provenance"]
        else:
            default, named = default.splitlines()[1:], named.splitlines()[1:]
        assert default == named

    def test_grid_step_needs_oracle(self, tmp_path, capsys):
        got = run_cli(capsys, "dimension", "--theta", "1/2", "--grid-step", "1/100")
        assert got == (2, "", "error: --grid-step needs --oracle\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"grid_step": "1/100"}))
        got = run_cli(capsys, "dimension", "--theta", "1/2", "--config", str(config))
        assert got == (2, "", "error: --grid-step needs --oracle\n")
        code, out, _ = run_cli(capsys, "dimension", "--theta", "1/2", "--oracle", "--grid-step", "1/100")
        assert code == 0 and json.loads(out)["oracle"]["step"] == 0.01

    @pytest.mark.parametrize("flags", [["--tau", "1,0,0,0"], ["--theta", "1/3"], ["--theta", "1/3", "--oracle"]])
    def test_precision_needs_sweep(self, flags, tmp_path, capsys, monkeypatch):
        # --tau and --theta write JSON floats in full, so a precision given
        # by flag or config key would be ignored; ADICLAB_PRECISION is only
        # a default and is not refused.
        message = "error: --precision needs --sweep (dimension --tau and --theta write floats in full)\n"
        assert run_cli(capsys, "dimension", *flags, "--precision", "3") == (2, "", message)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"precision": 3}))
        assert run_cli(capsys, "dimension", *flags, "--config", str(config)) == (2, "", message)
        code, full, _ = run_cli(capsys, "dimension", *flags)
        assert code == 0
        monkeypatch.setenv("ADICLAB_PRECISION", "3")
        code, out, _ = run_cli(capsys, "dimension", *flags)
        assert code == 0
        full, out = json.loads(full), json.loads(out)
        del full["provenance"], out["provenance"]
        assert out == full
        code, out, _ = run_cli(capsys, "dimension", "--sweep", "0:1:1/2", "--precision", "3")
        assert code == 0 and out.splitlines()[3] == "0.5,-0.94,0.678"

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-(10**40), 10**40), st.integers(1, 10**30),
        st.integers(1, 10**40), st.integers(1, 10**30), st.integers(1, 50),
    )
    def test_sweep_grid_is_float_of_each_fraction(self, p, q, a, b, count):
        # The grid is built over ints; each point must be float(start + k*step).
        start, step = Fraction(p, q), Fraction(a, b)
        stop = start + (count - 1) * step
        grid = _parse_sweep(f"{start}:{stop}:{step}", Base(4))
        assert [x.hex() for x in grid] == [float(start + k * step).hex() for k in range(count)]

    def test_oversized_sweep_is_refused_before_solving(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "dimension", "--sweep", "0:3:1/1000000")
        assert code == 2 and "3000001 points" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "base, sweep, count, allowed",
        [("300", "0:299:299/1399", 1400, 1333), ("2", "0:1:1/100000", 100001, 100000)],
    )
    def test_sweep_is_capped_by_points_times_base(self, capsys, base, sweep, count, allowed):
        # The cap is on points times base: 1400 points in base 300 are
        # refused (they would bisect for about 0.6 s); bases 2 and 3 keep
        # base 4's cap.
        start = time.perf_counter()
        got = run_cli(capsys, "dimension", "--base", base, "--sweep", sweep)
        message = f"error: --sweep {sweep} has {count} points; at most {allowed} are allowed in base {base}\n"
        assert got == (2, "", message)
        assert time.perf_counter() - start < 1.0

    def test_sweep_past_the_top_digit_is_refused(self, capsys):
        got = run_cli(capsys, "dimension", "--sweep", "0:5:1")
        assert got == (2, "", "error: --sweep: theta must lie in [0, 3], got 4.0\n")

    def test_oversized_oracle_is_usage_error(self, capsys):
        # About 1e12 and 1e9 grid cells; refused before any allocation.
        for base in ("6", "5"):
            code, _, err = run_cli(capsys, "dimension", "--base", base, "--theta", "1", "--oracle")
            assert code == 2 and "cells" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["dimension", "--theta", "1/2"], "--theta"),
            (["dimension", "--theta", "1/2", "--oracle"], "--theta"),
            (["analyze", "--mean", "1/2", "--checkpoints", "10"], "--mean"),
        ],
        ids=["theta", "theta-oracle", "analyze-mean"],
    )
    def test_single_point_base_is_capped(self, capsys, argv, flag):
        # The cap bounds the entropy point, which costs what one sweep point
        # does per base digit: at theta = 1/2 about 0.1 s in base 10**5 and
        # 1 s in base 10**6, and more at a mid-range theta, before it. It
        # does not bound what `--mean` costs after that point:
        # the greedy stream does steps * s work in any admitted base.
        start = time.perf_counter()
        got = run_cli(capsys, *argv, "--base", "400001")
        assert got == (2, "", f"error: {flag} allows bases up to 400000, got 400001\n")
        assert time.perf_counter() - start < 1.0
        if "--oracle" not in argv:
            code, out, _ = run_cli(capsys, *argv, "--base", "300")
            assert code == 0 and out


class TestVerify:
    def test_single_module_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--module", "stats")
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert {c["module"] for c in doc["checks"]} == {"stats"}
        names = [c["name"] for c in doc["checks"]]
        assert names == sorted(names)

    def test_unknown_module(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--module", "astrology")
        assert code == 2 and "unknown module" in err
        got = run_cli(capsys, "verify", "--module", "numerology")
        assert got == (
            2,
            "",
            "error: unknown module(s) ['numerology']; valid names: ['digits', 'stats', 'construct', 'entropy']\n",
        )

    @pytest.mark.parametrize(
        "argv, once",
        [
            (["--module", "stats,stats"], "stats"),
            (["--module", "stats", "--module", " stats"], "stats"),
            (["--config", "stats.json"], "stats"),
            (["--module", "stats,entropy,stats"], "stats,entropy"),
        ],
        ids=["one-flag", "two-flags", "config", "first-order"],
    )
    def test_repeated_modules_run_and_report_once(self, argv, once, tmp_path, monkeypatch, capsys):
        # A module named twice is the same selection as naming it once, in
        # the order of first mention, so the report, its module list and its
        # config hash are the same bytes.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stats.json").write_text(json.dumps({"modules": ["stats", "stats,stats"]}))
        want = run_cli(capsys, "verify", "--module", once)
        assert want[0] == 0 and json.loads(want[1])["modules"] == once.split(",")
        assert run_cli(capsys, "verify", *argv) == want

    @pytest.mark.parametrize(
        "argv, doc, given",
        [(["--module", ""], None, "['']"), (["--module", " , "], None, "[' , ']"), ([], {"modules": []}, "[]")],
        ids=["empty-flag", "blank-flag", "empty-config"],
    )
    def test_empty_module_list_is_refused(self, argv, doc, given, tmp_path, capsys):
        # An empty selection would run no check and pass.
        if doc is not None:
            config = tmp_path / "verify.json"
            config.write_text(json.dumps(doc))
            argv = ["--config", str(config)]
        got = run_cli(capsys, "verify", *argv)
        assert got == (2, "", f"error: modules must name at least one battery module, got {given}\n")

    def test_module_help_names_the_battery_modules(self, capsys):
        # The help text names the modules without importing the battery.
        from adiclab.verify import MODULES

        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert re.search(r"one of ((?:\w+, )*\w+)", text)[1].split(", ") == list(MODULES)

    def test_other_commands_do_not_load_the_battery(self, tmp_path):
        # Each case runs main(argv) in a fresh interpreter (an empty argv only
        # imports the CLI) and reads sys.modules after it: a command loads
        # the library modules it runs and no other, and numpy only where an
        # array kernel runs. A greedy `construct --tau` builds a period of at
        # most 65536 digits without numpy; one whose period is longer runs
        # the kernel. A `--mean` vector over a denominator D of at most 65536
        # tiles its period too; a theta whose denominator is over 65536 needs
        # a larger D and runs the kernel. A long-period rational divides big
        # ints in base 4; in base 10 its first chunk is one big-int division,
        # and later ones fill numpy remainder arrays. `analyze` counts the
        # first 2**20 digits of a tally in a base up to 16 without numpy and
        # bincounts the rest, so a longer file loads numpy. One entropy
        # point, and a sweep of at most 1024 interior means, bisect in pure
        # Python in any base; the grid oracle and a longer sweep's batch
        # load numpy. So the test cannot
        # pass by never loading numpy.
        config = tmp_path / "blocks.json"
        blocks = {"schedule": {"family": "polynomial", "degree": 1}, "columns": CONVERGING_COLUMNS}
        config.write_text(json.dumps(blocks))
        block = ["construct", "--config", str(config), "--length", "50"]
        short_period = ["construct", "--tau", "1/10,2/10,3/10,4/10", "--length", "1000000"]
        long_period = ["construct", "--tau", "1/65537,65536/65537", "--base", "2", "--length", "50"]
        short_file, long_file = tmp_path / "short.txt", tmp_path / "long.txt"
        assert main([*short_period, "--out", str(short_file)]) == 0
        long_file.write_bytes(b"0123" * (2**18 + 1))
        unrun = ["adiclab.construct", "adiclab.entropy"]  # by analyze --in and --rational
        cases = [
            ([], [], ["numpy", "adiclab.construct", "adiclab.entropy", "adiclab.stats"]),
            (["dimension", "--tau", "1/3,1/3,0,1/3"], ["adiclab.entropy"], ["numpy", "adiclab.stats"]),
            (["dimension", "--theta", "1/2"], ["adiclab.entropy"], ["numpy", "adiclab.stats"]),
            (["dimension", "--theta", "1/2", "--base", "300"], ["adiclab.entropy"], ["numpy", "adiclab.stats"]),
            (["dimension", "--theta", "1/2", "--oracle"], ["adiclab.entropy", "numpy"], ["adiclab.stats"]),
            (["dimension", "--sweep", "0:3:1/10"], ["adiclab.entropy"], ["numpy", "adiclab.stats"]),
            (["dimension", "--sweep", "0:3:1/400"], ["adiclab.entropy", "numpy"], ["adiclab.stats"]),
            (block, ["adiclab.construct"], ["numpy", "adiclab.entropy"]),
            (short_period, ["adiclab.construct"], ["numpy", "adiclab.entropy", "adiclab.stats"]),
            (long_period, ["numpy"], ["adiclab.entropy", "adiclab.stats"]),
            (
                ["construct", "--mean", "37/40", "--length", "200000"],
                ["adiclab.construct", "adiclab.entropy"], ["numpy", "adiclab.stats"],
            ),
            (["construct", "--mean", "737067/491201", "--length", "50"], ["adiclab.entropy", "numpy"], ["adiclab.stats"]),
            (["analyze", "--in", str(short_file)], ["adiclab.stats"], ["numpy", *unrun]),
            (
                ["analyze", "--tau", "1/10,2/10,3/10,4/10"],
                ["adiclab.stats", "adiclab.construct"], ["numpy", "adiclab.entropy"],
            ),
            (["analyze", "--rational", "1/7"], ["adiclab.stats"], ["numpy", *unrun]),
            (["analyze", "--rational", "1/999983", "--checkpoints", "1000"], ["adiclab.stats"], ["numpy", *unrun]),
            (["construct", "--rational", "1/999983", "--length", "1000000"], [], ["numpy", "adiclab.stats", *unrun]),
            (
                ["construct", "--rational", "1/999983", "--base", "10", "--length", "256"],
                [], ["numpy", "adiclab.stats", *unrun],
            ),
            (
                ["analyze", "--tau", ",".join(["1/16"] * 16), "--base", "16", "--checkpoints", "1000"],
                ["adiclab.stats", "adiclab.construct"], ["numpy", "adiclab.entropy"],
            ),
            (
                ["analyze", "--rational", "1/999983", "--base", "2", "--checkpoints", str(2**20)],
                ["adiclab.stats"], ["numpy", *unrun],
            ),
            (["analyze", "--in", str(long_file)], ["adiclab.stats", "numpy"], unrun),
            (
                ["analyze", "--rational", "1/999983", "--base", "10", "--checkpoints", "1000"],
                ["adiclab.stats", "numpy"], unrun,
            ),
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "from adiclab.cli import main\n"
            "argv = json.loads(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(argv) if argv else 0\n"
            "print(json.dumps([status, sorted(sys.modules)]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv, loaded, unloaded in cases:
            argv_json = json.dumps(argv)
            done = subprocess.run([sys.executable, "-c", code, argv_json], capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            status, modules = json.loads(done.stdout)
            assert status == 0, (argv, done.stderr)
            assert set(loaded) <= set(modules), argv
            assert not {"adiclab.verify", *unloaded} & set(modules), argv

    def test_no_command_runs_a_period_finder(self, tmp_path, monkeypatch):
        # A stream with a long period carries a finder, which runs only when
        # the period is needed (see DigitStream). Each command runs in process
        # and counts the finders that run: none may, in any construct or
        # analyze mode, in verify, or for a greedy period between 65537 and
        # 10**7 digits.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "block.json").write_text(json.dumps(GOLDEN_BLOCK))
        found = []
        chunk_pair = DigitStream._chunk_pair

        def counted(stream):
            if callable(stream._period):
                found.append(stream)
            return chunk_pair(stream)

        monkeypatch.setattr(DigitStream, "_chunk_pair", counted)
        sources = [
            *GOLDEN_SOURCES.values(),
            ["--rational", "1/1000003"],
            ["--tau", "1/65537,65536/65537", "--base", "2"],
            ["--tau", "1/999983,999982/999983", "--base", "2"],
            ["--mean", "13/10"],
        ]
        runs = [["verify"]]
        for flags in sources:
            base = flags[flags.index("--base") + 1] if "--base" in flags else "4"
            runs += [
                ["construct", *flags, "--length", "70000", "--out", "d.txt"],
                ["analyze", "--in", "d.txt", "--base", base],
                ["analyze", *flags, "--checkpoints", "1,65536,70000"],
            ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert found == [], argv
        # The count sees a finder that does run.
        assert expand(Fraction(1, 1000003)).eventual_period is not None
        assert len(found) == 1

    @pytest.mark.parametrize("base", ["2", "10", "300"])
    def test_other_bases_are_refused(self, base, tmp_path, capsys):
        # The checks run in base 4 whatever --base says, so another base is
        # a usage error, from the flag or from a config file, before any check runs.
        code, out, err = run_cli(capsys, "verify", "--module", "stats", "--base", base)
        assert (code, out) == (2, "")
        assert f"base-4 only; --base {base} is not supported" in err
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"base": int(base)}))
        code, out, err = run_cli(capsys, "verify", "--module", "stats", "--config", str(config))
        assert (code, out) == (2, "") and "base-4 only" in err
        code, out, _ = run_cli(capsys, "verify", "--module", "stats", "--base", "4")
        assert code == 0 and json.loads(out)["failed"] == 0


class TestRefusals:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--tau", "1/2,1/2", "--length", "3"], "--tau has 2 entries but base is 4"),
            (["analyze", "--tau", "1/2,1/2,0,0", "--checkpoints", "1,x"], "checkpoints must be integers, got '1,x'"),
            (["construct", "--base", "1", "--mean", "0", "--length", "3"], "--base must be >= 2, got 1"),
            (
                ["analyze", "--mean", "0", "--checkpoints", "10", "--normality-tol", "-1"],
                "--normality-tol: tolerance must be >= 0, got -1",
            ),
        ],
    )
    def test_exit_2_with_the_message(self, argv, message, capsys):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


class TestConfigMerging:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mean": "0", "length": 4}))
        code, out, _ = run_cli(capsys, "construct", "--config", str(config))
        assert code == 0 and out.strip() == "0000"

    def test_flag_wins_with_warning(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mean": "0", "length": 4}))
        code, out, err = run_cli(
            capsys, "construct", "--config", str(config), "--length", "6"
        )
        assert code == 0 and out.strip() == "000000"
        assert "overrides" in err

    @pytest.mark.parametrize(
        "command, key, file_value, flag, warns",
        [
            (("analyze", "--rational", "1/3"), "checkpoints", [1, 5], ("--checkpoints", "1,5"), False),
            (("analyze", "--rational", "1/3"), "checkpoints", [1, 5], ("--checkpoints", " 1, 5,"), False),
            (("analyze", "--rational", "1/3"), "checkpoints", [1, 6], ("--checkpoints", "1,5"), True),
            (("verify",), "modules", ["stats"], ("--module", " stats"), False),
            (("verify",), "modules", ["stats,entropy"], ("--module", "stats", "--module", "entropy"), False),
            (("verify",), "modules", ["entropy"], ("--module", "stats"), True),
        ],
        ids=["same-checkpoints", "spaced-checkpoints", "other-checkpoints", "same-module", "split-modules", "other-module"],
    )
    def test_warns_only_when_the_normalized_values_differ(
        self, command, key, file_value, flag, warns, tmp_path, capsys
    ):
        # A flag is compared with the file's value after both are normalized,
        # so the same list written as a flag and as JSON draws no warning.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: file_value}))
        code, _, err = run_cli(capsys, *command, *flag, "--config", str(config))
        assert code == 0, err
        assert ("overrides" in err) == warns, err

    def test_invalid_config_file(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert run_cli(capsys, "construct", "--config", str(config), "--length", "4")[0] == 2
        config.write_text(json.dumps({"levitation": True}))
        assert run_cli(capsys, "construct", "--config", str(config), "--length", "4")[0] == 2
        missing = tmp_path / "missing.json"
        got = run_cli(capsys, "construct", "--config", str(missing), "--length", "4")
        assert got == (2, "", f"error: cannot read config file: [Errno 2] No such file or directory: '{missing}'\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"mean": "0", "length": "5"}, "config key 'length' must be a JSON integer, got \"5\""),
            ({"mean": 0, "length": 5}, "config key 'mean' must be a JSON string, got 0"),
            ({"mean": "0", "length": True}, "config key 'length' must be a JSON integer, got true"),
            ({"mean": "0", "length": 5, "oracle": 1}, "config key 'oracle' must be a JSON boolean, got 1"),
            ({"mean": "0", "length": 5, "schedule": []}, "config key 'schedule' must be a JSON object, got []"),
            (
                {"mean": "0", "length": 5, "checkpoints": [1, "2"]},
                "config key 'checkpoints' must be a list of integers, got [1, \"2\"]",
            ),
            (
                {"mean": "0", "length": 5, "modules": "stats"},
                "config key 'modules' must be a list of strings, got \"stats\"",
            ),
            ([1], "config file must hold a JSON object"),
        ],
    )
    def test_value_types_are_checked(self, doc, message, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        got = run_cli(capsys, "construct", "--config", str(config))
        assert got == (2, "", f"error: {message}\n")

    def test_null_leaves_a_key_unset(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mean": "0", "length": 3, "format": None}))
        assert run_cli(capsys, "construct", "--config", str(config)) == (0, "000\n", "")

    def test_config_round_trip(self):
        cfg = ExperimentConfig(
            command="analyze",
            base=4,
            tau="1/4,1/4,1/4,1/4",
            checkpoints=(10, 100),
            precision=9,
        )
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_depends_on_content(self):
        a = ExperimentConfig(command="construct", mean="0", length=10)
        b = ExperimentConfig(command="construct", mean="0", length=11)
        assert a.config_hash() != b.config_hash()


# A config that sets keys the commands below do not read.
UNREAD = {"precision": 3, "theta": "1/2", "oracle": True}


class TestModeTable:
    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["construct", "--tau", "1/2,1/2,0,0", "--length", "6"], UNREAD, "construct --tau does not read 'precision'"),
            (["analyze", "--rational", "1/3", "--checkpoints", "3"], UNREAD, "analyze --rational does not read 'theta'"),
            (["verify", "--module", "stats"], UNREAD, "verify does not read 'precision'"),
            (["analyze", "--rational", "1/3", "--checkpoints", "3"], {"length": 5}, "analyze --rational does not read 'length'"),
            (["dimension", "--tau", "1,0,0,0"], {"checkpoints": [1]}, "dimension --tau does not read 'checkpoints'"),
            (["construct", "--mean", "0", "--length", "3"], {"in": "digits.txt"}, "construct --mean does not read 'in'"),
            (["dimension", "--sweep", "0:1:1/2"], {"modules": ["stats"]}, "dimension --sweep does not read 'modules'"),
            (
                ["construct", "--length", "6"],
                {"schedule": {"family": "polynomial"}, "columns": UNIFORM_COLUMNS, "normality_tol": "1/10"},
                "construct with a block config does not read 'normality_tol'",
            ),
        ],
        ids=["construct", "analyze", "verify", "length", "checkpoints", "in", "modules", "blocks"],
    )
    def test_a_key_the_mode_does_not_read_is_refused(self, argv, doc, message, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        got = run_cli(capsys, *argv, "--config", str(config), "--out", str(out))
        assert got == (2, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        # Without the keys that it names, the same run succeeds.
        config.write_text(json.dumps({k: v for k, v in doc.items() if k in ("schedule", "columns")}))
        assert run_cli(capsys, *argv, "--config", str(config))[0] == 0

    def test_precision_env_applies_only_where_precision_is_read(self, tmp_path, capsys, monkeypatch):
        construct = ["construct", "--mean", "0", "--length", "3"]
        out = tmp_path / "digits.txt"
        assert run_cli(capsys, *construct, "--out", str(out))[0] == 0
        plain = out.read_text()
        monkeypatch.setenv("ADICLAB_PRECISION", "99")
        assert run_cli(capsys, *construct) == (0, "000\n", "")
        assert run_cli(capsys, "verify", "--module", "stats")[0] == 0
        assert run_cli(capsys, "dimension", "--tau", "1,0,0,0")[0] == 0
        message = "error: precision must lie in [1, 17], got 99\n"
        assert run_cli(capsys, "analyze", "--mean", "0", "--checkpoints", "3") == (2, "", message)
        assert run_cli(capsys, "dimension", "--sweep", "0:1:1/2") == (2, "", message)
        monkeypatch.setenv("ADICLAB_PRECISION", "5")
        out.unlink()
        assert run_cli(capsys, *construct, "--out", str(out))[0] == 0
        assert out.read_text() == plain  # the header hash included
        assert "precision" not in json.loads((tmp_path / "digits.txt.json").read_text())["config"]

    def test_readme_lists_what_each_mode_reads(self):
        # The README's table of modes, row by row, against COMMANDS.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("<!-- modes -->")[1].strip()
        rows = set()
        for line in section.splitlines()[2:]:
            if not line.startswith("|"):
                break
            command, picked, reads, writes = (cell.strip() for cell in line.strip("|").split("|"))
            keys = lambda cell: tuple(re.findall(r"`([a-z_]+)`", cell))
            rows.add((keys(command)[0], keys(picked), frozenset(keys(reads)), tuple(re.findall(r"\w+", writes))))
        expected = {
            (name, mode.requires, mode.reads - {"base", "out", "format", *mode.requires}, mode.formats)
            for name, command in COMMANDS.items()
            for mode in command.modes.values()
        }
        assert rows == expected


FIELDS = {f.metadata.get("key") or f.name: f for f in fields(ExperimentConfig)}
# Small valid config values of each key; "digits.txt" holds 10 digits.
KEY_VALUES = {
    "base": [4, 2],
    "format": ["csv", "json", "text"],
    "tau": ["1/2,1/2,0,0", "1/4,1/4,1/4,1/4"],
    "mean": ["0", "1/3", "3/2"],
    "rational": ["1/3", "2/7"],
    "length": [1, 7, 20],
    "schedule": [{"family": "polynomial", "degree": 1}],
    "columns": [UNIFORM_COLUMNS],
    "in": ["digits.txt"],
    "checkpoints": [[1, 5], [10], [3]],
    "normality_tol": ["1/10"],
    "theta": ["1/2", "3/2"],
    "sweep": ["0:1:1/2"],
    "oracle": [True],
    "grid_step": ["1/10"],
    "precision": [3, 12],
    "modules": [["stats"]],
}


def _provenance_hash(text: str) -> str:
    if text.startswith("#"):
        return text.split("config=")[1].split()[0]
    return json.loads(text)["provenance"]["config_hash"]


class TestModeTableProperties:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_runs_drawn_from_the_table(self, tmp_path_factory, data):
        # An argv and a config file drawn from COMMANDS: the keys that pick a
        # mode, some keys it reads and at most one key from anywhere, each
        # given by flag or by config key. verify runs --module stats only.
        tmp = tmp_path_factory.mktemp("modes")
        (tmp / "digits.txt").write_text("0123012301\n")
        name = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
        command = COMMANDS[name]
        mode = data.draw(st.sampled_from(list(command.modes.values())), label="mode")
        optional = sorted(mode.reads - {"out", *mode.requires})
        keys = [*mode.requires, *data.draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))]
        keys += data.draw(st.lists(st.sampled_from(sorted(KEY_VALUES)), max_size=1), label="extra")
        if name == "verify":
            keys.append("modules")
        parsed = {key for m in command.modes.values() for key in m.reads}
        argv, doc = [name], {}
        for key in dict.fromkeys(keys):
            value = data.draw(st.sampled_from(KEY_VALUES[key]), label=key)
            value = str(tmp / value) if key == "in" else value
            flag = FIELDS[key].metadata["flag"]
            if flag and key in parsed and data.draw(st.booleans(), label=f"{key} by flag"):
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv += [flag] if value is True else [flag, text]
            else:
                doc[key] = value
        out = tmp / "out.txt"
        if data.draw(st.booleans(), label="--out"):
            argv += ["--out", str(out)]
        if doc:
            (tmp / "c.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp / "c.json")]
        env = data.draw(st.sampled_from([None, "5", "99"]), label="ADICLAB_PRECISION")

        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            if env is None:
                mp.delenv("ADICLAB_PRECISION", raising=False)
            else:
                mp.setenv("ADICLAB_PRECISION", env)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            if code == 0:
                cfg, _ = effective_config(build_parser().parse_args(argv))
        assert code in (0, 1, 2)
        event(f"exit {code}")
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists() and not out.with_name("out.txt.json").exists()
        if code == 0:
            # Every field that the mode does not read keeps its default, so
            # the hash depends only on the fields that it reads.
            for key, f in FIELDS.items():
                if key not in ("command", *mode.reads):
                    assert getattr(cfg, f.name) == f.default, key
            if "--out" in argv:
                assert _provenance_hash(out.read_text()) == cfg.config_hash()
            elif name != "construct":  # construct writes bare digits to stdout
                assert _provenance_hash(stdout.getvalue()) == cfg.config_hash()


# sha256 digests of artifacts written by the per-digit implementation that
# the chunked streams replaced; the chunked path must reproduce them byte
# for byte. Lengths and checkpoints straddle the 65536-digit chunk size.
GOLDEN_SOURCES = {
    "greedy4": ["--tau", "1/2,1/3,1/6,0"],
    "greedy6": ["--tau", "1/6,1/12,1/4,1/6,1/6,1/6", "--base", "6"],
    "greedy10": ["--tau", "3/20,1/20,1/10,1/10,1/10,1/10,1/10,1/10,1/10,1/10", "--base", "10"],
    "mean": ["--mean", "23/25"],
    "block": ["--config", "block.json"],
    "rational": ["--rational", "123457/999983"],
}
GOLDEN_BLOCK = {
    "schedule": {"family": "polynomial", "degree": 2},
    "columns": {"kind": "converging", "limit": ["1/2", "1/4", "1/4", "0"], "mix_digit": 3},
}
GOLDEN = {
    "greedy4": {
        "stdout": "cfe5f92abd4e0332eaed51de50f4a2920474cad23913425f84c2ac87175a72d2",
        "file": "897150ba9499d88f43ac5a7ccf7a253d03ab35a65523c334bd7a2ae27af069b5",
        "sidecar": "67d78c3e568bf5cc8d3fc4d7fcec7e8ed74d444621806abe1470187343830f1e",
        "in_csv": "54fae082606940199e72ca5b63d3d403138a2558bc3c3ad65f07c0faf625a475",
        "in_json": "97844655871466e23af8d1991ed9afc27119a1c8fdd6d5127e62950e45489dbc",
        "inline": "748275c74a0e4f733627ece9f4a0c70f60b4c1d6c5a9378d54ebb9541ce55d8a",
    },
    "greedy6": {
        "stdout": "0b331aeb1a5c184ca884e65757db9c32ead83f897b8e34a2dea8ba1d11487c96",
        "file": "b74611de0bc53e3751b680950d1507b4fc3cbc547a70ff5c91d22ae1ad92eac6",
        "sidecar": "f97c1e9f64220e352b0f29625987a27c24c75f1c79574ee99c69a16c05b444de",
        "in_csv": "8f4f96b4aae8bf04017ce9b92a2830676851c65a6cf92ed487640d84799835ab",
        "in_json": "95945c7dce29ae08c9a85bc2bb02210ea2953724cd4a8a254071ae5a861b9b6c",
        "inline": "20d013bc64afd10260c95a8fd9d5c396b605c801d658bedc49e686cdb549d324",
    },
    "greedy10": {
        "stdout": "17ec165682719d569c94e3ab38af0de3b204782512dfacc7b141efe66470cf27",
        "file": "778f17d158264050827f8d4f03e78a38e402bc6df4c6fec1d8fa03e6d107cedf",
        "sidecar": "c1319e6491d25f95d91c0cea8814f37ee53ff1734b596ae36718f04f087116b6",
        "in_csv": "da5d19277040976752f91f9d866e6e96676f05901ecefd697e707565ae882963",
        "in_json": "3cddc3c6555fef803f74d95c2356fc0caabeb54a82ddfe06a3fc6d98c60ec0da",
        "inline": "e769aeaa10c8debb4ba55504cbb080de4c578a3ec4e200e2d8e6e0f6b17737e0",
    },
    # Written from the exact vector over D = 65525 (mean exactly 23/25, one
    # tiled period), not by the per-digit implementation.
    "mean": {
        "stdout": "c245bd76ffbcb7bc7258596d9b85326bd645e4afee237bfd5dec20094adb2ac7",
        "file": "6324385756ad1caea435843e6edd6931cab5f0c909ee4244655df2b8dc653809",
        "sidecar": "d53e8cf6fc9208ffbfaff0cbac56720698ea952333ea6967777ecc4093c2e2d2",
        "in_csv": "826c4eb2081038cd401a285fd7e7e4e504ec07ea60d3be42446e9bf66fc4ff2c",
        "in_json": "203b6e5f4aa2beafebd247e28dfed101ee51e6301ce4ab2fcdfaa84405a7efc2",
        "inline": "af8b04a81cae79108e6849a7cbfe6aa79ed8418bc24b5a72fd8afafd37694e94",
    },
    "block": {
        "stdout": "71ee52ae2dddefbcf9c9a08dff6fc84c7bad283a93eac0cf39ca329def578d07",
        "file": "69d8825148cc1bddceab1a97012b63d80c29f3d72e6cd86f916f2295233d7ad7",
        "sidecar": "596b4a638fb39f222ff4207af4c0fe030589b601f502c439bfe40c5b9f2b2a17",
        "in_csv": "61f0cb8b5c3dd76c6c59dec74cd76f309cbfaa5020eedfd2a33a7a876fd8c545",
        "in_json": "17b21846dfd0bd85a75da691dd1846554ece1ba284187afb84a3cad52db0f610",
        "inline": "b9c9d7660bd1c69c04fce44a1a33cd94c1c82433ec899f5125c3815536d6a37f",
    },
    "rational": {
        "stdout": "ad8222586977806797a514926eba53b1113fc3835b874891be1f98ad8145ea39",
        "file": "6c06006b2d57d4114e4fd583b67a81bf8480c400e5135e0c772daedb82ffddc7",
        "sidecar": "8fc4029e39bb6eb9a17fbcb56718348c7da72e3609d9a42c0066f144b5f2f626",
        "in_csv": "f946bc7727c3756b98885ae4e2d86116c07640291d2be7f7b91445a06347bbda",
        "in_json": "be0029f6cd25dc2b67769eb92633723092365a75cc8113fdd455860cfacd8391",
        "inline": "687cb5eaf635ffe2d067b7df919273c481e912a08e71acb9d2fe1f9b3f11caf9",
    },
}
GOLDEN_SWEEP = "e0de43a6ac9555deb91ebe5ff3189099e9ee524f61319bb194c5814d485d8baa"
# stdout digests written by the one-theta bisection and the whole-grid
# oracle scan that the batched solver and the slab scan replaced.
GOLDEN_DIMENSION = {
    "sweep": (
        ["--sweep", "0:3:1/1000"],
        "e1762e92e0263288e0279dbe97b682951c94e6d782889c797bc273b8d7e4fe57",
    ),
    "oracle4": (
        ["--theta", "1234/1000", "--oracle"],
        "bf1d739aca4b4abc02733c2a9980eab9a4b24947db7f22187fe2fdb425e5aaf2",
    ),
    "oracle5": (
        ["--theta", "123/100", "--base", "5", "--oracle", "--grid-step", "1/200"],
        "9551b10e815de83d95e5a240e73eda9691f90feb0c63bba90a508720dbf12aa8",
    ),
}


def _stdout_digest(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
    def test_construct_and_analyze_bytes(self, name, tmp_path, monkeypatch):
        # Relative paths keep the config hashes in the headers fixed.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "block.json").write_text(json.dumps(GOLDEN_BLOCK))
        flags = GOLDEN_SOURCES[name]
        base = flags[flags.index("--base") + 1] if "--base" in flags else "4"
        out = f"{name}.txt"
        got = {"stdout": _stdout_digest("construct", *flags, "--length", "70000")}
        assert main(["construct", *flags, "--length", "70000", "--out", out]) == 0
        got["file"] = _file_digest(out)
        got["sidecar"] = _file_digest(out + ".json")
        got["in_csv"] = _stdout_digest("analyze", "--in", out, "--base", base)
        got["in_json"] = _stdout_digest("analyze", "--in", out, "--base", base, "--format", "json")
        got["inline"] = _stdout_digest(
            "analyze", *flags, "--checkpoints", "1,10,65535,65536,65537,70000", "--format", "json"
        )
        assert got == GOLDEN[name]

    def test_sweep_bytes(self):
        assert _stdout_digest("dimension", "--sweep", "0:3:1/20") == GOLDEN_SWEEP

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIMENSION))
    def test_dimension_bytes(self, name):
        flags, digest = GOLDEN_DIMENSION[name]
        assert _stdout_digest("dimension", *flags) == digest
