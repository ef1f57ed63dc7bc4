import json
import os
import threading

from adiclab.cli import ExperimentConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_exit_zero_even_when_inconsistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--mean", "0", "--checkpoints", "10", "--normality-tol", "0"
        )
        assert code == 0
        assert "inconsistent" in out

    def test_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("01x3\n")
        assert run_cli(capsys, "analyze", "--in", str(bad))[0] == 2
        assert run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.txt"))[0] == 2
        source = tmp_path / "short.txt"
        source.write_text("0123\n")
        code, _, err = run_cli(capsys, "analyze", "--in", str(source), "--checkpoints", "10")
        assert code == 2 and "before checkpoint" in err
        assert run_cli(capsys, "analyze", "--rational", "1/3", "--format", "text")[0] == 2
        assert run_cli(capsys, "analyze", "--in", str(source), "--mean", "0")[0] == 2

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


class TestDimension:
    def test_point_mass(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--tau", "1,0,0,0")
        assert code == 0
        assert json.loads(out)["dimension"] == 0.0

    def test_theta_midpoint(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--theta", "1.5")
        doc = json.loads(out)
        assert code == 0
        assert doc["dimension_bound"] == 1.0
        assert doc["lambda"] == 0.0
        assert set(doc) == {"provenance", "theta", "m", "argmin", "lambda", "dimension_bound"}

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
        assert run_cli(capsys, "dimension", "--tau", "1,0,0,0", "--oracle")[0] == 2

    def test_oversized_oracle_is_usage_error(self, capsys):
        # About 1e12 and 1e9 grid cells; refused before any allocation.
        for base in ("6", "5"):
            code, _, err = run_cli(capsys, "dimension", "--base", base, "--theta", "1", "--oracle")
            assert code == 2 and "cells" in err


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

    def test_invalid_config_file(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert run_cli(capsys, "construct", "--config", str(config), "--length", "4")[0] == 2
        config.write_text(json.dumps({"levitation": True}))
        assert run_cli(capsys, "construct", "--config", str(config), "--length", "4")[0] == 2

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
