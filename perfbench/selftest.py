"""Self-test of the benchmark at tiny input sizes (under a minute).

    python3 perfbench/selftest.py

It checks that BENCHMARK.json and run.py name the same workloads, metrics
and units; that every workload, plain and traced, passes its own checks
and prints each metric with its unit (fail_ratio too, in the plain run);
that one flipped digit in a construct artifact raises fail_ratio above 0;
and that run.py, next to no adiclab source tree, exits nonzero without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import reference as ref
import run
from workloads import WORKLOADS, Workload


def printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) from the metric lines of a report."""
    out = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            out[fields[0]] = (float(fields[1]), fields[2])
    return out


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end differs"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer differs"


def check_reports() -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run(name, seed=7, seconds=0, trace=trace, scale="tiny")
            assert not result.failures, f"{name} trace={trace}: {result.failures}"
            lines = printed(result.report_lines())
            expected = {**run.PER_LAYER, **run.PER_LAYER_PRINTED} if trace else {**run.END_TO_END, run.FAIL_RATIO[0]: run.FAIL_RATIO[1]}
            for metric, unit in expected.items():
                assert metric in lines, f"{name} trace={trace}: {metric} not printed"
                assert lines[metric][1] == unit, f"{name}: {metric} printed in {lines[metric][1]}, not {unit}"
            final = result.final_line()
            assert list(final) == ["correct", "attempted", "failed", "metrics"]
            units = run.PER_LAYER if trace else run.END_TO_END
            assert {k: v["unit"] for k, v in final["metrics"].items()} == units
            print(f"ok  {name} trace={int(trace)}: {len(lines)} metrics printed with units")


def flip_first_digit(wl: Workload) -> None:
    """Replace one digit of the first construct artifact by another digit."""
    op = next(op for op in wl.ops if op.kind == "construct")
    path = Path(op.argv[op.argv.index("--out") + 1])
    data = bytearray(path.read_bytes())
    at = data.index(b"\n") + 1 + len(ref.read_digit_artifact(path)) // 2
    data[at] = 48 + (data[at] - 48 + 1) % 4
    path.write_bytes(bytes(data))


def check_flipped_digit() -> None:
    result = run.run("streams", seed=7, seconds=0, trace=False, scale="tiny", after_pass=flip_first_digit)
    ratio = printed(result.report_lines())[run.FAIL_RATIO[0]][0]
    assert ratio > 0, "a flipped digit went unnoticed"
    assert result.final_line()["correct"] is False
    print(f"ok  flipped digit: fail_ratio {ratio:.3g}, first failure: {result.failures[0]}")


def check_missing_program() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "streams", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout, "ran without a program to test"
    print(f"ok  without src/adiclab: exit {proc.returncode}, nothing on stdout")


def main() -> int:
    check_spec()
    check_reports()
    check_flipped_digit()
    check_missing_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
