"""adiclab benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload {streams,exact,battery} --seed N \
        --seconds S --trace {0,1}

The program under test is the adiclab source tree beside this directory
(src/adiclab), used in place; without it the run exits with status 2 and
prints no result. Inputs are drawn from --seed. One process (this
one) runs the workload's operations in order, one child at a time, and
repeats full passes over them until --seconds of passes are measured.

--trace 0 runs each `adiclab` command as a child process and reports the
end-to-end metrics, in seconds calibrated by SpeedProbe (the run pins
itself and its children to one CPU, whose speed the probe tracks). --trace 1 runs `adiclab.cli.main(argv)` in this
process instead, alternating plain passes with passes whose calls into
adiclab's public functions are wrapped in spans (see tracing.py), and
reports the per-layer metrics; trace.overhead_s is the difference of the
two pass times.

Every operation's output is checked after its pass, outside the timed
region. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat every metric
with its unit and sample count. Full records (seed, generated inputs,
per-operation timings, failures) go to .perfbench/result-*.json, and the
spans of a traced run to .perfbench/spans-*.tsv.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import BUILDERS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Metrics and units. BENCHMARK.json lists the same names; the self-test
# keeps the two in step.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "construct_digits_per_s": "digits/s",
    "analyze_digits_per_s": "digits/s",
    "values_s": "s",
    "verify_s": "s",
    "dimension_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the others but not a JSON metric: it is 0 whenever the
# program is correct, and the JSON's attempted/failed carry it exactly.
FAIL_RATIO = ("fail_ratio", "ratio")

PER_LAYER = {
    "construct.greedy_stream.digits_per_s": "digits/s",
    "construct.mean_target_stream.digits_per_s": "digits/s",
    "construct.block_stream.digits_per_s": "digits/s",
    "digits.expand.calls": "count",
    "digits.expand.busy_s": "s",
    "digits.expand.first_digit_s": "s",
    "digits.expand.useful_ratio": "ratio",
    "digits.periodic_iter.digits_per_s": "digits/s",
    "digits.stream_value.busy_s": "s",
    "digits.prefix_value.digits_per_s": "digits/s",
    "stats.convergence_trace.digits_per_s": "digits/s",
    "stats.convergence_trace.busy_s": "s",
    "cli.construct.self_s": "s",
    "cli.analyze.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "entropy.neg_entropy_minimum.calls": "count",
    "entropy.neg_entropy_minimum.busy_s": "s",
    "entropy.exp_family_vector.calls": "count",
    "entropy.neg_entropy_minimum_grid.busy_s": "s",
    "entropy.neg_entropy_minimum_grid.cells": "count",
    "verify.run_checks.stats.busy_s": "s",
    "verify.run_checks.construct.busy_s": "s",
    "verify.checks_passed": "count",
    "verify.checks_failed": "count",
    "trace.overhead_s": "s",
}
# Printed by the traced run, but not JSON metrics: only battery runs these
# verify modules, so elsewhere they read 0 s on every run.
PER_LAYER_PRINTED = {
    "verify.run_checks.digits.busy_s": "s",
    "verify.run_checks.entropy.busy_s": "s",
}

SETUP_SAMPLES = 9


def _digit_source(n: int):
    for i in range(n):
        yield i & 3


class SpeedProbe:
    """Machine-speed calibration for the plain run.

    On a shared 2-vCPU machine the speed one process sees shifts by up to
    1.5x, for seconds to minutes at a time, as other tenants load the
    physical cores. This
    loop, shaped like adiclab's per-digit path (a generator feeding a
    tally), is timed on the same CPU right before and right after every
    timed operation. The mean of the two, over REFERENCE_S, is that
    operation's speed factor; its time is divided by it, which gives
    seconds of a machine on which the loop takes REFERENCE_S. adiclab
    changes cannot move the loop, so comparisons between commits hold.
    """

    REFERENCE_S = 0.007

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        start = perf_counter()
        counts = [0] * 4
        for d in _digit_source(80_000):
            counts[d] += 1
        self.samples.append(perf_counter() - start)
        return self.samples[-1]

    def around(self, fn, *args):
        """(fn(*args), speed factor), with a sample on each side of the call."""
        before = self.sample()
        result = fn(*args)
        return result, (before + self.sample()) / 2 / self.REFERENCE_S


@dataclass
class OpRun:
    kind: str  # an adiclab command, "values" or "setup"
    seconds: float
    digits: int = 0
    status: object = 0  # exit status, or the exception an in-process call raised
    rss_mb: float | None = None
    speed: float = 1.0  # SpeedProbe factor; 1.0 where not calibrated


@dataclass
class Pass:
    ops: list[OpRun] = field(default_factory=list)
    value_results: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    def end_to_end(self, calibrate: bool) -> dict[str, float]:
        def t(op: OpRun) -> float:
            return op.seconds / op.speed if calibrate else op.seconds

        def busy(kind: str) -> float:
            return sum(t(op) for op in self.ops if op.kind == kind)

        def rate(kind: str) -> float:
            return sum(op.digits for op in self.ops if op.kind == kind) / busy(kind)

        return {
            "wall_s": sum(t(op) for op in self.ops),
            "construct_digits_per_s": rate("construct"),
            "analyze_digits_per_s": rate("analyze"),
            "values_s": busy("values"),
            "verify_s": busy("verify"),
            "dimension_s": busy("dimension"),
            "peak_rss_mb": max(op.rss_mb for op in self.ops if op.rss_mb is not None),
        }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The small helper process (launcher.py) that starts every child and
    reports its wall time, exit status and peak RSS from its own wait4
    rusage (not RUSAGE_CHILDREN, a running maximum over all children)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stderr: Path | str = os.devnull) -> tuple[float, int, float]:
        """(seconds, exit status, peak RSS in MB) of one child."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with status {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["seconds"], reply["status"], reply["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher, samples: int, probe: SpeedProbe) -> list[OpRun]:
    """Fresh-interpreter `import adiclab.cli`, after one unmeasured warm-up
    that also compiles the bytecode cache."""
    runs = []
    for k in range(samples + 1):
        (seconds, status, _), speed = probe.around(launcher.run, [sys.executable, "-c", "import adiclab.cli"])
        if status != 0:
            raise RuntimeError(f"`import adiclab.cli` exited with status {status}")
        if k:
            runs.append(OpRun("setup", seconds, speed=speed))
    return runs


def _timed_attempt(fn, *args) -> tuple[object, float]:
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # reported by check_pass as the op's failure
        result = exc
    return result, perf_counter() - start


def values_pass(wl: Workload, lib, record: Pass, probe: SpeedProbe | None = None) -> None:
    for op in wl.values:
        try:
            args = op.prepare(lib)
        except Exception as exc:  # a missing or malformed artifact fails the op
            record.value_results.append(exc)
            continue
        if probe:
            (result, seconds), speed = probe.around(_timed_attempt, op.run, lib, *args)
        else:
            (result, seconds), speed = _timed_attempt(op.run, lib, *args), 1.0
        record.ops.append(OpRun("values", seconds, speed=speed))
        record.value_results.append(result)


def subprocess_pass(wl: Workload, lib, launcher: Launcher, work: Path, probe: SpeedProbe) -> Pass:
    record = Pass()
    for i, op in enumerate(wl.ops):
        argv = [sys.executable, "-m", "adiclab", *op.argv]
        (seconds, status, rss), speed = probe.around(launcher.run, argv, work / f"stderr-{i}.txt")
        record.ops.append(OpRun(op.kind, seconds, op.digits, status, rss, speed))
    values_pass(wl, lib, record, probe)
    return record


def inprocess_pass(wl: Workload, lib, tracer: tracing.Tracer | None) -> Pass:
    record = Pass()
    for op in wl.ops:
        start = perf_counter()
        token = tracer.open() if tracer else None
        try:
            status = lib.cli.main(op.argv)
        except (Exception, SystemExit) as exc:
            status = exc
        finally:
            if tracer:
                tracer.close(token, "cli." + op.kind)
        record.ops.append(OpRun(op.kind, perf_counter() - start, op.digits, status))
        if tracer:
            tracer.counters["cli.bytes_written"] += sum(p.stat().st_size for p in op.writes if p.exists())
            tracer.counters["cli.bytes_read"] += sum(p.stat().st_size for p in op.reads if p.exists())
    values_pass(wl, lib, record)
    return record


def check_pass(wl: Workload, record: Pass) -> list[str]:
    """Failure reasons for one pass; an empty list means every output held."""
    failures = []
    for op, outcome in zip(wl.ops, record.ops):
        if outcome.status != 0:
            failures.append(f"{' '.join(op.argv[:2])}: exit status {outcome.status!r}")
            continue
        try:
            reason = op.check()
        except Exception as exc:
            reason = f"check raised {exc!r}"
        if reason:
            failures.append(f"{op.argv[0]}: {reason}")
    for op, result in zip(wl.values, record.value_results):
        if isinstance(result, Exception):
            failures.append(f"{op.label}: raised {result!r}")
            continue
        try:
            reason = op.check(result)
        except Exception as exc:
            reason = f"check raised {exc!r}"
        if reason:
            failures.append(reason)
    return failures


def tally_probe(wl: Workload, lib, tracer: tracing.Tracer) -> None:
    """convergence_trace over each analyzed digit sequence, materialized
    first with stream_from_digits, so the span times only the tally."""
    for tally in wl.tallies:
        try:
            digits = tuple(tally.load().tolist())
        except (OSError, ValueError):  # the op's own check reports it
            continue
        stream = lib.digits.stream_from_digits(digits, lib.Base(tally.base))
        tracer.span(
            "stats.convergence_trace.materialized", lib.stats.convergence_trace,
            stream, tally.checkpoints, n=tally.checkpoints[-1],
        )


def count_verify_checks(wl: Workload, tracer: tracing.Tracer) -> None:
    for op in wl.ops:
        if op.kind == "verify":
            try:
                doc = json.loads(op.writes[0].read_text())
            except (OSError, ValueError):  # the op's own check reports it
                continue
            tracer.counters["verify.checks_passed"] += doc["passed"]
            tracer.counters["verify.checks_failed"] += doc["failed"]


def machine_facts() -> dict:
    def sysconf(name: str, glibc_number: int):
        # CPython does not name the cache-size queries; glibc numbers them.
        try:
            return os.sysconf(os.sysconf_names.get(name, glibc_number))
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l2_bytes": sysconf("SC_LEVEL2_CACHE_SIZE", 191),
        "l3_bytes": sysconf("SC_LEVEL3_CACHE_SIZE", 194),
    }


def summarize(samples: list[float]) -> dict:
    """Median, the sample count, and the highest percentile with at least
    ten samples beyond it (none below eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"value": statistics.median(ordered), "samples": n}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    return out


@dataclass
class RunResult:
    workload: Workload
    trace: bool
    metrics: dict[str, dict]  # name -> summarize() output
    units: dict[str, str]
    attempted: int
    failures: list[str]
    record: dict

    def report_lines(self) -> list[str]:
        wl = self.workload
        lines = [
            f"# perfbench workload={wl.name} seed={wl.seed} trace={int(self.trace)}",
            f"# machine: {json.dumps(self.record['machine'])}",
            f"# inputs: {json.dumps(wl.inputs)}",
        ]
        if not self.trace:
            lines.append(f"# mean speed factor {self.record['speed_factor']:.4f}; times are calibrated, raw medians in brackets")
        for name, unit in self.units.items():
            m = self.metrics[name]
            extra = "".join(f", {k} {v:.6g}" for k, v in m.items() if k.startswith("p"))
            raw = "" if self.trace else f" [raw {statistics.median(self.record['raw_samples'][name]):.6g}]"
            lines.append(f"{name:44s} {m['value']:.6g} {unit}  (median of {m['samples']}{extra}){raw}")
        if not self.trace:
            ratio = len(self.failures) / self.attempted
            lines.append(f"{FAIL_RATIO[0]:44s} {ratio:.6g} {FAIL_RATIO[1]}  ({len(self.failures)} of {self.attempted} operations failed)")
        lines += [f"# FAILED {reason}" for reason in self.failures[:20]]
        return lines

    def final_line(self) -> dict:
        names = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {n: {"value": self.metrics[n]["value"], "unit": names[n]} for n in names},
        }


def import_adiclab():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("adiclab")
    for sub in ("cli", "digits", "stats"):
        importlib.import_module(f"adiclab.{sub}")
    return lib


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full", after_pass=None) -> RunResult:
    """One benchmark run. `after_pass(workload)` is called after each pass,
    before its checks; the self-test uses it to damage an artifact."""
    lib = import_adiclab()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    probe = SpeedProbe()
    machine = machine_facts()
    cpus = os.sched_getaffinity(0)
    failures: list[str] = []
    attempted = 0

    def finish(record: Pass) -> Pass:
        nonlocal attempted
        if after_pass:
            after_pass(wl)
        failures.extend(check_pass(wl, record))
        attempted += len(wl.ops) + len(wl.values)
        return record

    plain: list[Pass] = []
    traced: list[tuple[Pass, tracing.Tracer]] = []
    try:
        # One CPU for this process and, by inheritance, every child: the speed
        # probe then times the CPU the operations run on.
        os.sched_setaffinity(0, {max(cpus)})
        wl = BUILDERS[name](seed, work, scale)
        if trace:
            while not plain or sum(r.wall_s for r in plain) + sum(r.wall_s for r, _ in traced) < seconds:
                plain.append(finish(inprocess_pass(wl, lib, None)))
                tracer = tracing.Tracer(f"{name}-{seed}-{len(traced)}")
                tracer.install()
                try:
                    record = inprocess_pass(wl, lib, tracer)
                finally:
                    tracer.restore()
                count_verify_checks(wl, tracer)
                tally_probe(wl, lib, tracer)
                traced.append((finish(record), tracer))
        else:
            launcher = Launcher(child_env())
            try:
                setup = measure_setup(launcher, SETUP_SAMPLES if scale == "full" else 2, probe)
                while not plain or sum(r.wall_s for r in plain) < seconds:
                    plain.append(finish(subprocess_pass(wl, lib, launcher, work, probe)))
            finally:
                launcher.close()
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        per_pass = [tracing.layer_metrics(tr) for _, tr in traced]
        overhead = statistics.median(r.wall_s for r, _ in traced) - statistics.median(r.wall_s for r in plain)
        for layer in per_pass:
            layer["trace.overhead_s"] = overhead
        units = {**PER_LAYER, **PER_LAYER_PRINTED}
        raw = {n: [layer[n] for layer in per_pass] for n in units}
        samples = raw
        with open(OUT / f"spans-{name}-seed{seed}.tsv", "w") as handle:
            handle.write("run\tid\tparent\tname\tstart\tend\tn\n")
            for _, tr in traced:
                tr.write_tsv(handle)
    else:
        units = dict(END_TO_END)
        raw = {"setup_s": [op.seconds for op in setup]}
        samples = {"setup_s": [op.seconds / op.speed for op in setup]}
        for r in plain:
            for n, v in r.end_to_end(calibrate=False).items():
                raw.setdefault(n, []).append(v)
            for n, v in r.end_to_end(calibrate=True).items():
                samples.setdefault(n, []).append(v)

    metrics = {n: summarize(v) for n, v in samples.items()}
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "scale": scale,
        "machine": machine,
        "speed_factor": statistics.fmean(probe.samples) / probe.REFERENCE_S if probe.samples else None,
        "inputs": wl.inputs,
        "operations": [" ".join(op.argv) for op in wl.ops] + [v.label for v in wl.values],
        "samples": samples,
        "raw_samples": raw,
        "speed_probe_s": probe.samples,
        "passes": [[(op.kind, op.seconds, op.speed, op.rss_mb) for op in r.ops] for r in plain],
        "failures": failures,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return RunResult(wl, trace, metrics, units, attempted, failures, record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "adiclab" / "__init__.py").is_file():
        print(f"error: no adiclab source tree at {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.report_lines():
        print(line)
    print(json.dumps(result.final_line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
