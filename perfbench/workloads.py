"""The benchmark's three workloads: seeded inputs, operation lists, checks.

A workload is built from a seed. Building draws every input (CLI flags,
config files, rationals) with `random.Random`, so one seed always gives
the same inputs, and writes input files into the run's work directory.
The program then receives only those generated inputs.

Each workload lists `CliOp`s, one `adiclab` invocation each, and
`ValueOp`s, library calls made in-process. Every operation carries a
check that runs after the timed pass; reference results are computed once
per run, on first use, by `reference`.

Besides the operations that define a workload, each one carries a few
light companion operations, so that every end-to-end metric has a value
on every workload; they are sized to stay a small share of the pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("streams", "exact", "battery")

# Input sizes. "full" is the benchmark; "tiny" keeps every operation but
# shrinks it, for the self-test.
SIZES = {
    "full": {
        "length": 10**6,
        "short": 10**3,
        "companion_length": 2 * 10**5,
        "value_prefix": 5 * 10**4,
        "exact_strata": ((500_000, 550_000), (720_000, 770_000), (950_000, 1_000_000)),
        "exact_prefix": 10**5,
        "roundtrip": ((10**4, 10), (25_000, 4), (50_000, 10), (10**5, 4)),
        "roundtrip_window": 0.97,
        "tiny_rationals": 3000,
        "sweep": "0:3:1/1000",
        "theta_den": 1000,
        "grid5": "1/200",
        "grid5_gap": 1e-2,
        "verify_modules": None,
    },
    "tiny": {
        "length": 3000,
        "short": 100,
        "companion_length": 2000,
        "value_prefix": 500,
        "exact_strata": ((5000, 5500), (7200, 7700), (9500, 10000)),
        "exact_prefix": 1000,
        "roundtrip": ((100, 10), (250, 4), (500, 10), (1000, 4)),
        "roundtrip_window": 0.7,
        "tiny_rationals": 200,
        "sweep": "0:3:1/10",
        "theta_den": 10,
        "grid5": "1/20",
        "grid5_gap": 1e-1,
        "verify_modules": ("stats",),
    },
}

COMPANION_MODULES = ("stats", "construct")
# Largest grid-oracle m minus closed-form m in base 4 at the default step
# 1/1000; the base-5 allowance depends on its step and lives in SIZES.
ORACLE_GAP_BASE4 = 1e-4


@dataclass
class CliOp:
    kind: str  # construct | analyze | dimension | verify
    argv: list[str]
    check: Callable[[], str | None]
    digits: int = 0  # digits emitted (construct) or tallied (analyze)
    reads: tuple[Path, ...] = ()
    writes: tuple[Path, ...] = ()


@dataclass
class ValueOp:
    """A library operation: `prepare` builds inputs outside the timed
    region, `run` makes the adiclab calls, `check` judges the result."""

    label: str
    prepare: Callable[[object], tuple]
    run: Callable[..., object]
    check: Callable[[object], str | None]


@dataclass
class Tally:
    """Digits some analyze op tallied, for the materialized tally probe."""

    load: Callable[[], np.ndarray]
    base: int
    checkpoints: list[int]


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict
    ops: list[CliOp] = field(default_factory=list)
    values: list[ValueOp] = field(default_factory=list)
    tallies: list[Tally] = field(default_factory=list)


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def draw_tau(rng: random.Random, s: int, zero: bool) -> list[Fraction]:
    """A frequency vector with common denominator D in [s, 12], at least two
    nonzero entries, and one zero entry when `zero` is set."""
    nonzero = list(range(s))
    if zero:
        nonzero.remove(rng.randrange(s))
    den = rng.randint(max(s, 5), 12)
    weights = [0] * s
    for i in nonzero:
        weights[i] = 1
    for _ in range(den - len(nonzero)):
        weights[rng.choice(nonzero)] += 1
    return [Fraction(w, den) for w in weights]


def _file_tally(path: Path, s: int) -> Callable[[], np.ndarray]:
    return lambda: ref.digit_values(ref.read_digit_artifact(path), s)


class _Builder:
    """Shared plumbing: file names in the work directory and op helpers."""

    def __init__(self, name: str, seed: int, work: Path, scale: str):
        self.rng = random.Random(f"{name}:{seed}")
        self.size = SIZES[scale]
        self.work = work
        self.wl = Workload(name=name, seed=seed, inputs={"scale": scale})

    def path(self, name: str) -> Path:
        return self.work / name

    def construct(self, out: str, flags: list[str], length: int, check, reads: tuple[Path, ...] = ()) -> Path:
        path = self.path(out)
        sidecar = path.with_name(path.name + ".json")
        argv = ["construct", *flags, "--length", str(length), "--out", str(path)]
        self.wl.ops.append(CliOp("construct", argv, lambda: check(path), length, reads, (path, sidecar)))
        return path

    def analyze_file(self, source: Path, s: int, length: int, out: str) -> None:
        report = self.path(out)
        checkpoints = ref.file_checkpoints(length)
        argv = ["analyze", "--in", str(source), "--base", str(s), "--format", "json", "--out", str(report)]
        load = _file_tally(source, s)
        self.wl.ops.append(
            CliOp(
                "analyze", argv,
                lambda: ref.check_analyze(report, load(), checkpoints, s),
                length, (source,), (report,),
            )
        )
        self.wl.tallies.append(Tally(load, s, checkpoints))

    def dimension(self, flags: list[str], out: str, check) -> None:
        path = self.path(out)
        self.wl.ops.append(CliOp("dimension", ["dimension", *flags, "--out", str(path)], lambda: check(path), writes=(path,)))

    def verify(self, modules, out: str) -> None:
        path = self.path(out)
        flags = [f for m in modules for f in ("--module", m)] if modules else []
        self.wl.ops.append(
            CliOp("verify", ["verify", *flags, "--out", str(path)], lambda: ref.check_verify(path, modules), writes=(path,))
        )


def _prefix_value_op(label: str, source: Path, s: int, n: int) -> ValueOp:
    """prefix_value of the first n digits of a construct artifact."""

    def prepare(lib):
        text = ref.read_digit_artifact(source)[:n]
        return lib.DigitPrefix(lib.Base(s), tuple(b - 48 for b in text)), text

    def check(result):
        value, text = result
        want = Fraction(ref.value_of_digits(text, s), s**n)
        return None if value == want else f"{label}: prefix_value differs from the numeral's value"

    return ValueOp(label, prepare, lambda lib, p, text: (lib.prefix_value(p), text), check)


def _period_value_op(label: str, source: Path, s: int, period: int) -> ValueOp:
    """stream_value of a greedy stream, which is purely periodic with the
    lcm of tau's denominators as period."""

    def prepare(lib):
        text = ref.read_digit_artifact(source)[:period]
        digits = tuple(b - 48 for b in text)
        return lib.digits.periodic_stream((), digits, lib.Base(s)), text

    def check(result):
        value, text = result
        want = Fraction(ref.value_of_digits(text, s), s**period - 1)
        return None if value == want else f"{label}: stream_value differs from numeral/(s^L - 1)"

    return ValueOp(label, prepare, lambda lib, st, text: (lib.stream_value(st), text), check)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def build_streams(seed: int, work: Path, scale: str = "full") -> Workload:
    """Four 10^6-digit constructs, each read back by analyze. The per-digit
    path (generation, text write, text read, tally) does nearly all the work."""
    b = _Builder("streams", seed, work, scale)
    rng, n = b.rng, b.size["length"]
    tau4 = draw_tau(rng, 4, zero=rng.random() < 0.5)
    base_b = rng.randint(5, 10)
    tau_b = draw_tau(rng, base_b, zero=rng.random() < 0.5)
    # Interior theta, where the base-4 grid oracle at step 1/1000 stays
    # within ORACLE_GAP_BASE4 of the closed form (it reaches 4e-4 at 2.98).
    theta = Fraction(rng.randint(25, 275), 100)
    degree = rng.choice((1, 2))
    if rng.random() < 0.5:
        columns = {"kind": "constant", "tau": [_fr(t) for t in draw_tau(rng, 4, zero=rng.random() < 0.5)]}
    else:
        columns = {
            "kind": "converging",
            "limit": [_fr(t) for t in draw_tau(rng, 4, zero=False)],
            "mix_digit": rng.randrange(4),
            "rate": rng.choice(("harmonic", "quadratic")),
        }
    block = {"schedule": {"family": "polynomial", "degree": degree}, "columns": columns}
    config = b.path("block.json")
    config.write_text(json.dumps(block))
    b.wl.inputs.update(
        tau4=[_fr(t) for t in tau4], base_b=base_b, tau_b=[_fr(t) for t in tau_b],
        theta=_fr(theta), block=block, length=n,
    )

    def tau_flag(tau):
        return ",".join(_fr(t) for t in tau)

    greedy4_ref = cache(lambda: ref.greedy_reference(tau4, n))
    greedy_b_ref = cache(lambda: ref.greedy_reference(tau_b, n))
    block_ref = cache(lambda: ref.block_reference(block, n))
    g4 = b.construct("greedy4.txt", ["--tau", tau_flag(tau4)], n, lambda p: ref.check_artifact(p, greedy4_ref()))
    gb = b.construct(
        "greedyb.txt", ["--tau", tau_flag(tau_b), "--base", str(base_b)], n,
        lambda p: ref.check_artifact(p, greedy_b_ref()),
    )
    mean = b.construct("mean.txt", ["--mean", _fr(theta)], n, lambda p: ref.check_mean_target(p, theta, 4, n))
    blk = b.construct(
        "block.txt", ["--config", str(config)], n, lambda p: ref.check_artifact(p, block_ref()), reads=(config,)
    )
    for path, s in ((g4, 4), (gb, base_b), (mean, 4), (blk, 4)):
        b.analyze_file(path, s, n, path.stem + ".analyze.json")

    b.dimension(["--tau", tau_flag(tau4)], "dim_tau4.json", lambda p: ref.check_dimension_tau(p, tau4, 4))
    b.dimension(
        ["--tau", tau_flag(tau_b), "--base", str(base_b)], "dim_taub.json",
        lambda p: ref.check_dimension_tau(p, tau_b, base_b),
    )
    b.dimension(["--theta", _fr(theta), "--oracle"], "dim_theta.json", lambda p: ref.check_oracle(p, 4, ORACLE_GAP_BASE4))
    b.verify(COMPANION_MODULES, "verify.json")

    k = b.size["value_prefix"]
    b.wl.values = [
        _prefix_value_op("prefix_value(greedy4)", g4, 4, k),
        _prefix_value_op("prefix_value(mean)", mean, 4, k),
        _prefix_value_op("prefix_value(block)", blk, 4, k),
        _period_value_op("stream_value(greedy4)", g4, 4, math.lcm(*(t.denominator for t in tau4))),
        _period_value_op("stream_value(greedyb)", gb, base_b, math.lcm(*(t.denominator for t in tau_b))),
    ]
    return b.wl


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _roundtrip_rational(rng: random.Random, period: int, s: int, window: float, with_factor: bool) -> Fraction:
    """p/q with a base-s period in [window * period, period] (q prime), and,
    with_factor, q multiplied by a power of a prime factor of s so the
    preperiod is nonzero."""
    # A square base cannot be a primitive root, so its period is at most (q-1)/2.
    k = 2 if math.isqrt(s) ** 2 == s else 1
    low = int(window * period)
    q = ref.prime_with_period(rng, s, low * k, period * k + 1, lambda q, order: low <= order <= period)
    if with_factor:
        q *= min(f for f in range(2, s + 1) if s % f == 0) ** rng.randint(1, 3)
    return Fraction(ref.coprime_numerator(rng, q), q)


def build_exact(seed: int, work: Path, scale: str = "full") -> Workload:
    """Rationals with q in [5e5, 1e6] through construct and analyze, plus a
    library round trip. Long division, period search and big-int values
    (the digits layer) do nearly all the work."""
    b = _Builder("exact", seed, work, scale)
    rng, size, s = b.rng, b.size, 4
    n, short = size["length"], size["short"]
    rationals = []
    for lo, hi in size["exact_strata"]:
        # Periods near q/2, the longest base 4 allows, so the eager period
        # search does its full work.
        q = ref.prime_with_period(rng, s, lo, hi, lambda q, order: order == (q - 1) // 2)
        rationals.append((ref.coprime_numerator(rng, q), q))
    lengths = [n, n, short]  # the last one stops far below its period
    counts, period = ref.period_counts(*rationals[-1], s)
    theta = Fraction(sum(i * c for i, c in enumerate(counts)), period)
    roundtrip = [
        _roundtrip_rational(rng, p, base, size["roundtrip_window"], with_factor=j in (1, 2))
        for j, (p, base) in enumerate(size["roundtrip"])
    ]
    b.wl.inputs.update(
        rationals=[f"{p}/{q}" for p, q in rationals], lengths=lengths, theta=_fr(theta),
        roundtrip=[[_fr(x), base] for x, (_, base) in zip(roundtrip, size["roundtrip"])],
        prefix_digits=size["exact_prefix"],
    )

    refs = [cache(lambda p=p, q=q: ref.rational_reference(p, q, s, n)) for p, q in rationals]
    for j, ((p, q), length) in enumerate(zip(rationals, lengths)):
        b.construct(
            f"rational{j}.txt", ["--rational", f"{p}/{q}"], length,
            lambda path, r=refs[j], length=length: ref.check_artifact(path, r()[:length]),
        )
    checkpoints = [10**k for k in range(1, 7) if 10**k <= n] or [n]
    for j, (p, q) in enumerate(rationals):
        report = b.path(f"rational{j}.analyze.json")
        argv = ["analyze", "--rational", f"{p}/{q}", "--checkpoints", ",".join(map(str, checkpoints)),
                "--format", "json", "--out", str(report)]
        load = cache(lambda r=refs[j]: ref.digit_values(r(), s))
        b.wl.ops.append(
            CliOp("analyze", argv,
                  lambda report=report, load=load: ref.check_analyze(report, load(), checkpoints, s),
                  checkpoints[-1], (), (report,))
        )
        b.wl.tallies.append(Tally(load, s, checkpoints))

    period_tau = [Fraction(c, period) for c in counts]
    b.dimension(
        ["--tau", ",".join(_fr(t) for t in period_tau)], "dim_tau.json",
        lambda p: ref.check_dimension_tau(p, period_tau, s),
    )
    b.dimension(["--theta", _fr(theta), "--oracle"], "dim_theta.json", lambda p: ref.check_oracle(p, s, ORACLE_GAP_BASE4))
    m = size["companion_length"] // 20
    b.construct("mean.txt", ["--mean", _fr(theta)], m, lambda p: ref.check_mean_target(p, theta, s, m))
    b.verify(COMPANION_MODULES, "verify.json")

    x = Fraction(*rationals[-1])
    k = size["exact_prefix"]

    def prefix_check(value):
        return None if 0 <= x - value <= Fraction(1, s**k) else f"prefix_value({x}, {k}) is not within s^-n below x"

    b.wl.values = [ValueOp(f"prefix_value({x})", lambda lib: (), lambda lib: lib.prefix_value(lib.expand(x).prefix(k)), prefix_check)]
    for y, (_, base) in zip(roundtrip, size["roundtrip"]):
        b.wl.values.append(
            ValueOp(
                f"stream_value(expand({y}), base {base})",
                lambda lib: (),
                lambda lib, y=y, base=base: lib.stream_value(lib.expand(y, lib.Base(base))),
                lambda v, y=y: None if v == y else f"stream_value(expand({y})) = {v}",
            )
        )
    return b.wl


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def build_battery(seed: int, work: Path, scale: str = "full") -> Workload:
    """verify, a theta sweep and two grid oracles: the entropy solver, the
    grid oracle and the verify runner (with many tiny expand calls) work;
    text I/O and long streams nearly rest."""
    b = _Builder("battery", seed, work, scale)
    rng, size = b.rng, b.size
    den = size["theta_den"]
    theta4 = Fraction(rng.randint(den // 4, 11 * den // 4), den)
    theta5 = Fraction(rng.randint(25, 375), 100)
    sweep_count = 3 * den + 1
    tiny = []
    for _ in range(size["tiny_rationals"]):
        q = rng.randint(2, 500)
        tiny.append(Fraction(rng.randint(0, q), q))
    b.wl.inputs.update(theta4=_fr(theta4), theta5=_fr(theta5), sweep=size["sweep"], tiny_rationals=len(tiny))

    b.verify(size["verify_modules"], "verify.json")
    oracle4 = b.path("oracle4.json")  # checks run after the whole pass
    b.dimension(["--sweep", size["sweep"]], "sweep.csv", lambda p: ref.check_sweep(p, 4, sweep_count, theta4, oracle4))
    b.dimension(["--theta", _fr(theta4), "--oracle"], "oracle4.json", lambda p: ref.check_oracle(p, 4, ORACLE_GAP_BASE4))
    b.dimension(
        ["--theta", _fr(theta5), "--base", "5", "--oracle", "--grid-step", size["grid5"]], "oracle5.json",
        lambda p: ref.check_oracle(p, 5, size["grid5_gap"]),
    )
    n = size["companion_length"]
    mean = b.construct("mean.txt", ["--mean", _fr(theta4)], n, lambda p: ref.check_mean_target(p, theta4, 4, n))
    b.analyze_file(mean, 4, n, "mean.analyze.json")

    depth = 64
    batch = 100

    def run_batch(lib, xs):
        out = []
        for x in xs:
            stream = lib.expand(x)
            out.append((x, lib.stream_value(stream), lib.prefix_value(stream.prefix(depth))))
        return out

    def check_batch(results):
        for x, value, head in results:
            if value != x:
                return f"stream_value(expand({x})) = {value}"
            if not 0 <= x - head <= Fraction(1, 4**depth):
                return f"prefix_value of 64 digits of {x} is not within 4^-64 below it"
        return None

    for j in range(0, len(tiny), batch):
        xs = tiny[j : j + batch]
        b.wl.values.append(ValueOp(f"roundtrip[{j}:{j + len(xs)}]", lambda lib, xs=xs: (xs,), run_batch, check_batch))
    return b.wl


BUILDERS = {"streams": build_streams, "exact": build_exact, "battery": build_battery}
