"""Command-line driver: construct digit streams, analyze prefixes, compute
dimension quantities, and run the invariant battery.

Everything is deterministic (there is no randomness anywhere in the tool),
so identical configs produce byte-identical outputs. Text and CSV artifacts
begin with a '#' provenance line carrying a hash of the effective config;
JSON artifacts carry the same provenance as their first key, since JSON has
no comments. Exit status: 0 on success, 1 if a verification check failed,
2 for usage or config errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__

# Only `digits` is imported here. Each command imports the other library
# modules it runs, so a command loads only those, and numpy only where an
# array kernel runs.
from .digits import Base, DigitStream, digit_text, expand

MAX_CONSTRUCT_LENGTH = 10**8
# A sweep solves all its points in one pure-Python loop
# (`entropy.neg_entropy_minima`, each point from the one before), and a
# point costs a few Gibbs means, each a pass over the s digits. So the cap
# bounds the digit work points * max(s, 4): 10**5 points up to base 4,
# 1333 in base 300. A single entropy point (`dimension --theta`, `--mean`)
# gets the same budget, so its base is at most this, and so do `analyze`'s
# checkpoints * max(s, 4). ROADMAP.md's re-anchor table records what the
# capped runs take.
_MAX_SWEEP_POINT_DIGITS = 4 * 10**5
DEFAULT_PRECISION = 12
PRECISION_ENV = "ADICLAB_PRECISION"


class UsageError(Exception):
    """Flag/config validation problem; maps to exit status 2."""


def _point_budget(base: Base) -> int:
    """Points (sweep points, a single entropy point, `analyze` checkpoints)
    that the budget admits in this base; 0 once one point is too many."""
    return _MAX_SWEEP_POINT_DIGITS // max(base.s, 4)


def _check_point_base(base: Base, flag: str) -> None:
    """Refuse a base whose single entropy point is past the sweep budget."""
    if _point_budget(base) < 1:
        raise UsageError(f"{flag} allows bases up to {_MAX_SWEEP_POINT_DIGITS}, got {base.s}")


class Option(NamedTuple):
    """A field of `ExperimentConfig`: its name, its flag (None: config file
    only), its help text, its JSON type ((list, t) is a list of t), its
    config key and its default (`command`, the first, has none)."""

    name: str
    flag: str | None
    help: str | None
    kind: object
    key: str
    default: object = None


OPTIONS = (
    Option("command", None, None, str, "command"),
    Option("base", "--base", "radix (default 4)", int, "base", 4),
    Option("out", "--out", "output path (default stdout)", str, "out"),
    Option("fmt", "--format", "csv, json or text (default: the mode's first)", str, "format"),
    Option("tau", "--tau", "frequency vector, e.g. 1/4,1/4,1/4,1/4: greedy stream, or its dimension", str, "tau"),
    Option("mean", "--mean", "target asymptotic digit mean, e.g. 3/2", str, "mean"),
    Option("rational", "--rational", "expand this rational, e.g. 1/3", str, "rational"),
    Option("length", "--length", f"digits to emit (<= {MAX_CONSTRUCT_LENGTH})", int, "length"),
    Option("schedule", None, None, dict, "schedule"),
    Option("columns", None, None, dict, "columns"),
    Option("source", "--in", "digit text file to analyze", str, "in"),
    Option("checkpoints", "--checkpoints", "comma list of prefix lengths", (list, int), "checkpoints"),
    Option("normality_tol", "--normality-tol", "also report the uniformity verdict", str, "normality_tol"),
    Option("theta", "--theta", "digit mean in [0, s-1]", str, "theta"),
    Option("sweep", "--sweep", "theta sweep start:stop:step, emits CSV", str, "sweep"),
    Option("oracle", "--oracle", "also run the grid oracle", bool, "oracle", False),
    Option("grid_step", "--grid-step", "grid oracle step (default 1/1000)", str, "grid_step"),
    Option(
        "precision", "--precision", f"significant digits (default {DEFAULT_PRECISION}, or ${PRECISION_ENV})", int,
        "precision", DEFAULT_PRECISION,
    ),
    Option(
        "modules", "--module", "restrict to a module (repeatable); one of digits, stats, construct, entropy",
        (list, str), "modules",
    ),
)
_BY_KEY = {option.key: option for option in OPTIONS}


class ExperimentConfig(
    namedtuple("ExperimentConfig", [o.name for o in OPTIONS], defaults=[o.default for o in OPTIONS[1:]])
):
    """Normalized parameters of one command invocation, a field per row of
    `OPTIONS`.

    Built by merging an optional JSON config file with command-line flags
    (flags win, with a warning on conflicts). Round-trips through
    `to_json_dict`/`from_json_dict`; the config hash in output headers is
    computed from the canonical JSON form. `COMMANDS` says which fields
    each command and mode reads.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out = {}
        for option in OPTIONS:
            value = getattr(self, option.name)
            if value is None or value == option.default:
                continue
            out[option.key] = list(value) if isinstance(value, tuple) else value
        out["command"] = self.command
        return out

    @classmethod
    def check_json(cls, doc: dict) -> None:
        """Refuse a key that names no field, or a value of the wrong JSON
        type for its field (null stands for an unset field)."""
        for key, value in doc.items():
            if key not in _BY_KEY:
                raise UsageError(f"unknown config key {key!r}")
            if value is None:
                continue
            kind = _BY_KEY[key].kind
            if isinstance(kind, tuple):
                ok = isinstance(value, (list, tuple)) and all(_is_json(v, kind[1]) for v in value)
                wanted = f"a list of {_JSON_NAMES[kind[1]]}s"
            else:
                ok = _is_json(value, kind)
                wanted = f"a JSON {_JSON_NAMES[kind]}"
            if not ok:
                raise UsageError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        cls.check_json(doc)
        return cls(**{_BY_KEY[key].name: tuple(v) if isinstance(v, list) else v for key, v in doc.items()})

    def config_hash(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_JSON_NAMES = {int: "integer", str: "string", bool: "boolean", dict: "object"}


def _is_json(value, kind: type) -> bool:
    """True when `value` is a JSON value of type `kind` as `json` loads it.
    bool is a subclass of int, but true is not a JSON integer."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _provenance_line(config_hash: str) -> str:
    return f"# adiclab {__version__} config={config_hash}"


def _provenance_dict(config_hash: str) -> dict:
    return {"tool": "adiclab", "version": __version__, "config_hash": config_hash}


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: not a rational number: {text!r} ({exc})")


def _write_replacing(*outputs: tuple[Path, Iterable[str]]) -> None:
    """Write each (path, chunks) pair to a temporary file beside its path,
    then rename every temporary file onto its path. If producing or writing
    any chunk fails (opening a directory as a file does), the temporary
    files are removed and nothing is renamed, so whatever was at each path
    before is left as it was.

    A symlink is followed, so the file it names is replaced. A device or a
    pipe (such as /dev/null) cannot be replaced and is written in place.
    An OSError on a temporary file is raised naming the path it stands for,
    as it was given."""
    staged: list[tuple[Path, Path, Path]] = []  # (temporary file, target, path as given)
    try:
        for given, chunks in outputs:
            if given.exists() and not given.is_file():
                with open(given, "w") as handle:
                    handle.writelines(chunks)
                continue
            path = Path(os.path.realpath(given))
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((tmp, path, given))
            with open(tmp, "w") as handle:
                handle.writelines(chunks)
        for tmp, path, _ in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _, _ in staged:
            tmp.unlink(missing_ok=True)
        names = {str(tmp): str(given) for tmp, _, given in staged}
        if isinstance(exc, OSError) and exc.filename in names:
            raise OSError(exc.errno, exc.strerror, names[exc.filename]) from None
        raise


def _write_artifact(cfg: ExperimentConfig, text: str, header: bool = True) -> None:
    body = (_provenance_line(cfg.config_hash()) + "\n" + text) if header else text
    if cfg.out is None:
        sys.stdout.write(body)
    else:
        _write_replacing((Path(cfg.out), [body]))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _stream_from_config(cfg: ExperimentConfig) -> DigitStream:
    base = Base(cfg.base)
    if cfg.rational is not None:
        return expand(_parse_fraction(cfg.rational, "--rational"), base)
    from .construct import (
        ProbabilityVector,
        block_stream,
        columns_from_config,
        greedy_stream,
        mean_target_stream,
        schedule_from_config,
    )

    if cfg.tau is not None:
        tau = ProbabilityVector.parse(cfg.tau)
        if tau.s != base.s:
            raise UsageError(f"--tau has {tau.s} entries but base is {base.s}")
        return greedy_stream(tau, base)
    if cfg.mean is not None:
        _check_point_base(base, "--mean")
        return mean_target_stream(_parse_fraction(cfg.mean, "--mean"), base)
    return block_stream(columns_from_config(cfg.columns), schedule_from_config(cfg.schedule), base)


def _digit_chunks(stream: DigitStream, length: int) -> Iterator[str]:
    """The digit text of the stream's first `length` digits, refused if the
    stream ends first (`DigitStream.chunks` then holds fewer), so that no
    source can leave a short artifact."""
    produced = 0
    for chunk in stream.chunks(length):
        produced += len(chunk)
        yield digit_text(chunk)
    if produced < length:
        raise UsageError(f"digit source ended after {produced} digits, wanted {length}")


def cmd_construct(cfg: ExperimentConfig, fmt: str) -> int:
    if cfg.length is None:
        raise UsageError("construct needs --length")
    if not 1 <= cfg.length <= MAX_CONSTRUCT_LENGTH:
        raise UsageError(f"--length must lie in [1, {MAX_CONSTRUCT_LENGTH}], got {cfg.length}")
    if cfg.base > 10:
        raise UsageError("digit text output is defined for bases <= 10 only")
    text = _digit_chunks(_stream_from_config(cfg), cfg.length)
    h = cfg.config_hash()
    if cfg.out is None:
        sys.stdout.writelines(text)
        sys.stdout.write("\n")
        return 0
    path = Path(cfg.out)
    sidecar = {"provenance": _provenance_dict(h), "config": cfg.to_json_dict()}
    # The small sidecar is staged first, so an unwritable one fails before
    # any digit is made.
    _write_replacing(
        (path.with_name(path.name + ".json"), [json.dumps(sidecar, indent=2) + "\n"]),
        (path, itertools.chain([_provenance_line(h) + "\n"], text, ["\n"])),
    )
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _check_checkpoint_count(count: int, base: Base) -> None:
    """Refuse more checkpoints than the budget admits in this base: each
    writes a row of s + 2 cells, so the output is capped like a sweep's
    points."""
    allowed = _point_budget(base)
    if count > allowed:
        raise UsageError(f"--checkpoints: got {count}; at most {allowed} are allowed in base {base.s}")


def cmd_analyze(cfg: ExperimentConfig, fmt: str) -> int:
    from ._digitfile import digit_file
    from .stats import DEFAULT_CHECKPOINTS, _trace, convergence_trace, weak_normality_verdict

    base = Base(cfg.base)
    checkpoints = cfg.checkpoints
    if cfg.source is None:
        checkpoints = checkpoints or DEFAULT_CHECKPOINTS
        if checkpoints[-1] > MAX_CONSTRUCT_LENGTH:
            raise UsageError(
                f"--checkpoints: an inline source is read to at most {MAX_CONSTRUCT_LENGTH} digits, "
                f"got {checkpoints[-1]}"
            )
        stream = _stream_from_config(cfg)
        _check_checkpoint_count(len(checkpoints), base)
        trace = convergence_trace(stream, checkpoints)
    else:
        stream = digit_file(cfg.source, base)
        allowed = _point_budget(base)
        if allowed < 1 or checkpoints and len(checkpoints) > allowed:
            # Refused here. The file is read first, so that its own errors
            # come first, and nothing is tallied.
            length = sum(map(len, stream.make_chunks()))
            checkpoints = checkpoints or (*(p for p in DEFAULT_CHECKPOINTS if p < length), length)
            _check_checkpoint_count(len(checkpoints), base)
        # One pass that reads the whole file, past the last checkpoint;
        # without a list, the end of the file is the last checkpoint.
        trace = _trace(base, stream.make_chunks(), checkpoints)
        # A default list is known only now: a point per power of ten below
        # the file's length, and its end. Above base 57142 it may be over.
        _check_checkpoint_count(len(trace.checkpoints), base)

    normality = None
    if cfg.normality_tol is not None:
        tol = _parse_fraction(cfg.normality_tol, "--normality-tol")
        final = trace.reports[-1]
        try:
            verdict = weak_normality_verdict(final, tol)
        except ValueError as exc:
            raise UsageError(f"--normality-tol: {exc}")
        normality = {"n": final.n, **verdict.to_json_dict(cfg.precision)}

    if fmt == "json":
        doc = {"provenance": _provenance_dict(cfg.config_hash())}
        doc.update(trace.to_json_dict(cfg.precision))
        if normality is not None:
            doc["normality"] = normality
        _write_artifact(cfg, json.dumps(doc, indent=2) + "\n", header=False)
    else:
        text = trace.to_csv(cfg.precision)
        if normality is not None:
            verdict_word = "consistent" if normality["consistent"] else "inconsistent"
            text += (
                f"# normality: {verdict_word} max_deviation={normality['max_deviation']}"
                f" tol={normality['tol']}\n"
            )
        _write_artifact(cfg, text)
    return 0


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def _parse_sweep(text: str, base: Base) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--sweep wants start:stop:step, got {text!r}")
    start, stop, step = (_parse_fraction(p, "--sweep") for p in parts)
    if step <= 0 or stop < start:
        raise UsageError(f"--sweep needs step > 0 and stop >= start, got {text!r}")
    count = (stop - start) // step + 1
    allowed = _point_budget(base)
    if count > allowed:
        raise UsageError(f"--sweep {text} has {count} points; at most {allowed} are allowed in base {base.s}")
    # start + k*step over the common denominator d, in ints: int true
    # division rounds correctly, as float(Fraction) does.
    a, b = start.numerator * step.denominator, step.numerator * start.denominator
    d = start.denominator * step.denominator
    return [(a + k * b) / d for k in range(count)]


def cmd_dimension(cfg: ExperimentConfig, fmt: str) -> int:
    from .entropy import be_dimension, neg_entropy_minima, neg_entropy_minimum, neg_entropy_minimum_grid, sweep_csv

    base = Base(cfg.base)
    if cfg.sweep is not None:
        thetas = _parse_sweep(cfg.sweep, base)
        try:
            results = neg_entropy_minima(thetas, base)
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"--sweep: {exc}")
        _write_artifact(cfg, sweep_csv(results, cfg.precision))
        return 0

    doc: dict = {"provenance": _provenance_dict(cfg.config_hash())}
    if cfg.tau is not None:
        from .construct import ProbabilityVector

        try:
            tau = ProbabilityVector.parse(cfg.tau)
            value = be_dimension(tau.entries, base)
        except ValueError as exc:
            raise UsageError(f"--tau: {exc}")
        doc.update({"tau": tau.as_strings(), "dimension": value})
    else:
        _check_point_base(base, "--theta")
        theta = _parse_fraction(cfg.theta, "--theta")
        try:
            result = neg_entropy_minimum(float(theta), base)
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"--theta: {exc}")
        doc.update(result.to_json_dict())
        if cfg.oracle:
            step = float(_parse_fraction(cfg.grid_step, "--grid-step")) if cfg.grid_step else 1e-3
            try:
                grid = neg_entropy_minimum_grid(float(theta), base, step)
            except (ValueError, ArithmeticError) as exc:
                raise UsageError(f"--oracle: {exc}")
            doc["oracle"] = {
                "step": grid.step,
                "m": grid.m_value,
                "argmin": list(grid.argmin),
                "difference": result.m_value - grid.m_value,
            }
    _write_artifact(cfg, json.dumps(doc, indent=2) + "\n", header=False)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: ExperimentConfig, fmt: str) -> int:
    if cfg.base != 4:
        raise UsageError(f"the verify battery is base-4 only; --base {cfg.base} is not supported")
    from .verify import MODULES, report_dict, run_checks

    results = run_checks(cfg.modules)
    doc = {"provenance": _provenance_dict(cfg.config_hash())}
    doc["modules"] = list(cfg.modules) if cfg.modules else list(MODULES)
    doc.update(report_dict(results))
    _write_artifact(cfg, json.dumps(doc, indent=2) + "\n", header=False)
    return 0 if doc["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# what each command and mode reads, argument parsing and config merging
# ---------------------------------------------------------------------------


class Mode:
    """One way to run a command, named by `label` in refusals. Any key in
    `requires` picks the mode; `reads` holds every config key it reads (its
    `requires`, `extra`, base, out and format), and a set key outside it is
    refused; `formats` are the formats it writes, the first by default."""

    def __init__(self, label: str, requires: tuple[str, ...], extra: tuple[str, ...], formats: tuple[str, ...]):
        self.label, self.requires, self.formats = label, requires, formats
        self.reads = frozenset(("base", "out", "format", *requires, *extra))


class Command:
    """A command: its help, the function that runs it, its modes, the
    refusal when not exactly one mode is picked, and `needs`: a set key ->
    (the key it needs, the refusal when that key is unset)."""

    def __init__(self, help: str, run: Callable[[ExperimentConfig, str], int], modes: dict, pick: str, needs: dict):
        self.help, self.run, self.modes, self.pick, self.needs = help, run, modes, pick, needs


def _sources(extra: tuple[str, ...], formats: tuple[str, ...]) -> dict[str, Mode]:
    """The inline digit sources of `construct` and `analyze`."""
    return {
        "tau": Mode("--tau", ("tau",), extra, formats),
        "mean": Mode("--mean", ("mean",), extra, formats),
        "rational": Mode("--rational", ("rational",), extra, formats),
        "blocks": Mode("with a block config", ("schedule", "columns"), extra, formats),
    }


_PICK_SOURCE = "pick exactly one digit source: --tau (greedy), --mean, --rational, or a schedule+columns config"
_BLOCKS = "block construction needs both 'schedule' and 'columns' in the config"
_BLOCK_NEEDS = {"schedule": ("columns", _BLOCKS), "columns": ("schedule", _BLOCKS)}
_TRACE = ("checkpoints", "normality_tol", "precision")

COMMANDS = {
    "construct": Command(
        "write a digit prefix from a named constructor", cmd_construct,
        _sources(("length",), ("text",)), _PICK_SOURCE, _BLOCK_NEEDS,
    ),
    "analyze": Command(
        "frequency/mean trace of a digit source", cmd_analyze,
        {**_sources(_TRACE, ("csv", "json")), "in": Mode("--in", ("in",), _TRACE, ("csv", "json"))},
        _PICK_SOURCE, _BLOCK_NEEDS,
    ),
    "dimension": Command(
        "dimension of a frequency vector or a mean level set", cmd_dimension,
        {
            "tau": Mode("--tau", ("tau",), (), ("json",)),
            "theta": Mode("--theta", ("theta",), ("oracle", "grid_step"), ("json",)),
            "sweep": Mode("--sweep", ("sweep",), ("precision",), ("csv",)),
        },
        "pick exactly one of --tau, --theta, --sweep",
        {
            "precision": ("sweep", "--precision needs --sweep (dimension --tau and --theta write floats in full)"),
            "oracle": ("theta", "--oracle needs --theta (the grid oracle scans one mean slice)"),
            "grid_step": ("oracle", "--grid-step needs --oracle"),
        },
    ),
    "verify": Command(
        "run the cross-module invariant battery", cmd_verify, {"": Mode("", (), ("modules",), ("json",))}, "", {}
    ),
}

# The argparse options of a JSON type other than a string.
_ARGUMENT_KINDS = {int: {"type": int}, bool: {"action": "store_true"}, (list, str): {"action": "append"}}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command and all their arguments."""
    return _parser(COMMANDS)


def _parser(names: Iterable[str]) -> argparse.ArgumentParser:
    """The parser with every command registered, so its usage, help and
    refusals are those of `build_parser`, and the arguments of the
    commands in `names` only."""
    parser = argparse.ArgumentParser(
        prog="adiclab",
        description="Digit statistics, constructive digit streams, and "
        "entropy-based dimension bounds for base-s expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name not in names:
            continue
        reads = frozenset().union(*(mode.reads for mode in command.modes.values()))
        for option in OPTIONS:
            if option.flag and option.key in reads:
                kind = _ARGUMENT_KINDS.get(option.kind, {})
                p.add_argument(option.flag, dest=option.name, default=None, help=option.help, **kind)
        p.add_argument("--config", default=None, help="JSON config file; flags win on conflict")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _resolve_precision(flag_value: int | None) -> int:
    if flag_value is None:
        env = os.environ.get(PRECISION_ENV)
        if env is None:
            return DEFAULT_PRECISION
        try:
            flag_value = int(env)
        except ValueError:
            raise UsageError(f"{PRECISION_ENV} must be an integer, got {env!r}")
    if not 1 <= flag_value <= 17:
        raise UsageError(f"precision must lie in [1, 17], got {flag_value}")
    return flag_value


def _parse_checkpoints(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    try:
        points = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"checkpoints must be integers, got {value!r}")
    if not points or points[0] < 1 or any(b <= a for a, b in zip(points, points[1:])):
        raise UsageError(f"checkpoints must be >= 1 and strictly increasing, got {points}")
    return points


def _parse_modules(value) -> tuple[str, ...]:
    """The named modules, each once, in the order they first appear."""
    modules = tuple(dict.fromkeys(p.strip() for item in value for p in str(item).split(",") if p.strip()))
    if not modules:
        raise UsageError(f"modules must name at least one battery module, got {value!r}")
    return modules


# The list keys whose flag and config values are normalized to one tuple.
_NORMALIZERS = {"checkpoints": _parse_checkpoints, "modules": _parse_modules}


def _normalized(key: str, value):
    """`value` as the config holds it once normalized, or `value` itself when
    it does not normalize (the refusal comes later)."""
    if (normalize := _NORMALIZERS.get(key)) is None:
        return value
    try:
        return normalize(value)
    except UsageError:
        return value


def _pick(command: Command, given: list[str]) -> Mode:
    """The one mode of `command` that the given keys pick."""
    if len(command.modes) == 1:
        return next(iter(command.modes.values()))
    picks = [name for name, mode in command.modes.items() if set(given) & set(mode.requires)]
    if "in" in picks and len(picks) > 1:
        inline = [key for name in picks if name != "in" for key in command.modes[name].requires if key in given]
        raise UsageError(f"--in conflicts with inline digit source(s) {inline}")
    if len(picks) != 1:
        raise UsageError(f"{command.pick}; got {picks or 'none'}")
    return command.modes[picks[0]]


def effective_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str]:
    """Merge the config file (if any) with explicit flags (flags win), check
    the merged keys against the mode that they pick in `COMMANDS`, and
    return the config and the format to write."""
    merged = _load_config_file(args.config) if args.config else {}
    merged.pop("command", None)
    ExperimentConfig.check_json(merged)
    for option in OPTIONS:
        flag_value = getattr(args, option.name, None) if option.flag else None
        if flag_value is None:
            continue
        key = option.key
        if key in merged and _normalized(key, merged[key]) != _normalized(key, flag_value):
            warning = f"flag --{key.replace('_', '-')}={flag_value!r} overrides config file value {merged[key]!r}"
            print(f"warning: {warning}", file=sys.stderr)
        merged[key] = flag_value

    command = COMMANDS[args.command]
    # false, oracle's default, leaves a key unset as null does.
    given = [key for key, value in merged.items() if value is not None and value is not False]
    mode = _pick(command, given)
    for key, (needed, refusal) in command.needs.items():
        if key in given and needed not in given:
            raise UsageError(refusal)
    what = f"{args.command} {mode.label}".rstrip()
    for key in given:
        if key not in mode.reads:
            raise UsageError(f"{what} does not read {key!r}")
    fmt = mode.formats[0] if merged.get("format") is None else merged["format"]
    if fmt not in mode.formats:
        writes = " or ".join(f.upper() for f in mode.formats)
        raise UsageError(f"{what} writes {writes}; --format {fmt} is not applicable")

    for key, normalize in _NORMALIZERS.items():
        if key in given:
            merged[key] = normalize(merged[key])
    if "precision" in mode.reads:
        merged["precision"] = _resolve_precision(merged.get("precision"))
    cfg = ExperimentConfig.from_json_dict(
        {"command": args.command, **{key: value for key, value in merged.items() if value is not None}}
    )
    if cfg.base < 2:
        raise UsageError(f"--base must be >= 2, got {cfg.base}")
    return cfg, fmt


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option with a value, so the first
    # command name in argv is the one that argparse runs: only it needs
    # its arguments.
    args = _parser({next((arg for arg in argv if arg in COMMANDS), None)}).parse_args(argv)
    try:
        cfg, fmt = effective_config(args)
        return COMMANDS[cfg.command].run(cfg, fmt)
    except (UsageError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
