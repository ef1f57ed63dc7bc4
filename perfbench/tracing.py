"""Spans around calls into adiclab's public functions, for the traced run.

The traced run executes `adiclab.cli.main(argv)` in this process. While a
`Tracer` is installed, every adiclab module attribute that is bound to one
of the wrapped public functions is replaced by a wrapper that records a
span, so calls are seen whichever module makes them (the CLI, the verify
battery, mean_target_stream calling the entropy solver, theta_sweep calling
neg_entropy_minimum). `restore()` puts the original functions back.

Streams returned by the construct factories and by `expand` are re-wrapped
so that their digits are pulled from the original generator in timed
chunks. Each chunk is a child span of whatever consumes it (the CLI's
serializer, `convergence_trace`), which separates digit generation from
serialization and tallying in the self-time arithmetic.

Spans live in memory as (id, parent, name, start, end, n) tuples, where n
is a size attached to the span (digits, denominator, grid cells); they are
written out once, as tab-separated lines, when the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import operator
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

CHUNK_FIRST = 16
CHUNK_CAP = 8192

FACTORIES = {
    "greedy_stream": "construct.greedy_stream",
    "mean_target_stream": "construct.mean_target_stream",
    "block_stream": "construct.block_stream",
}


def _with_make_iter(stream, make):
    """A shallow copy of a (frozen) stream with another digit generator;
    the stream itself when its class keeps no instance dict."""
    state = getattr(stream, "__dict__", None)
    if state is None or "make_iter" not in state:
        return stream
    clone = object.__new__(type(stream))
    clone.__dict__.update(state)
    clone.__dict__["make_iter"] = make
    return clone


class ExpandCall:
    """Bookkeeping for one `expand` call: its denominator, when it was
    called, how many digits its (preperiod, period) holds, how many digits
    its consumers took, and when the first digit was handed out."""

    __slots__ = ("q", "start", "computed", "emitted", "first_at")

    def __init__(self, q: int, start: float, computed: int):
        self.q, self.start, self.computed = q, start, computed
        self.emitted = 0
        self.first_at: float | None = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: Counter = Counter()
        self.expands: list[ExpandCall] = []
        self._stack: list[int] = []
        self._next = 0
        self._in_factory = False
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self) -> tuple[int, int, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, token: tuple[int, int, float], name: str, n: int = 0) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, parent, start = token
        self.spans.append((sid, parent, name, start, end, n))

    def span(self, name: str, fn, *args, n: int = 0):
        token = self.open()
        try:
            return fn(*args)
        finally:
            self.close(token, name, n)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn, size=None):
        def wrapper(*args, **kwargs):
            token = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, name, size(args, kwargs) if size else 0)

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _chunked(self, name: str, stream, call: ExpandCall | None = None):
        """The same stream, with its digits pulled in timed chunks."""
        make = getattr(stream, "make_iter", None)
        if make is None:
            return stream

        def gen():
            it = make()
            size = CHUNK_FIRST
            while True:
                chunk: list = []
                token = self.open()
                try:
                    chunk = list(itertools.islice(it, size))
                finally:
                    self.close(token, name, len(chunk))
                if not chunk:
                    return
                if call is not None and call.first_at is None:
                    call.first_at = perf_counter()
                rest = iter(chunk)
                try:
                    yield from rest
                finally:
                    if call is not None:
                        call.emitted += len(chunk) - operator.length_hint(rest)
                size = min(2 * size, CHUNK_CAP)

        return _with_make_iter(stream, gen)

    def _factory(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._in_factory:  # mean_target_stream builds a greedy_stream
                return fn(*args, **kwargs)
            self._in_factory = True
            token = self.open()
            try:
                stream = fn(*args, **kwargs)
            finally:
                self.close(token, name)
                self._in_factory = False
            return self._chunked(name + ".gen", stream)

        return wrapper

    def _expand(self, fn):
        def wrapper(*args, **kwargs):
            x = args[0] if args else kwargs.get("x")
            q = getattr(x, "denominator", None)
            if not isinstance(q, int):
                try:
                    q = Fraction(x).denominator
                except (TypeError, ValueError, ZeroDivisionError):
                    q = 0
            token = self.open()
            try:
                stream = fn(*args, **kwargs)
            finally:
                self.close(token, "digits.expand", q)
            period = getattr(stream, "eventual_period", None)
            computed = len(period[0]) + len(period[1]) if period else 0
            call = ExpandCall(q, token[2], computed)
            self.expands.append(call)
            return self._chunked("digits.periodic_iter", stream, call)

        return wrapper

    def _run_checks(self, fn, all_modules):
        """verify's runner, called once per module so each module's checks
        get their own span; results are merged in the runner's name order."""

        def wrapper(modules=None):
            selected = list(dict.fromkeys(modules if modules is not None else all_modules))
            if set(selected) - set(all_modules):
                return fn(modules)  # the runner reports the unknown names
            results = []
            for module in selected:
                results += self.span(f"verify.run_checks.{module}", fn, (module,))
            return sorted(results, key=lambda r: r.name)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items() if name == "adiclab" or name.startswith("adiclab.")}

        def bound_arg(fn, name):
            sig = inspect.signature(fn)

            def get(args, kwargs):
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError:
                    return None
                bound.apply_defaults()
                return bound.arguments.get(name)

            return get

        def stream_len(args, kwargs):
            period = getattr(args[0] if args else None, "eventual_period", None)
            return len(period[0]) + len(period[1]) if period else 0

        def prefix_len(args, kwargs):
            try:
                return len(args[0])
            except (IndexError, TypeError):
                return 0

        def trace_length(fn):
            checkpoints = bound_arg(fn, "checkpoints")
            return lambda a, k: int(list(checkpoints(a, k) or [0])[-1])

        def grid_cells(fn):
            base, step = bound_arg(fn, "base"), bound_arg(fn, "step")

            def cells(a, k):
                try:
                    npts = int(round(1.0 / float(step(a, k)))) + 1
                    return npts ** max(base(a, k).s - 2, 0)
                except (AttributeError, TypeError, ValueError, ZeroDivisionError):
                    return 0

            return cells

        verify_modules = tuple(getattr(mods.get("adiclab.verify"), "MODULES", ()))
        makers = {
            **{("adiclab.construct", attr): (lambda fn, name=name: self._factory(name, fn)) for attr, name in FACTORIES.items()},
            ("adiclab.digits", "expand"): self._expand,
            ("adiclab.digits", "stream_value"): lambda fn: self._timed("digits.stream_value", fn, stream_len),
            ("adiclab.digits", "prefix_value"): lambda fn: self._timed("digits.prefix_value", fn, prefix_len),
            ("adiclab.stats", "convergence_trace"): lambda fn: self._timed("stats.convergence_trace", fn, trace_length(fn)),
            ("adiclab.entropy", "neg_entropy_minimum"): lambda fn: self._timed("entropy.neg_entropy_minimum", fn),
            ("adiclab.entropy", "neg_entropy_minimum_grid"): lambda fn: self._timed(
                "entropy.neg_entropy_minimum_grid", fn, grid_cells(fn)
            ),
            ("adiclab.entropy", "exp_family_vector"): lambda fn: self._counted("entropy.exp_family_vector.calls", fn),
        }
        if verify_modules:
            makers["adiclab.verify", "run_checks"] = lambda fn: self._run_checks(fn, verify_modules)
        wrappers = {}  # id(original) -> wrapper; the originals stay referenced in _restore
        for (module, attr), make in makers.items():
            fn = getattr(mods.get(module), attr, None)
            if callable(fn):
                wrappers[id(fn)] = make(fn)
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write_tsv(self, handle) -> None:
        """One line per span: run, id, parent (-1 at top level), name,
        start and end in perf_counter seconds, and n."""
        run = self.run_id
        handle.writelines(
            f"{run}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{n}\n"
            for sid, parent, name, start, end, n in self.spans
        )


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    busy: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    child_busy: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, n in tr.spans:
        busy[name] += end - start
        size[name] += n
        calls[name] += 1
        if parent >= 0:
            child_busy[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, n in tr.spans:
        if name.startswith("cli."):
            self_time[name] += end - start - child_busy[sid]

    out: dict[str, float] = {}
    for kind in FACTORIES.values():
        out[f"{kind}.digits_per_s"] = _rate(size[kind + ".gen"], busy[kind + ".gen"])
    out["digits.expand.calls"] = calls["digits.expand"]
    out["digits.expand.busy_s"] = busy["digits.expand"]
    widest = max((c.q for c in tr.expands if c.first_at is not None), default=None)
    firsts = sorted(c.first_at - c.start for c in tr.expands if c.q == widest and c.first_at is not None)
    out["digits.expand.first_digit_s"] = firsts[len(firsts) // 2] if firsts else 0.0
    computed = sum(c.computed for c in tr.expands)
    useful = sum(min(c.emitted, c.computed) for c in tr.expands)
    out["digits.expand.useful_ratio"] = useful / computed if computed else 0.0
    out["digits.periodic_iter.digits_per_s"] = _rate(
        size["digits.periodic_iter"], busy["digits.periodic_iter"]
    )
    out["digits.stream_value.busy_s"] = busy["digits.stream_value"]
    out["digits.prefix_value.digits_per_s"] = _rate(size["digits.prefix_value"], busy["digits.prefix_value"])
    out["stats.convergence_trace.digits_per_s"] = _rate(
        size["stats.convergence_trace.materialized"], busy["stats.convergence_trace.materialized"]
    )
    out["stats.convergence_trace.busy_s"] = busy["stats.convergence_trace"]
    out["cli.construct.self_s"] = self_time["cli.construct"]
    out["cli.analyze.self_s"] = self_time["cli.analyze"]
    out["cli.bytes_written"] = tr.counters["cli.bytes_written"]
    out["cli.bytes_read"] = tr.counters["cli.bytes_read"]
    out["entropy.neg_entropy_minimum.calls"] = calls["entropy.neg_entropy_minimum"]
    out["entropy.neg_entropy_minimum.busy_s"] = busy["entropy.neg_entropy_minimum"]
    out["entropy.exp_family_vector.calls"] = tr.counters["entropy.exp_family_vector.calls"]
    out["entropy.neg_entropy_minimum_grid.busy_s"] = busy["entropy.neg_entropy_minimum_grid"]
    out["entropy.neg_entropy_minimum_grid.cells"] = size["entropy.neg_entropy_minimum_grid"]
    for module in ("digits", "stats", "construct", "entropy"):
        out[f"verify.run_checks.{module}.busy_s"] = busy[f"verify.run_checks.{module}"]
    out["verify.checks_passed"] = tr.counters["verify.checks_passed"]
    out["verify.checks_failed"] = tr.counters["verify.checks_failed"]
    return out
