"""Layer attribution for the traced run.

**Span pass.**  :func:`installed` wraps every public callable of every
``repro`` layer -- module functions, class methods (and ``__init__``),
and every ``from x import f`` alias or module-level table entry that
holds one -- in a timing wrapper.  A span opens only where control
crosses from one layer into another, so nested calls within a layer
cost one comparison.  A layer's self time is its spans' duration minus
the spans they contain, kept on the fly with a span stack; time outside
every span is ``bench`` time.  Generator functions (blocking
primitives such as ``Context.barrier``) are timed per resumption, and
the scheduler's thread-resume step ``SpmdScheduler._advance`` is
charged to the layer of the SPMD program being run, so program bodies
count as ``apps`` (or ``reporting``), not as scheduler time.  Private
helpers are not wrapped: inlined fast paths are charged to their
caller on purpose.

**Counter pass.**  :func:`counter_pass` runs one iteration under
``repro.trace.tracing()`` and harvests deterministic simulated counts
from the event counters and the units' ``counters()`` providers.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType

BENCH = "bench"

#: ``repro`` subpackage -> layer.  Modules outside these (``params``,
#: ``trace``, ``parallel``, ``models``, ``cli``) are not wrapped; their
#: time is charged to whoever calls them.
LAYER_OF_PACKAGE = {
    "apps": "apps", "splitc": "splitc", "machine": "machine",
    "simkernel": "machine", "network": "network", "shell": "shell",
    "node": "node", "microbench": "microbench", "vector": "vector",
    "reporting": "reporting",
}
LAYERS = ("apps", "splitc", "machine", "network", "shell", "node",
          "microbench", "vector", "reporting", BENCH)

#: Spans at least this long go to the Chrome trace.
MIN_SPAN_S = 100e-6


def layer_of_module(name) -> str | None:
    parts = (name or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return LAYER_OF_PACKAGE.get(parts[1])


class SpanLedger:
    """Self time, cross-layer call counts and long spans of one pass."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: ``(caller layer, callee layer) -> calls`` across the boundary.
        self.boundaries: defaultdict = defaultdict(int)
        #: ``(name, layer, start, duration)`` of every long span.
        self.spans: list = []
        #: Frames ``[layer, start, time in child spans]``; the bottom
        #: frame is ``bench``.  Wrappers hold this very list.
        self.stack = [[BENCH, perf_counter(), 0.0]]
        #: Layers of the SPMD programs being run (innermost last).
        self.programs: list = []
        self.origin = self.stack[0][1]
        self.wall_s = 0.0
        self.points_requested = 0
        self.points_computed = 0
        self.vector_points = 0
        self.vector_declined = 0

    @property
    def calls(self) -> dict:
        """Calls into each layer from another layer."""
        calls = dict.fromkeys(LAYERS, 0)
        for (_caller, callee), count in self.boundaries.items():
            calls[callee] += count
        return calls

    def open(self) -> None:
        """Start the pass: everything from here is ``bench`` time
        until a wrapped call opens a span."""
        self.origin = perf_counter()
        self.stack[:] = [[BENCH, self.origin, 0.0]]

    def close(self) -> None:
        end = perf_counter()
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans left open")
        _layer, start, child = self.stack[0]
        self.wall_s = end - start
        self.self_s[BENCH] += self.wall_s - child

    def span(self, layer: str, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self.stack
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            start = frame[1]
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            stack[-1][2] += duration
            if duration >= MIN_SPAN_S:
                self.spans.append((name, layer, start, duration))

    def resumed(self, gen, layer: str, name: str):
        """Drive ``gen``, timing each resumption as a span of ``layer``."""
        stack = self.stack
        value, error = None, None
        while True:
            step, arg = (gen.send, value) if error is None else \
                (gen.throw, error)
            try:
                if stack[-1][0] == layer:
                    yielded = step(arg)
                else:
                    yielded = self.span(layer, name, step, (arg,), {})
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _wrap_function(ledger: SpanLedger, fn, layer: str, name: str):
    stack, boundaries = ledger.stack, ledger.boundaries
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            caller = stack[-1][0]
            if caller != layer:
                boundaries[caller, layer] += 1
            return ledger.resumed(fn(*args, **kwargs), layer, name)
        return functools.update_wrapper(wrapper, fn)

    # The hot path: ``ledger.span`` inlined, every lookup a local.
    clock, push, pop = perf_counter, stack.append, stack.pop
    self_s, keep, min_span = ledger.self_s, ledger.spans.append, MIN_SPAN_S

    def wrapper(*args, **kwargs):
        caller = stack[-1]
        if caller[0] == layer:
            return fn(*args, **kwargs)
        boundaries[caller[0], layer] += 1
        start = clock()
        frame = [layer, start, 0.0]
        push(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            pop()
            self_s[layer] += duration - frame[2]
            caller[2] += duration
            if duration >= min_span:
                keep((name, layer, start, duration))
    return functools.update_wrapper(wrapper, fn)


def _wrap_advance(ledger, fn, layer, name):
    """The resume step runs the program body: charge it to the layer
    of the program ``run_splitc`` is running."""
    stack, boundaries, programs = (ledger.stack, ledger.boundaries,
                                   ledger.programs)

    def _advance(scheduler, thread):
        program = programs[-1] if programs else layer
        caller = stack[-1][0]
        if caller == program:
            return fn(scheduler, thread)
        boundaries[caller, program] += 1
        return ledger.span(program, name, fn, (scheduler, thread), {})
    return functools.update_wrapper(_advance, fn)


def _wrap_run_splitc(ledger, fn, layer, name):
    timed = _wrap_function(ledger, fn, layer, name)

    def run_splitc(machine, program, *args, **kwargs):
        ledger.programs.append(
            layer_of_module(getattr(program, "__module__", None)) or BENCH)
        try:
            return timed(machine, program, *args, **kwargs)
        finally:
            ledger.programs.pop()
    return functools.update_wrapper(run_splitc, fn)


def _wrap_vector_point(ledger, fn, layer, name):
    """A call that computes one probe point on the vector tier, or
    declines it with ``UnsupportedStimulus``."""
    from repro.vector import UnsupportedStimulus
    timed = _wrap_function(ledger, fn, layer, name)

    def point(*args, **kwargs):
        ledger.vector_points += 1
        try:
            return timed(*args, **kwargs)
        except UnsupportedStimulus:
            ledger.vector_declined += 1
            raise
    return functools.update_wrapper(point, fn)


def _wrap_kernel_factory(ledger, fn, layer, name):
    """``sweeps.build`` returns one point kernel per probe; time and
    count the kernel's calls as vector points."""
    timed = _wrap_function(ledger, fn, layer, name)

    def build(family, **geometry):
        kernel = timed(family, **geometry)
        return _wrap_vector_point(ledger, kernel, layer, f"{name}:{family}")
    return functools.update_wrapper(build, fn)


def _wrap_counted(attribute: str, size=lambda result: 1):
    def factory(ledger, fn, layer, name):
        timed = _wrap_function(ledger, fn, layer, name)

        def counted(*args, **kwargs):
            result = timed(*args, **kwargs)
            setattr(ledger, attribute,
                    getattr(ledger, attribute) + size(result))
            return result
        return functools.update_wrapper(counted, fn)
    return factory


#: Qualified name -> wrapper factory for callables that need more than
#: a span.  ``_advance`` is private but wrapped all the same.
SPECIAL = {
    "repro.simkernel.scheduler.SpmdScheduler._advance": _wrap_advance,
    "repro.splitc.runtime.run_splitc": _wrap_run_splitc,
    "repro.vector.sweeps.build": _wrap_kernel_factory,
    "repro.vector.sweeps.streaming_read_total": _wrap_vector_point,
    "repro.microbench.harness.stride_point_specs":
        _wrap_counted("points_requested", size=len),
    "repro.microbench.harness.run_stride_point":
        _wrap_counted("points_computed"),
}


def _layer_modules():
    """Import every module of every layer, so lazily imported ones
    (``repro.vector.sweeps``) are wrapped too."""
    for package in LAYER_OF_PACKAGE:
        root = importlib.import_module(f"repro.{package}")
        for info in pkgutil.walk_packages(root.__path__, f"repro.{package}."):
            importlib.import_module(info.name)
    return [(name, module) for name, module in sorted(sys.modules.items())
            if module is not None and layer_of_module(name)]


def _wrappable_class(obj, modname: str) -> bool:
    return (isinstance(obj, type) and obj.__module__ == modname
            and not issubclass(obj, (BaseException, enum.Enum)))


@contextmanager
def installed(ledger: SpanLedger):
    """Wrap every layer's public callables for the duration of the
    block; restore every original on the way out."""
    restores = []
    wrapped = {}        # id(original) -> (original, wrapper)

    def patch_attr(owner, attr, value):
        # vars(), not getattr(): a staticmethod must come back as one.
        restores.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_item(table, key, value):
        restores.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def wrap(fn, layer, name):
        wrapper = SPECIAL.get(name, _wrap_function)(ledger, fn, layer, name)
        wrapped[id(fn)] = (fn, wrapper)
        return wrapper

    for modname, module in _layer_modules():
        layer = layer_of_module(modname)
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, FunctionType) and obj.__module__ == modname \
                    and not attr.startswith("_"):
                patch_attr(module, attr,
                           wrap(obj, layer, f"{modname}.{attr}"))
            elif _wrappable_class(obj, modname):
                for name, member in list(vars(obj).items()):
                    qualname = f"{modname}.{obj.__name__}.{name}"
                    if name.startswith("_") and name != "__init__" \
                            and qualname not in SPECIAL:
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        if isinstance(member.__func__, FunctionType):
                            patch_attr(obj, name, type(member)(
                                wrap(member.__func__, layer, qualname)))
                    elif isinstance(member, FunctionType):
                        patch_attr(obj, name, wrap(member, layer, qualname))

    def original(obj):
        hit = wrapped.get(id(obj)) if isinstance(obj, FunctionType) else None
        return hit[1] if hit is not None and hit[0] is obj else None

    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] not in ("repro", "bench"):
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if (wrapper := original(obj)) is not None:
                patch_attr(module, attr, wrapper)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if (wrapper := original(value)) is not None:
                        patch_item(obj, key, wrapper)
    try:
        yield ledger
    finally:
        for restore, owner, key, value in reversed(restores):
            restore(owner, key, value)


def write_chrome_trace(ledger: SpanLedger, path) -> None:
    """The long spans, in Chrome trace format (Perfetto reads it)."""
    events = [{"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
               "ts": (start - ledger.origin) * 1e6, "dur": duration * 1e6}
              for name, layer, start, duration in ledger.spans]
    with open(path, "w") as handle:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, handle)


# ----------------------------------------------------------------------
# Counter pass
# ----------------------------------------------------------------------

def counter_pass(iterate):
    """Run ``iterate()`` under ``repro.trace.tracing()``; returns its
    output, the simulated counts, and the shell operation total."""
    from repro.trace import tracer as trace

    ghost = 0
    emit = trace.emit

    def counting_emit(ev, t=None, pe=None, **fields):
        nonlocal ghost
        if ev == "annex_ghost_fill":
            ghost += fields["count"]
        emit(ev, t=t, pe=pe, **fields)

    trace.emit = counting_emit
    try:
        with trace.tracing(ring_capacity=1) as tracer:
            out = iterate()
    finally:
        trace.emit = emit
    events = {name: counter.count for name, counter in
              tracer.counters.items()}
    units = tracer.provider_counters()

    def unit(kind, key):
        return units.get(kind, {}).get(key, 0)

    counts = {
        # Cache providers are every L1 (and the workstation's L2 on
        # probe-sweeps); probes reset units per point, so probe-sweeps
        # counts cover each probe's last point only.
        "node.l1_hits": unit("cache", "hits"),
        "node.l1_misses": unit("cache", "misses"),
        "node.dram_accesses": unit("dram", "accesses"),
        "node.dram_row_misses": unit("dram", "row_misses"),
        # Entries drained plus entries pending: the buffer's own count
        # covers the inlined store paths that bypass ``push``.
        "node.wb_pushes": unit("write_buffer", "drained_entries")
        + unit("write_buffer", "pending"),
        "node.wb_merges": unit("write_buffer", "merged_writes"),
        "shell.remote_reads": unit("remote", "uncached_reads")
        + unit("remote", "cached_line_fills"),
        "shell.remote_stores": unit("remote", "stores"),
        "shell.prefetch_issues": unit("prefetch", "issues"),
        "shell.blt_bytes": unit("blt", "bytes_moved"),
        "shell.msg_sends": unit("msgqueue", "sends"),
        "shell.barrier_epochs": unit("barrier", "barriers_completed"),
        "machine.ctx_switches": events.get("ctx_switch", 0),
        "machine.cohort_rounds": events.get("cohort_round", 0),
        "apps.ghost_fill_elems": ghost,
    }
    shell_ops = (counts["shell.remote_reads"] + counts["shell.remote_stores"]
                 + counts["shell.prefetch_issues"] + unit("prefetch", "pops")
                 + counts["shell.msg_sends"]
                 + unit("msgqueue", "interrupts_taken")
                 + unit("blt", "transfers_started")
                 + unit("annex", "updates"))
    return out, counts, shell_ops


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(ledger: SpanLedger, counts: dict, shell_ops: int,
                      untraced_wall_s: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``, by name."""
    self_s, calls = ledger.self_s, ledger.calls
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({f"{layer}.calls": calls[layer]
                    for layer in LAYERS if layer != BENCH})
    metrics["trace.overhead_pct"] = 100.0 * (
        ledger.wall_s / untraced_wall_s - 1.0)
    metrics.update(counts)
    requested, points = ledger.points_requested, ledger.vector_points
    metrics["microbench.points_requested"] = requested
    metrics["microbench.memo_hit_ratio"] = _per(
        requested - ledger.points_computed, requested)
    metrics["vector.points"] = points
    metrics["vector.accept_ratio"] = _per(
        points - ledger.vector_declined, points)
    accesses = (counts["node.l1_hits"] + counts["node.l1_misses"]
                + counts["node.wb_pushes"] + counts["node.wb_merges"])
    metrics["node.host_ns_per_access"] = _per(1e9 * self_s["node"], accesses)
    metrics["shell.host_ns_per_op"] = _per(1e9 * self_s["shell"], shell_ops)
    metrics["machine.host_ns_per_switch"] = _per(
        1e9 * self_s["machine"], counts["machine.ctx_switches"])
    metrics["splitc.host_ns_per_call"] = _per(
        1e9 * self_s["splitc"], calls["splitc"])
    metrics["vector.host_us_per_point"] = _per(1e6 * self_s["vector"], points)
    return metrics
