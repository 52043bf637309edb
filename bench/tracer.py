"""Span tracer that times the tpa_metrology layers from outside the package.

`Tracer.install` wraps every public function of the seven layer modules
(`fock`, `channels`, `distributions`, `metrology`, `sweeps`, `validate`,
`cli`) and every entry of `validate.CHECKS`.  The package copies names with
`from .x import f`, so each `tpa_metrology.*` module attribute bound to a
target is replaced, not only the one in the defining module.  A target that
no longer exists is listed in `Tracer.absent`; `Tracer.uninstall` puts every
original back.

Each call records a span ``[name, start, end, parent, run_id, work, peak]``:
the parent is the index of the enclosing span on the same thread (-1 for a
root), ``work`` is a size computed from the call's arguments or result (see
`WORK`), and ``peak`` is, in a memory-traced pass, the largest
tracemalloc-traced allocation above the level at entry, in bytes (else 0).
Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import tracemalloc

from workloads import VALIDATE_CHECKS

PACKAGE = "tpa_metrology"
LAYERS = ("fock", "channels", "distributions", "metrology", "sweeps", "validate", "cli")
MB = 1024.0 * 1024.0


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


# Sizes computed at the call boundary; "computed" because they count cells
# or points from argument and return shapes, not measured work.
WORK = {
    "fock.make_probe_state": lambda args, kwargs, out: out.dim,
    "channels.apply_binomial_loss": lambda args, kwargs, out: _size(args[0]) ** 2,
    "distributions.hermite_functions": lambda args, kwargs, out: (int(args[1]) + 1) * _size(args[0]),
    "metrology.fisher_discrete": lambda args, kwargs, out: out.ill_bins,
    "metrology.fisher_continuous": lambda args, kwargs, out: out.ill_bins,
    "sweeps.run_sweep": lambda args, kwargs, out: len(args[0].axis_values),
}

# (metric, unit, better, field, targets).  field is one of calls, s, self_s,
# work and peak_mb; a target ending in ".*" stands for every span of a layer.
SPAN_METRICS = [
    ("fock.make_probe_state.calls", "count", "lower", "calls", ("fock.make_probe_state",)),
    ("fock.make_probe_state.s", "s", "lower", "s", ("fock.make_probe_state",)),
    ("fock.apply_squeeze.self_s", "s", "lower", "self_s", ("fock.apply_squeeze",)),
    ("fock.apply_displacement.self_s", "s", "lower", "self_s", ("fock.apply_displacement",)),
    ("fock.build_attempts", "count", "lower", "calls", ("fock.tail_estimate",)),
    ("fock.dim_sum", "count", "lower", "work", ("fock.make_probe_state",)),
    ("fock.peak_mb", "MB", "lower", "peak_mb", ("fock.*",)),
    ("channels.apply_binomial_loss.calls", "count", "lower", "calls", ("channels.apply_binomial_loss",)),
    ("channels.apply_binomial_loss.self_s", "s", "lower", "self_s", ("channels.apply_binomial_loss",)),
    ("channels.thin_cells", "count", "lower", "work", ("channels.apply_binomial_loss",)),
    ("channels.population_derivative.self_s", "s", "lower", "self_s", ("channels.population_derivative",)),
    ("channels.loss_channel.self_s", "s", "lower", "self_s", ("channels.loss_channel",)),
    ("channels.tpa_generator.self_s", "s", "lower", "self_s", ("channels.tpa_generator",)),
    ("channels.peak_mb", "MB", "lower", "peak_mb", ("channels.*",)),
    ("distributions.pmf_pair_from_state.s", "s", "lower", "s", ("distributions.pmf_pair_from_state",)),
    ("distributions.quad_pdf_pair_from_state.calls", "count", "lower", "calls",
     ("distributions.quad_pdf_pair_from_state",)),
    ("distributions.quad_pdf_pair_from_state.self_s", "s", "lower", "self_s",
     ("distributions.quad_pdf_pair_from_state",)),
    ("distributions.hermite_functions.self_s", "s", "lower", "self_s", ("distributions.hermite_functions",)),
    ("distributions.hermite_cells", "count", "lower", "work", ("distributions.hermite_functions",)),
    ("distributions.quad_pdf_from_density.self_s", "s", "lower", "self_s",
     ("distributions.quad_pdf_from_density",)),
    ("distributions.peak_mb", "MB", "lower", "peak_mb", ("distributions.*",)),
    ("metrology.fisher_discrete.self_s", "s", "lower", "self_s", ("metrology.fisher_discrete",)),
    ("metrology.fisher_continuous.self_s", "s", "lower", "self_s", ("metrology.fisher_continuous",)),
    ("metrology.sensitivity_numeric.calls", "count", "lower", "calls", ("metrology.sensitivity_numeric",)),
    ("metrology.sensitivity_analytic.self_s", "s", "lower", "self_s", ("metrology.sensitivity_analytic",)),
    ("metrology.ill_bins", "count", "lower", "work", ("metrology.fisher_discrete", "metrology.fisher_continuous")),
    ("sweeps.run_sweep.self_s", "s", "lower", "self_s", ("sweeps.run_sweep",)),
    ("sweeps.points", "count", "higher", "work", ("sweeps.run_sweep",)),
    *[(f"validate.{name}.s", "s", "lower", "s", (f"validate.{name}",)) for name in VALIDATE_CHECKS],
    ("cli.main.self_s", "s", "lower", "self_s", ("cli.main",)),
]
# Builds that passed the tail check over trial builds (one tail_estimate each).
BUILD_YIELD = ("fock.build_yield", "ratio", "higher")
# Wall time of a span-traced pass, and of a memory-traced pass, minus that of
# an untraced pass.
OVERHEADS = (("trace_overhead_s", "s", "lower"), ("memory_trace_overhead_s", "s", "lower"))


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name mapped to (unit, better), in report order."""
    units = {name: (unit, better) for name, unit, better, _, _ in SPAN_METRICS}
    for name, unit, better in (BUILD_YIELD, *OVERHEADS):
        units[name] = (unit, better)
    return units


def required_targets() -> set[str]:
    return {t for *_, targets in SPAN_METRICS for t in targets if not t.endswith(".*")}


class _Frame:
    __slots__ = ("index", "base", "peak")

    def __init__(self, index: int, base: int):
        self.index = index
        self.base = base
        self.peak = base


class Tracer:
    """Wraps the layer functions, records spans, and restores everything on uninstall.

    With ``memory`` the spans also carry tracemalloc peaks.  That more than
    doubles the run time of allocation-heavy layers, so timings come from
    passes without it.
    """

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._owns_tracemalloc = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        # id(original) -> (original, wrapper); the original is kept alive here.
        targets: dict[int, tuple[object, object]] = {}
        found = set()
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                    found.add(f"{layer}.{attr}")
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = targets.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        checks = getattr(sys.modules[f"{PACKAGE}.validate"], "CHECKS", {})
        for key, fn in list(checks.items()):
            self._patches.append((checks, key, fn))
            checks[key] = self._wrap(f"validate.{key}", fn)
            found.add(f"validate.{key}")
        self.absent = sorted(required_targets() - found)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        if self._owns_tracemalloc:
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        tracer = self
        memory = self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            current = 0
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.peak = max(parent.peak, peak)
                tracemalloc.reset_peak()
            frame = _Frame(len(tracer.spans), current)
            tracer.spans.append(None)
            stack.append(frame)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if memory:
                    frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()
                    if parent is not None:
                        parent.peak = max(parent.peak, frame.peak)
                size = 0
                if work is not None and out is not None:
                    try:
                        size = int(work(args, kwargs, out))
                    except (AttributeError, IndexError, TypeError, ValueError):
                        size = 0
                tracer.spans[frame.index] = [
                    name,
                    start,
                    end,
                    parent.index if parent is not None else -1,
                    tracer.run_id,
                    size,
                    frame.peak - frame.base,
                ]

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all except the tracing overhead)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    agg: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _, _, work, peak = span
        for key in (name, name.split(".", 1)[0] + ".*"):
            a = agg.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "peak_mb": 0.0})
            a["calls"] += 1
            a["s"] += end - start
            a["self_s"] += end - start - child_time[i]
            a["work"] += work
            a["peak_mb"] = max(a["peak_mb"], peak / MB)
    metrics = {}
    for metric, _, _, fld, targets in SPAN_METRICS:
        values = [agg[t][fld] for t in targets if t in agg]
        metrics[metric] = max(values, default=0.0) if fld == "peak_mb" else sum(values)
    builds = metrics["fock.make_probe_state.calls"]
    attempts = metrics["fock.build_attempts"] or builds
    metrics[BUILD_YIELD[0]] = builds / attempts if attempts else 0.0
    return metrics
