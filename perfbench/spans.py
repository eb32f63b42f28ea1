"""In-memory span tracer that wraps the program's layer entry points.

The benchmark's traced run installs a :class:`Tracer` around the public
entry points listed in :data:`TARGETS` before it calls the CLI's ``main``.
Every call records one span (layer, target, start, end, parent); spans stay
in memory and are written out once when the run ends.  A layer's *self*
time is the duration of its spans minus the time their child spans cover,
so self times over all spans plus an ``unaccounted`` remainder add up to
the run's wall time exactly.

A target that no longer exists (a deleted function, a renamed class) is
reported as missing instead of failing the run, so the same benchmark can
measure a later commit that removed a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "LAYERS",
    "Span",
    "Target",
    "TARGETS",
    "Tracer",
    "install",
    "layer_totals",
    "self_times",
]


@dataclass
class Span:
    """One traced call: which layer, which entry point, when, and its caller."""

    layer: str
    target: str
    start: float
    end: float = 0.0
    parent: int = -1


class Tracer:
    """Nestable span recorder for one thread of one process.

    Spans are kept as ``[layer, target, start, end, parent]`` lists, the
    cheapest form to append on every traced call; :meth:`records` turns
    them into :class:`Span` objects.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []

    def begin(self, layer: str, target: str = "") -> int:
        index = len(self.spans)
        self.spans.append([layer, target, self.clock(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self.stack.pop()

    def records(self) -> list[Span]:
        return [Span(*fields) for fields in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one call stack, so children lie inside their parent and
    do not overlap each other; the self times of all spans therefore sum
    to the summed duration of the top-level spans.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` over all spans."""
    totals: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.layer, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return {layer: (seconds, int(calls)) for layer, (seconds, calls) in totals.items()}


# ---------------------------------------------------------------------- #
# Counters taken at the layer boundaries
# ---------------------------------------------------------------------- #
Counter = Callable[[dict, tuple, dict, Any, str, bool], None]


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[position]


def _count_get(counters, args, kwargs, result, parent, nested):
    # A get under get_with_source is that lookup's disk read, already counted.
    if not parent.endswith(".get_with_source"):
        counters["cache.lookups"] += 1
        counters["cache.hits"] += result is not None


def _count_get_with_source(counters, args, kwargs, result, parent, nested):
    counters["cache.lookups"] += 1
    counters["cache.hits"] += result[0] is not None


def _count_appended(counters, args, kwargs, result, parent, nested):
    if result:
        counters["store.bytes_written"] += sum(result.values())


def _count_units(counters, args, kwargs, result, parent, nested):
    if not nested:
        counters["backends.units"] += len(_argument(args, kwargs, 2, "items"))


def _count_program_blocks(counters, args, kwargs, result, parent, nested):
    if not nested:
        counters["sim.blocks"] += len(_argument(args, kwargs, 1, "program"))


def _count_selected_blocks(counters, args, kwargs, result, parent, nested):
    if not nested:
        counters["sim.blocks"] += len(_argument(args, kwargs, 2, "indices"))


def _count_planned_blocks(counters, args, kwargs, result, parent, nested):
    if not nested:
        plans = _argument(args, kwargs, 0, "plans")
        counters["sim.blocks"] += sum(
            len(plan.simulate_indices) for plan in plans if plan.program is not None
        )


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module`` plus ``function`` or ``Class.method``.

    ``subclasses`` also wraps every override of the method in subclasses
    (backends and baseline models override a base-class entry point).
    ``count`` runs after each call with the arguments and result.
    """

    layer: str
    module: str
    name: str
    subclasses: bool = False
    count: Counter | None = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.name}"


_ENGINE = "repro.session.engine"
_CACHE = "repro.session.cache"
_STORE = "repro.session.store"
_CHECKPOINT = "repro.session.checkpoint"

#: The traced entry points, grouped into layers named after the modules.
TARGETS: tuple[Target, ...] = (
    Target("session.keying", "repro.session.workload", "Workload.fingerprint"),
    Target("session.keying", "repro.core.config", "BitFusionConfig.fingerprint"),
    Target("session.keying", _ENGINE, "tiling_cache_key"),
    Target("session.keying", _ENGINE, "program_cache_key"),
    Target("session.keying", _ENGINE, "block_cache_key"),
    Target("session.keying", _ENGINE, "layer_cache_key"),
    Target("session.cache.read", _CACHE, "ResultCache.get", count=_count_get),
    Target(
        "session.cache.read", _CACHE, "ResultCache.get_with_source",
        count=_count_get_with_source,
    ),
    Target("session.cache.read", _CACHE, "ResultCache.get_many"),
    Target("session.cache.read", _CACHE, "ResultCache.prefetch"),
    Target("session.cache.write", _CACHE, "ResultCache.put"),
    Target(
        "session.store.append", _STORE, "SegmentedStore.append_encoded",
        count=_count_appended,
    ),
    Target("session.store.read", _STORE, "SegmentedStore.get_records"),
    Target("session.store.read", _STORE, "SegmentedStore.get_record"),
    Target("session.checkpoint", _CHECKPOINT, "SweepCheckpoint.record_planned"),
    Target("session.checkpoint", _CHECKPOINT, "SweepCheckpoint.record_completed"),
    Target("session.checkpoint", _CHECKPOINT, "SweepCheckpoint.record_failed"),
    Target("session.checkpoint", _CHECKPOINT, "SweepCheckpoint.record_quarantined"),
    Target("session.checkpoint", _CHECKPOINT, "SweepCheckpoint.reset"),
    Target("session.run_many", "repro.session.session", "EvaluationSession.run_many"),
    Target(
        "session.backends.execute", "repro.session.backends", "ExecutionBackend.execute",
        subclasses=True, count=_count_units,
    ),
    Target("isa.compile", "repro.isa.compiler", "FusionCompiler.compile"),
    Target("isa.tiling", "repro.isa.tiling", "search_tiling"),
    Target(
        "sim.simulate", "repro.sim.executor", "BitFusionSimulator.run_blocks",
        count=_count_program_blocks,
    ),
    Target(
        "sim.simulate", "repro.sim.executor", "BitFusionSimulator.run_selected_blocks",
        count=_count_selected_blocks,
    ),
    Target("sim.simulate", _ENGINE, "simulate_planned_blocks", count=_count_planned_blocks),
    Target("sim.compose", "repro.sim.results", "compose_network_result"),
    Target("nas.estimate", "repro.nas.estimator", "Estimator.estimate_many"),
    Target("nas.mutate", "repro.nas.mutations", "mutate"),
    Target("dse.expand", "repro.dse.spec", "SweepSpec.expand"),
    Target("dse.pareto", "repro.dse.pareto", "ParetoArchive.extend"),
    Target("dse.pareto", "repro.dse.pareto", "pareto_indices"),
    Target("dse.render", "repro.dse.report", "format_sweep_report"),
    Target(
        "baselines.evaluate", "repro.baselines.base", "AcceleratorModel.evaluate",
        subclasses=True,
    ),
    Target("harness.experiments", "repro.harness.runner", "run_experiments"),
)

#: Every layer name, in report order; ``import`` is recorded by the traced run.
LAYERS: tuple[str, ...] = ("import",) + tuple(dict.fromkeys(t.layer for t in TARGETS))


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
def _wrap(function: Callable, tracer: Tracer, layer: str, label: str, count: Counter | None):
    spans, stack, clock = tracer.spans, tracer.stack, tracer.clock

    @functools.wraps(function)
    def traced(*args, **kwargs):
        parent = stack[-1] if stack else -1
        record = [layer, label, clock(), 0.0, parent]
        stack.append(len(spans))
        spans.append(record)
        try:
            result = function(*args, **kwargs)
        finally:
            record[3] = clock()
            stack.pop()
        if count is not None:
            caller = spans[parent][1] if parent >= 0 else ""
            nested = any(spans[index][0] == layer for index in stack)
            try:
                count(tracer.counters, args, kwargs, result, caller, nested)
            except Exception:  # noqa: BLE001 - a counter must never break the run
                tracer.counters["trace.counter_errors"] += 1
        return result

    traced.__perfbench_traced__ = True
    return traced


def _wrap_attribute(owner: type, attr: str, tracer: Tracer, target: Target) -> bool:
    raw = owner.__dict__[attr]
    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
    function = raw.__func__ if kind is not None else raw
    if not callable(function) or getattr(function, "__perfbench_traced__", False):
        return False
    label = f"{owner.__name__}.{attr}"
    wrapped = _wrap(function, tracer, target.layer, label, target.count)
    setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
    return True


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _install_method(module: Any, target: Target, tracer: Tracer) -> bool:
    class_name, _, attr = target.name.partition(".")
    cls = getattr(module, class_name, None)
    if not isinstance(cls, type):
        return False
    try:
        inspect.getattr_static(cls, attr)
    except AttributeError:
        return False
    owners = [next(base for base in cls.__mro__ if attr in base.__dict__)]
    if target.subclasses:
        owners += [sub for sub in _subclasses(cls) if attr in sub.__dict__]
    for owner in dict.fromkeys(owners):
        _wrap_attribute(owner, attr, tracer, target)
    return True


def _install_function(module: Any, target: Target, tracer: Tracer) -> bool:
    function = getattr(module, target.name, None)
    if not callable(function):
        return False
    if getattr(function, "__perfbench_traced__", False):
        return True
    wrapped = _wrap(function, tracer, target.layer, target.name, target.count)
    # `from module import name` copies the reference: rebind it everywhere.
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if value is function:
                namespace[key] = wrapped
    return True


def install(tracer: Tracer, targets: Iterable[Target] = TARGETS) -> list[str]:
    """Wrap every target; returns the labels of targets that do not exist."""
    missing: list[str] = []
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            missing.append(target.label)
            continue
        install_one = _install_method if "." in target.name else _install_function
        if not install_one(module, target, tracer):
            missing.append(target.label)
    return missing
