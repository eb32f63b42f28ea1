"""Staged workload execution: compile → simulate-blocks → compose.

This module is the seam between :class:`~repro.session.session.
EvaluationSession` and the platform models.  Bit Fusion workloads run
through an explicit three-stage pipeline with a cacheable artifact at every
seam:

1. **compile** — lower the network to a Fusion-ISA
   :class:`~repro.isa.program.Program`.  The artifact is keyed by a
   *structure-only* fingerprint (:func:`program_cache_key`): network
   structure, batch size, scratchpad capacities and compiler flags — the
   only inputs the compiler reads.  A sweep that varies off-chip bandwidth
   (or any other simulation-only parameter) therefore reuses one compiled
   program across all its points.
2. **simulate-blocks** — run each instruction block independently through
   :class:`~repro.sim.executor.BitFusionSimulator` into a serializable
   :class:`~repro.sim.results.LayerResult`, keyed by the content-addressed
   **layer key** (:func:`layer_cache_key`): the *name-free* layer
   fingerprint plus the simulation-affecting configuration.  Blocks whose
   cycle/energy inputs are unchanged are never re-simulated, and identical
   (layer, tiling) pairs dedupe across the networks of a model-family
   sweep.  A stored record carries no name; a hit is renamed to the
   requesting block before use, so composition stays byte-identical.
3. **compose** — assemble the per-block results into a
   :class:`~repro.sim.results.NetworkResult`
   (:func:`~repro.sim.results.compose_network_result`).  Composition is
   pure, so a result composed from cached artifacts is byte-identical to a
   fresh monolithic simulation.

Baseline platforms (Eyeriss, Stripes, GPUs, the temporal design) have no
compile stage; they run as a single simulate step and cache whole results.

Parallel execution is **warm-artifact aware**.  The main process plans each
uncached workload against the cache (:func:`plan_workload`): it compiles
centrally through the program cache (structure-only keys, exactly-once per
network), resolves every block whose result is already cached, and ships a
worker a :class:`WorkUnit` carrying the program *sliced down to the
genuinely missing blocks* (plus their full-program indices).  Workers
(:func:`execute_work_unit`) simulate just those blocks and return
:class:`WorkResult`\\ s; the main process stores the fresh records and
composes (:func:`compose_plan`).  Worker failures never poison the pool
batch: they come back as error strings carrying the workload's label, and
:class:`~repro.session.session.EvaluationSession` raises a
:class:`WorkloadExecutionError` only after every surviving result is
stored.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Protocol, Sequence

from repro.baselines.base import AcceleratorModel
from repro.baselines.eyeriss import EyerissModel
from repro.baselines.gpu import GpuModel, GpuPrecision
from repro.baselines.stripes import StripesModel
from repro.baselines.temporal import TemporalAcceleratorModel
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.fingerprint import fingerprint_payload
from repro.isa.compiler import FusionCompiler, PlanResolver
from repro.isa.instructions import LoopOrder
from repro.isa.program import CompiledBlock, Program
from repro.isa.tiling import GemmWorkload, TilingPlan
from repro.session import testing
from repro.session.cache import CacheStats, ProgramStats, ResultCache
from repro.session.workload import Workload, load_network, network_digest
from repro.sim.batched import simulate_blocks_grid
from repro.sim.executor import BitFusionSimulator
from repro.sim.results import LayerResult, NetworkResult, compose_network_result

__all__ = [
    "CacheAudit",
    "PlanLike",
    "QuarantineRecord",
    "WorkPlan",
    "WorkResult",
    "WorkUnit",
    "WorkloadExecutionError",
    "audit_workload_cache",
    "build_model",
    "compile_program",
    "compile_workload",
    "compose_plan",
    "describe_workload_error",
    "execute_work_unit",
    "execute_workload",
    "execute_workload_cached",
    "layer_cache_key",
    "make_plan_resolver",
    "obtain_program",
    "plan_workload",
    "program_cache_key",
    "program_content_key",
    "simulate_planned_blocks",
    "simulator_for",
    "store_block_result",
    "store_layer_record",
    "tiling_cache_key",
    "try_compose_from_cache",
]


def build_model(workload: Workload) -> AcceleratorModel | BitFusionAccelerator:
    """Instantiate the platform model a workload targets."""
    # Workload.__post_init__ guarantees config is resolved (or None only for
    # the fixed-configuration temporal platform), so what the fingerprint
    # hashed is exactly what runs here.
    if workload.platform == "bitfusion":
        return BitFusionAccelerator(
            workload.config,
            enable_loop_ordering=workload.enable_loop_ordering,
            enable_layer_fusion=workload.enable_layer_fusion,
        )
    if workload.platform == "eyeriss":
        return EyerissModel(workload.config)
    if workload.platform == "stripes":
        return StripesModel(workload.config)
    if workload.platform == "gpu":
        return GpuModel(workload.config, GpuPrecision(workload.gpu_precision))
    if workload.platform == "temporal":
        return TemporalAcceleratorModel()
    raise ValueError(f"unknown platform {workload.platform!r}")


def execute_workload(workload: Workload) -> NetworkResult:
    """Run one workload end to end through the monolithic ``evaluate`` path.

    This is the uncached reference implementation the staged pipeline is
    checked against: for every workload, the staged result must be
    byte-identical to this one.
    """
    network = load_network(workload)
    model = build_model(workload)
    return model.evaluate(network, batch_size=workload.batch_size)


# ---------------------------------------------------------------------- #
# Stage 1: compile
# ---------------------------------------------------------------------- #
def _require_bitfusion(workload: Workload) -> None:
    if workload.platform != "bitfusion":
        raise ValueError(
            f"only bitfusion workloads compile to Fusion-ISA programs, got {workload.platform!r}"
        )


def tiling_cache_key(
    gemm: GemmWorkload, orders: tuple[LoopOrder, ...], config: BitFusionConfig
) -> str:
    """Cache key of one tiling search: GEMM content + orders + buffer geometry.

    Hashes exactly the search's inputs — the GEMM shape and operand
    bitwidths (:meth:`~repro.isa.tiling.GemmWorkload.to_dict`), the loop
    orders considered (the ``enable_loop_ordering`` flag in disguise, so an
    ablation run never shares plans with an optimized one) and the
    scratchpad capacities the search targets.  Deliberately *excluded*:
    array geometry, bandwidth, technology, frequency, batch size (already
    folded into the GEMM ``R`` dimension) and the network/layer names —
    duplicate GEMM shapes within a network, across networks and across
    sweep points that share buffer geometry all collapse onto one entry.
    """
    return fingerprint_payload(
        {
            "artifact": "tiling",
            "gemm": gemm.to_dict(),
            "orders": [order.value for order in orders],
            "buffers": {
                "ibuf_kb": config.ibuf_kb,
                "wbuf_kb": config.wbuf_kb,
                "obuf_kb": config.obuf_kb,
            },
        }
    )


def make_plan_resolver(
    config: BitFusionConfig, cache: ResultCache, stats: CacheStats
) -> PlanResolver:
    """A compiler plan resolver backed by the session's artifact cache.

    Installed into :class:`~repro.isa.compiler.FusionCompiler` by
    :func:`compile_program`: every tiling search first consults the cache
    under :func:`tiling_cache_key` and only runs (then stores its plan) on
    a genuine miss.  Hit/miss traffic lands in ``stats.tilings``.
    """

    def resolve(
        gemm: GemmWorkload,
        orders: tuple[LoopOrder, ...],
        compute: Callable[[], TilingPlan],
    ) -> TilingPlan:
        key = tiling_cache_key(gemm, orders, config)
        value, source = cache.get_with_source(key)
        if value is not None:
            stats.tilings.record_hit(source)
            return value
        stats.tilings.record_miss()
        plan = compute()
        cache.put(key, plan, {"artifact": "tiling", "gemm": gemm.to_dict()})
        return plan

    return resolve


def compile_program(
    workload: Workload,
    cache: ResultCache | None = None,
    stats: CacheStats | None = None,
) -> Program:
    """Compile a Bit Fusion workload to its Fusion-ISA program (stage 1).

    With a ``cache`` (and ``stats``), the compiler's tiling searches are
    memoized through the cache's ``tiling`` level — duplicate GEMM shapes
    skip the search entirely, and plans persist to disk alongside the other
    artifacts.  Memoized and unmemoized compilations emit byte-identical
    programs (plans serialize losslessly).
    """
    _require_bitfusion(workload)
    resolver: PlanResolver | None = None
    if cache is not None:
        resolver = make_plan_resolver(workload.config, cache, stats or CacheStats())
    compiler = FusionCompiler(
        workload.config,
        enable_loop_ordering=workload.enable_loop_ordering,
        enable_layer_fusion=workload.enable_layer_fusion,
        plan_resolver=resolver,
    )
    return compiler.compile(load_network(workload), batch_size=workload.batch_size)


def compile_workload(workload: Workload) -> ProgramStats:
    """Compile a Bit Fusion workload and distill its program statistics."""
    return ProgramStats.from_program(compile_program(workload))


def program_content_key(
    network_fingerprint: str,
    batch_size: int,
    config: BitFusionConfig,
    enable_loop_ordering: bool = True,
    enable_layer_fusion: bool = True,
) -> str:
    """Structure-only compile-stage key from its raw inputs.

    The payload is exactly :func:`program_cache_key`'s, but built from a
    network fingerprint instead of a zoo-registered :class:`Workload` — this
    is what lets the NAS estimator (:mod:`repro.nas`) price arbitrary
    candidate networks while sharing compiled-program entries with ordinary
    session runs: a zoo network keyed here and keyed through a workload
    lands on the same entry by construction.
    """
    return fingerprint_payload(
        {
            "artifact": "program",
            "network": network_fingerprint,
            "batch_size": batch_size,
            "buffers": {
                "ibuf_kb": config.ibuf_kb,
                "wbuf_kb": config.wbuf_kb,
                "obuf_kb": config.obuf_kb,
            },
            "compiler": {
                "enable_loop_ordering": enable_loop_ordering,
                "enable_layer_fusion": enable_layer_fusion,
            },
        }
    )


def program_cache_key(workload: Workload) -> str:
    """Structure-only cache key of the compile stage.

    Hashes exactly the inputs the compiler reads — the network structure,
    the batch size (the batch folds into the GEMM ``R`` dimension and hence
    the tiling), the scratchpad capacities the tiling search targets, and
    the optimization flags.  Deliberately *excluded*: off-chip bandwidth,
    array geometry, technology node, frequency and the configuration name —
    none of them affect the emitted program, so workloads differing only in
    those share one compiled artifact.
    """
    _require_bitfusion(workload)
    return program_content_key(
        network_digest(workload),
        workload.batch_size,
        workload.config,
        workload.enable_loop_ordering,
        workload.enable_layer_fusion,
    )


def obtain_program(
    workload: Workload, cache: ResultCache, stats: CacheStats
) -> tuple[Program, str]:
    """The workload's compiled program, from cache when possible.

    Returns the program and the source it came from (``"memory"``,
    ``"disk"`` or ``"miss"`` for a fresh compilation, which is stored back
    into the cache).
    """
    key = program_cache_key(workload)
    value, source = cache.get_with_source(key)
    if value is not None:
        stats.programs.record_hit(source)
        return value, source
    stats.programs.record_miss()
    started = time.perf_counter()
    program = compile_program(workload, cache, stats)
    stats.compile_seconds += time.perf_counter() - started
    cache.put(key, program, {**workload.describe(), "artifact": "program"})
    return program, "miss"


# ---------------------------------------------------------------------- #
# Stage 2: simulate-blocks
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _build_simulator(
    simulator_cls: type[BitFusionSimulator], config: BitFusionConfig
) -> BitFusionSimulator:
    return simulator_cls(config)


def simulator_for(config: BitFusionConfig) -> BitFusionSimulator:
    """The (memoized) simulator instance for one configuration.

    Building a :class:`~repro.sim.executor.BitFusionSimulator` re-derives
    the per-component energy models (SRAM bank sizing, technology scaling)
    every time; memoizing per configuration means pool workers — and the
    serial path — stop rebuilding identical model state once per workload.
    ``BitFusionConfig`` is frozen/hashable and the simulator is stateless,
    so sharing instances is safe.  The module-global class is resolved at
    call time (and is part of the memo key), so tests that monkeypatch
    ``engine.BitFusionSimulator`` get their own entries.

    Fault-injection seam: when a test installed a simulator wrapper
    (:mod:`repro.session.testing`), the memoized instance is passed through
    it — the wrapper's proxy (not the instance) is what callers receive, so
    chaos tests can fail or delay individual block simulations without
    touching the memo.
    """
    simulator = _build_simulator(BitFusionSimulator, config)
    wrapper = testing.simulator_wrapper()
    if wrapper is not None:
        return wrapper(config, simulator)
    return simulator


@lru_cache(maxsize=None)
def _sim_config_payload(config: BitFusionConfig) -> dict[str, Any]:
    """The configuration parameters that affect one block's simulation.

    Everything :meth:`~repro.sim.executor.BitFusionSimulator.run_block`
    reads: array geometry (cycle model and buffer-traffic counts),
    scratchpad capacities and access width (SRAM energy), off-chip bandwidth
    (transfer cycles) and technology node (energy scaling).  Deliberately
    excluded: frequency and the configuration name (composition metadata
    only) and the batch size (already folded into the block's tiling).

    Memoized per configuration (``BitFusionConfig`` is frozen, hence
    hashable): the payload rides every layer cache key, once per block per
    lookup.  Callers never mutate the returned dict — it feeds straight
    into :func:`~repro.fingerprint.fingerprint_payload`.
    """
    return {
        "rows": config.rows,
        "columns": config.columns,
        "ibuf_kb": config.ibuf_kb,
        "wbuf_kb": config.wbuf_kb,
        "obuf_kb": config.obuf_kb,
        "dram_bandwidth_bits_per_cycle": config.dram_bandwidth_bits_per_cycle,
        "buffer_access_bits": config.buffer_access_bits,
        "technology": asdict(config.technology),
    }


@lru_cache(maxsize=None)
def _layer_content_key(layer_fingerprint: str, config: BitFusionConfig) -> str:
    return fingerprint_payload(
        {
            "artifact": "layer",
            "layer": layer_fingerprint,
            "sim": _sim_config_payload(config),
        }
    )


def layer_cache_key(compiled: CompiledBlock, config: BitFusionConfig) -> str:
    """Content-addressed cache key of one simulated block.

    Hashes the block's *name-free* content (:meth:`~repro.isa.program.
    CompiledBlock.layer_fingerprint`) plus the simulation-affecting
    configuration: identical (layer shape, bitwidths, tiling, instruction
    image) pairs collapse onto one key no matter which network — or which
    layer name within a network — produced them, which dedupes simulations
    across the model-family sweeps the paper's benchmark suite is full of.
    Memoized: the NAS estimator's warm path (:mod:`repro.nas`) resolves
    every block of every candidate through this key, and the layer
    fingerprint is itself memoized on the block instance.
    """
    return _layer_content_key(compiled.layer_fingerprint(), config)


def lookup_block(
    compiled: CompiledBlock, config: BitFusionConfig, cache: ResultCache
) -> tuple[LayerResult | None, str]:
    """Resolve one block's simulated result through its layer key.

    Returns ``(value, source)`` where ``source`` is ``"memory"``/``"disk"``
    or ``"miss"`` (``value`` is then ``None``).  A hit is renamed to the
    requesting block.  No statistics are recorded here; callers account for
    hits and misses in their own stage counters.
    """
    value, source = cache.get_with_source(layer_cache_key(compiled, config))
    if value is None:
        return None, source
    return value.renamed(compiled.name), source


def prefetch_block_artifacts(
    program: Program, config: BitFusionConfig, cache: ResultCache
) -> None:
    """Bulk-stage a program's block records: one index pass.

    Resolves every block's layer key through :meth:`ResultCache.prefetch`
    — exactly the records the per-block :func:`lookup_block` loop that
    follows would read one at a time.  A no-op on json and memory-only
    caches, where there is no bulk read to exploit; lookup semantics and
    statistics are identical either way.
    """
    cache.prefetch(layer_cache_key(compiled, config) for compiled in program)


def store_layer_record(
    cache: ResultCache,
    config: BitFusionConfig,
    compiled: CompiledBlock,
    layer: LayerResult,
    description: dict[str, Any] | None = None,
) -> None:
    """Store one freshly simulated block under its layer key.

    The name is normalized away, so the stored payload is independent of
    which network asked first and serves any block with identical layer
    content.  Takes the raw configuration rather than a :class:`Workload`
    so callers pricing arbitrary networks (the NAS estimator) insert
    records the same way session runs do.
    """
    cache.put(
        layer_cache_key(compiled, config),
        layer.renamed(""),
        {**(description or {}), "artifact": "layer", "block": compiled.name},
    )


def store_block_result(
    cache: ResultCache, workload: Workload, compiled: CompiledBlock, layer: LayerResult
) -> None:
    """Store one freshly simulated workload block (:func:`store_layer_record`)."""
    store_layer_record(cache, workload.config, compiled, layer, workload.describe())


# ---------------------------------------------------------------------- #
# Stage 3: compose, and the staged drivers
# ---------------------------------------------------------------------- #
def _compose(workload: Workload, program: Program, layers: list[LayerResult]) -> NetworkResult:
    config: BitFusionConfig = workload.config
    return compose_network_result(
        network_name=program.network_name,
        platform=config.name,
        batch_size=workload.batch_size,
        frequency_mhz=config.frequency_mhz,
        layers=layers,
    )


def try_compose_from_cache(
    workload: Workload, cache: ResultCache, stats: CacheStats
) -> tuple[NetworkResult | None, bool]:
    """Compose a workload's result purely from cached artifacts, if possible.

    Returns ``(result, any_artifact_came_from_disk)``; ``(None, False)``
    when the program or any block result is missing (in which case no stage
    counters are touched — the execution path will look the artifacts up
    again and account for them).
    """
    if workload.platform != "bitfusion":
        return None, False
    program, program_source = cache.get_with_source(program_cache_key(workload))
    if program is None:
        return None, False
    prefetch_block_artifacts(program, workload.config, cache)
    found: list[tuple[LayerResult, str]] = []
    for compiled in program:
        value, source = lookup_block(compiled, workload.config, cache)
        if value is None:
            return None, False
        found.append((value, source))
    stats.programs.record_hit(program_source)
    from_disk = program_source == "disk"
    for _, source in found:
        stats.blocks.record_hit(source)
        from_disk = from_disk or source == "disk"
    return _compose(workload, program, [layer for layer, _ in found]), from_disk


class CacheAudit(NamedTuple):
    """One workload's read-only cache diff (:func:`audit_workload_cache`)."""

    state: str
    missing_blocks: int
    total_blocks: int
    #: Of the tiling searches compiling this workload would request, how
    #: many the tiling memo already holds.  Only non-zero for ``"cold"``
    #: Bit Fusion workloads — a cached program never searches again.
    tilings_cached: int
    tilings_total: int


def _audit_tilings(workload: Workload, cache: ResultCache) -> tuple[int, int]:
    """How many of a cold workload's tiling searches the memo already holds.

    The searches a compilation *would* run are derivable without searching
    (:meth:`~repro.isa.compiler.FusionCompiler.tiling_requests` — fusion
    grouping plus GEMM-shape lowering, no instruction emission), so a cold
    workload whose GEMM shapes another sweep point already planned shows up
    in a ``--dry-run`` as mostly-memoized compile work rather than as fully
    cold.
    """
    compiler = FusionCompiler(
        workload.config,
        enable_loop_ordering=workload.enable_loop_ordering,
        enable_layer_fusion=workload.enable_layer_fusion,
    )
    requests = compiler.tiling_requests(
        load_network(workload), batch_size=workload.batch_size
    )
    cached = sum(
        1
        for gemm, orders in requests
        if tiling_cache_key(gemm, orders, workload.config) in cache
    )
    return cached, len(requests)


def audit_workload_cache(workload: Workload, cache: ResultCache) -> CacheAudit:
    """How much of one workload's work the cache already holds (read-only).

    Returns a :class:`CacheAudit` whose ``state`` is

    * ``"cached"`` — the workload would execute without any fresh work: a
      whole result is stored (baselines), or every artifact needed to
      compose one is (Bit Fusion: program plus all block results);
    * ``"partial"`` — the compiled program is cached but
      ``missing_blocks`` of its ``total_blocks`` blocks would simulate;
    * ``"cold"`` — no program artifact is cached (``total_blocks`` is 0
      because without the program the block count is unknown without
      compiling — which an audit must never do).  A cold Bit Fusion
      workload still reports ``tilings_cached`` of ``tilings_total``: the
      tiling searches its compilation would request (derivable from the
      network structure alone, no search run) that the persistent tiling
      memo would serve — so a grid sharing GEMM shapes with earlier runs
      is never misreported as entirely unstarted.

    No statistics are recorded and nothing executes.  Only the program
    payload is read (its blocks are needed to derive the layer keys);
    layer and tiling records are probed for *existence* without
    deserializing or memory-promoting them, so auditing a planned
    grid against a large cache directory stays cheap — ``python -m
    repro.harness sweep --dry-run`` uses this to diff a grid against a
    ``--cache-dir`` before committing to the run, and ``sweep --resume``
    uses it to double-check journaled completions against the artifacts.
    """
    if workload.fingerprint() in cache:
        return CacheAudit("cached", 0, 0, 0, 0)
    if workload.platform != "bitfusion":
        return CacheAudit("cold", 0, 0, 0, 0)
    program = cache.get(program_cache_key(workload))
    if program is None:
        cached, total = _audit_tilings(workload, cache)
        return CacheAudit("cold", 0, 0, cached, total)
    missing = 0
    for compiled in program:
        if layer_cache_key(compiled, workload.config) not in cache:
            missing += 1
    state = "cached" if missing == 0 else "partial"
    return CacheAudit(state, missing, len(program), 0, 0)


def execute_workload_cached(
    workload: Workload, cache: ResultCache, stats: CacheStats
) -> NetworkResult:
    """Run one workload through the staged pipeline with per-stage caching.

    Bit Fusion workloads reuse the cached program and every cached block
    result; the genuinely missing blocks simulate in one batched call
    (:func:`simulate_planned_blocks`).  Baseline platforms fall through to
    the monolithic path (their whole results are cached at the workload
    level by the session).
    """
    if workload.platform != "bitfusion":
        return execute_workload(workload)
    plan = plan_workload(workload, cache, stats, set())
    started = time.perf_counter()
    remote = simulate_planned_blocks([plan])[0]
    stats.sim_seconds += time.perf_counter() - started
    return compose_plan(plan, remote, cache, stats)


# ---------------------------------------------------------------------- #
# The cache-aware parallel worker protocol
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QuarantineRecord:
    """One workload set aside after failing its execution *and* its retry."""

    fingerprint: str
    label: str
    error: str


class WorkloadExecutionError(RuntimeError):
    """One or more workloads of a batch failed their execution and retry.

    Raised by :meth:`EvaluationSession.run_many
    <repro.session.session.EvaluationSession.run_many>` *after* every
    surviving result and artifact has been stored — a failed workload is
    retried exactly once and, if the retry fails too, quarantined; the rest
    of the batch always completes, so a single bad workload costs the batch
    nothing but its own point.  :attr:`failures` carries one message per
    quarantined workload, each naming the workload it came from;
    :attr:`quarantined` carries the same failures as structured
    :class:`QuarantineRecord`\\ s (fingerprint, label, final error).
    """

    def __init__(
        self,
        failures: list[str],
        quarantined: tuple[QuarantineRecord, ...] = (),
    ) -> None:
        self.failures = tuple(failures)
        self.quarantined = quarantined
        details = "; ".join(failures)
        super().__init__(
            f"{len(failures)} workload(s) failed during parallel execution: {details}"
        )


def describe_workload_error(workload: Workload, error: BaseException) -> str:
    """The labelled one-line error message a failed workload reports.

    One format everywhere — worker replies, serial-path failures, retry
    failures and quarantine records all describe a failure the same way, so
    footer greps and :class:`WorkloadExecutionError` assertions never depend
    on which execution path hit the fault.
    """
    return f"workload {workload.label()}: {type(error).__name__}: {error}"


@dataclass(frozen=True)
class WorkUnit:
    """What the main process ships a pool worker: just the missing blocks.

    ``program_payload`` is a *slice* of the centrally compiled (or
    cache-restored) program — ``Program.to_dict`` shape, but its ``blocks``
    list holds only the blocks at ``simulate_indices`` (in that order), so
    a wide, mostly-warm sweep never pickles the blocks the cache already
    resolved.  Workers rebuild the slice with ``Program.from_dict`` and
    simulate every shipped block; block simulation is independent, so a
    sliced program simulates exactly like the full artifact would.
    ``simulate_indices`` keeps the blocks' positions in the *full* program —
    the reply is keyed by them so the main process can compose.  Baseline
    workloads ship with ``program_payload=None`` and execute whole.

    The NAS estimator ships *anonymous* units (``workload=None``): a
    candidate plan has no :class:`Workload`, so the simulation
    configuration rides along explicitly in ``config`` and
    :attr:`sim_config` resolves whichever of the two is present.
    """

    workload: Workload | None
    program_payload: dict[str, Any] | None
    simulate_indices: tuple[int, ...] = ()
    config: Any = None

    @property
    def sim_config(self) -> Any:
        """The simulation configuration, from the workload or ``config``."""
        return self.workload.config if self.workload is not None else self.config


@dataclass(frozen=True)
class WorkResult:
    """A worker's reply: the missing block results, or a whole result.

    Exactly one of three shapes: ``layers`` holds ``(index, LayerResult)``
    pairs for a Bit Fusion unit, ``result`` a whole ``NetworkResult`` for a
    baseline unit, and ``error`` a message (carrying the workload's label)
    when execution raised — workers never let an exception escape into
    ``ProcessPoolExecutor.map``, which would abort the entire batch.

    ``compile_seconds`` and ``sim_seconds`` carry the worker-side wall time
    of program reconstruction and block simulation so the session can fold
    remote work into its per-stage timing statistics.  ``worker_id`` names
    who did the work (a pool worker's pid, a remote worker's address) for
    the footer's per-worker unit counts.
    """

    layers: tuple[tuple[int, LayerResult], ...] = ()
    result: NetworkResult | None = None
    error: str | None = None
    compile_seconds: float = 0.0
    sim_seconds: float = 0.0
    worker_id: str = ""


def execute_work_unit(unit: WorkUnit) -> WorkResult:
    """Run one work unit in a pool worker process.

    Failures are converted into :attr:`WorkResult.error` strings instead of
    raised, so one bad workload cannot poison the pool batch.

    Fault-injection seam: a work-unit wrapper installed through
    :mod:`repro.session.testing` intercepts the call — it can return a
    fabricated failure reply, delay, or raise to model a crashed worker.
    The hook lives in the installing process only; real pool workers never
    see it, so tests that exercise it run inline (``jobs=1`` or an in-process
    pool).
    """
    wrapper = testing.work_unit_wrapper()
    if wrapper is not None:
        return wrapper(unit, _execute_work_unit)
    return _execute_work_unit(unit)


def _execute_work_unit(unit: WorkUnit) -> WorkResult:
    worker_id = f"pid-{os.getpid()}"
    try:
        if unit.program_payload is None:
            if unit.workload is None:
                raise ValueError("anonymous work unit carries no program payload")
            started = time.perf_counter()
            result = execute_workload(unit.workload)
            return WorkResult(
                result=result,
                sim_seconds=time.perf_counter() - started,
                worker_id=worker_id,
            )
        # The payload is sliced to exactly the missing blocks; simulate all
        # of them and map the results back to their full-program indices.
        started = time.perf_counter()
        program = Program.from_dict(unit.program_payload)
        compile_seconds = time.perf_counter() - started
        simulator = simulator_for(unit.sim_config)
        started = time.perf_counter()
        layers = simulator.run_selected_blocks(program, range(len(program)))
        sim_seconds = time.perf_counter() - started
        return WorkResult(
            layers=tuple(zip(unit.simulate_indices, layers)),
            compile_seconds=compile_seconds,
            sim_seconds=sim_seconds,
            worker_id=worker_id,
        )
    except Exception as error:  # noqa: BLE001 — must not escape into pool.map
        if unit.workload is None:
            message = f"candidate work unit: {type(error).__name__}: {error}"
        else:
            message = describe_workload_error(unit.workload, error)
        return WorkResult(error=message, worker_id=worker_id)


class PlanLike(Protocol):
    """What :func:`simulate_planned_blocks` needs from a plan.

    Satisfied by :class:`WorkPlan` and by the NAS estimator's candidate
    plans (:mod:`repro.nas.estimator`), which carry no :class:`Workload`.
    """

    @property
    def program(self) -> Program | None: ...

    @property
    def simulate_indices(self) -> tuple[int, ...]: ...

    @property
    def config(self) -> BitFusionConfig: ...


@dataclass(frozen=True)
class WorkPlan:
    """The main process's cache-resolution plan for one pending workload.

    ``cached_layers`` maps block index → result resolved at plan time;
    ``simulate_indices`` are the blocks a worker must simulate;
    ``deferred_indices`` are blocks whose key an earlier workload of the
    same batch already claimed — their results are read from the cache at
    compose time, after the claiming unit has been stored.
    """

    workload: Workload
    program: Program | None
    cached_layers: dict[int, LayerResult]
    simulate_indices: tuple[int, ...]
    deferred_indices: tuple[int, ...]

    @property
    def config(self) -> BitFusionConfig:
        """The simulation configuration — the duck-typed plan interface.

        :func:`simulate_planned_blocks` reads only ``program``,
        ``simulate_indices`` and ``config`` from a plan, so the NAS
        estimator's workload-free candidate plans batch through the same
        executor.
        """
        return self.workload.config

    @property
    def needs_worker(self) -> bool:
        return self.program is None or bool(self.simulate_indices)

    def work_unit(self) -> WorkUnit:
        """The unit to ship: the program sliced to only the missing blocks.

        Slicing keeps pickle traffic proportional to the genuinely missing
        work instead of the whole program — on a wide, mostly-warm parallel
        sweep the difference is most of the payload.
        """
        if self.program is None:
            return WorkUnit(workload=self.workload, program_payload=None)
        blocks = self.program.blocks
        payload = {
            "network_name": self.program.network_name,
            "blocks": [blocks[index].to_dict() for index in self.simulate_indices],
        }
        return WorkUnit(
            workload=self.workload,
            program_payload=payload,
            simulate_indices=self.simulate_indices,
        )


def plan_workload(
    workload: Workload, cache: ResultCache, stats: CacheStats, claimed: set[str]
) -> WorkPlan:
    """Plan one pending workload: compile centrally, resolve warm blocks.

    Compilation goes through the program cache (structure-only key), so a
    batch sharing a network compiles it exactly once in the main process.
    Every block is then resolved through its layer key; only genuinely
    missing blocks are scheduled for remote simulation.  ``claimed`` tracks
    layer keys already scheduled by earlier workloads of the same batch (or
    earlier blocks of this one) — duplicates are deferred to compose time
    instead of being simulated twice, which keeps the reported stage
    statistics identical to a serial run.
    """
    if workload.platform != "bitfusion":
        return WorkPlan(
            workload=workload,
            program=None,
            cached_layers={},
            simulate_indices=(),
            deferred_indices=(),
        )
    program, _ = obtain_program(workload, cache, stats)
    prefetch_block_artifacts(program, workload.config, cache)
    cached: dict[int, LayerResult] = {}
    simulate: list[int] = []
    deferred: list[int] = []
    for index, compiled in enumerate(program):
        value, source = lookup_block(compiled, workload.config, cache)
        if value is not None:
            stats.blocks.record_hit(source)
            stats.workers.reused_blocks += 1
            cached[index] = value
            continue
        key = layer_cache_key(compiled, workload.config)
        if key in claimed:
            deferred.append(index)
            continue
        claimed.add(key)
        stats.blocks.record_miss()
        simulate.append(index)
    return WorkPlan(
        workload=workload,
        program=program,
        cached_layers=cached,
        simulate_indices=tuple(simulate),
        deferred_indices=tuple(deferred),
    )


def compose_plan(
    plan: WorkPlan,
    remote_layers: dict[int, LayerResult],
    cache: ResultCache,
    stats: CacheStats,
) -> NetworkResult:
    """Assemble a planned workload's result from cached + worker-simulated blocks.

    Fresh worker results are stored under their layer keys as they are
    composed — inside one :meth:`ResultCache.batch` scope, so a plan's
    store-backs land as a single group-committed segment append instead of
    one write per artifact.  Deferred blocks (claimed by an earlier
    workload of the batch) are read from the cache now that the claiming
    unit has been stored; if that unit failed, the block is simulated
    inline as a last resort so one failure never corrupts a neighbouring
    workload's result.
    """
    workload = plan.workload
    assert plan.program is not None
    layers: list[LayerResult] = []
    with cache.batch():
        for index, compiled in enumerate(plan.program):
            if index in plan.cached_layers:
                layers.append(plan.cached_layers[index])
                continue
            if index in remote_layers:
                layer = remote_layers[index]
                store_block_result(cache, workload, compiled, layer)
                layers.append(layer)
                continue
            value, source = lookup_block(compiled, workload.config, cache)
            if value is not None:
                stats.blocks.record_hit(source)
                stats.workers.reused_blocks += 1
                layers.append(value)
                continue
            stats.blocks.record_miss()
            layer = simulator_for(workload.config).run_block(compiled)
            store_block_result(cache, workload, compiled, layer)
            layers.append(layer)
    return _compose(workload, plan.program, layers)


def simulate_planned_blocks(
    plans: Sequence["PlanLike"],
) -> list[dict[int, LayerResult]]:
    """Simulate every planned-but-missing block across ``plans``, batched.

    The serial-path counterpart of the worker protocol: instead of shipping
    each plan to a pool worker, the missing blocks of *all* in-flight plans
    are gathered into as few :func:`~repro.sim.batched.simulate_blocks_grid`
    calls as possible.  Plans are grouped by their simulation-affecting
    configuration payload (:func:`_sim_config_payload` — so e.g. a
    frequency sweep shares one group), and groups whose ordered block
    fingerprints are identical are merged into one 2-D grid call: the same
    block batch evaluated under every distinct sim config in one numpy
    pass.  That is the bandwidth/frequency-sweep fast path — ``N`` sweep
    points of a ``B``-block network cost one ``N × B`` grid instead of
    ``N`` separate passes.

    Returns one ``{block index → LayerResult}`` dict per plan, shaped
    exactly like the ``remote_layers`` argument of :func:`compose_plan`.
    Baseline plans (``program is None``) and plans with nothing to simulate
    get an empty dict.
    """
    out: list[dict[int, LayerResult]] = [{} for _ in plans]
    # config-payload fingerprint -> (config, [(plan idx, block idx, block)])
    by_config: dict[str, tuple[BitFusionConfig, list[tuple[int, int, CompiledBlock]]]] = {}
    for plan_index, plan in enumerate(plans):
        if plan.program is None or not plan.simulate_indices:
            continue
        config = plan.config
        key = fingerprint_payload({"sim": _sim_config_payload(config)})
        _, items = by_config.setdefault(key, (config, []))
        blocks = plan.program.blocks
        items.extend(
            (plan_index, block_index, blocks[block_index])
            for block_index in plan.simulate_indices
        )
    # Merge config groups carrying identical block batches into 2-D grids.
    by_batch: dict[
        tuple[str, ...], list[tuple[BitFusionConfig, list[tuple[int, int, CompiledBlock]]]]
    ] = {}
    for config, items in by_config.values():
        signature = tuple(block.fingerprint() for _, _, block in items)
        by_batch.setdefault(signature, []).append((config, items))
    for groups in by_batch.values():
        simulators = [simulator_for(config) for config, _ in groups]
        # Identical fingerprints mean identical block content, so the first
        # group's blocks stand in for every config row of the grid.
        blocks = [block for _, _, block in groups[0][1]]
        rows = simulate_blocks_grid(simulators, blocks)
        for (_, items), row in zip(groups, rows):
            for (plan_index, block_index, _), layer in zip(items, row):
                out[plan_index][block_index] = layer
    return out
