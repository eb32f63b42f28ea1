"""Unified evaluation session: cached, parallel workload engine.

This subsystem is the single entry point every experiment and baseline
comparison routes through:

* :class:`~repro.session.workload.Workload` — one (platform, network,
  batch, compiler-flags) evaluation point with a stable content
  fingerprint.
* :mod:`~repro.session.engine` — the staged compile → simulate-blocks →
  compose pipeline, with a cacheable artifact at every seam (compiled
  programs keyed structure-only; per-block results keyed by name-free
  layer content + simulation-affecting config).
* :class:`~repro.session.cache.ResultCache` — fingerprint-keyed artifact
  store, in-memory with an optional manifest-indexed, LRU-bounded on-disk
  layer (segmented pack-file store by default —
  :class:`~repro.session.store.SegmentedStore`, group-committed appends,
  eviction by segment compaction — with the legacy JSON-per-entry layout
  served as a read-compatible fallback).
* :class:`~repro.session.session.EvaluationSession` — ``run`` /
  ``run_many`` (process-pool parallel, longest-job-first) / declarative
  ``sweep`` execution with per-stage cache-hit accounting.

Cache keys and invalidation
---------------------------
Four fingerprint families key the cache, each hashing exactly the inputs
that determine its artifact — so invalidation is automatic: change an
input and the key changes, leaving the stale entry unreferenced (and
eventually LRU-evicted from disk).

* **Workload key** (:meth:`Workload.fingerprint
  <repro.session.workload.Workload.fingerprint>`): platform, resolved
  network *structure*, batch size, variant/bitwidth transforms, the full
  platform configuration and the compiler flags.  Anything that could
  change a result changes this key.
* **Program key** (:func:`~repro.session.engine.program_cache_key`):
  *structure-only* — network structure, batch size, scratchpad capacities
  and compiler flags, the only inputs the compiler reads.  Bandwidth,
  array geometry, frequency and technology node are deliberately excluded,
  so sweeps along those axes reuse one compiled program.
* **Layer key** (:func:`~repro.session.engine.layer_cache_key`), the one
  key of a simulated block: the block's *name-free* content fingerprint
  plus the simulation-affecting configuration (array geometry, buffer
  capacities and access width, bandwidth, technology node).  Frequency and
  the configuration name are excluded — they only affect composition
  metadata.  Being content-addressed, identical (layer, tiling) pairs
  dedupe across different networks in model-family sweeps; a hit is
  renamed to the requesting block.
* **Tiling key** (:func:`~repro.session.engine.tiling_cache_key`): one
  tiling search's inputs — GEMM shape and bitwidths, the loop orders
  considered, and the scratchpad capacities.  The compiler consults this
  memo (via :func:`~repro.session.engine.make_plan_resolver`) before every
  search, so duplicate GEMM shapes — within a network, across networks,
  and across sweep points that share buffer geometry — plan once.

Parallel execution (``jobs > 1``) is warm-artifact aware: the session
compiles centrally through the program cache, resolves warm blocks in the
main process, ships workers :class:`~repro.session.engine.WorkUnit`\\ s
holding only the missing block indices, and composes the returned
:class:`~repro.session.engine.WorkResult`\\ s — a partially-warm parallel
run recompiles and re-simulates nothing the cache already holds, and a
failed workload surfaces as a
:class:`~repro.session.engine.WorkloadExecutionError` without costing the
rest of the batch.

See ``python -m repro.harness --help`` for the report runner built on top
(``--jobs``, ``--cache-dir`` and ``--cache-max-mb`` map directly onto a
session), ``python -m repro.harness sweep`` / :mod:`repro.dse` for
declarative design-space sweeps over the same cache, and
``docs/architecture.md`` for the full pipeline walkthrough.
"""

from repro.session.backends import (
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    make_backend,
)
from repro.session.cache import (
    CacheStats,
    ProgramStats,
    ResultCache,
    StageStats,
    WorkerStats,
)
from repro.session.checkpoint import (
    CheckpointRecord,
    NAS_CHECKPOINT_NAME,
    SWEEP_CHECKPOINT_NAME,
    SweepCheckpoint,
)
from repro.session.engine import (
    CacheAudit,
    QuarantineRecord,
    WorkResult,
    WorkUnit,
    WorkloadExecutionError,
    audit_workload_cache,
    describe_workload_error,
    build_model,
    compile_program,
    compile_workload,
    execute_work_unit,
    execute_workload,
    execute_workload_cached,
    layer_cache_key,
    make_plan_resolver,
    program_cache_key,
    tiling_cache_key,
)
from repro.session.store import SegmentedStore, migrate_json_dir
from repro.session.session import (
    EvaluationSession,
    SweepPoint,
    SweepResult,
    get_default_session,
    resolve_session,
    set_default_session,
    use_session,
)
from repro.session.workload import (
    PLATFORMS,
    Workload,
    estimated_cost,
    fixed_bitwidth_network,
    load_network,
    network_digest,
)

__all__ = [
    "CacheAudit",
    "CacheStats",
    "CheckpointRecord",
    "EvaluationSession",
    "ExecutionBackend",
    "InlineBackend",
    "NAS_CHECKPOINT_NAME",
    "PLATFORMS",
    "ProcessPoolBackend",
    "ProgramStats",
    "QuarantineRecord",
    "ResultCache",
    "SWEEP_CHECKPOINT_NAME",
    "SegmentedStore",
    "StageStats",
    "SweepCheckpoint",
    "SweepPoint",
    "SweepResult",
    "WorkResult",
    "WorkUnit",
    "WorkerStats",
    "Workload",
    "WorkloadExecutionError",
    "audit_workload_cache",
    "build_model",
    "compile_program",
    "compile_workload",
    "describe_workload_error",
    "estimated_cost",
    "execute_work_unit",
    "execute_workload",
    "execute_workload_cached",
    "fixed_bitwidth_network",
    "get_default_session",
    "layer_cache_key",
    "load_network",
    "make_backend",
    "make_plan_resolver",
    "migrate_json_dir",
    "network_digest",
    "program_cache_key",
    "tiling_cache_key",
    "resolve_session",
    "set_default_session",
    "use_session",
]
