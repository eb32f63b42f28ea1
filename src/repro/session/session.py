"""EvaluationSession: the shared, cached, parallel workload engine.

One session backs one report (or one interactive study).  Every experiment
routes its simulations through :meth:`EvaluationSession.run` /
:meth:`~EvaluationSession.run_many`, so a full-report invocation simulates
each unique (platform config, network, batch, compiler flags) point exactly
once regardless of how many figures need it, and batches of independent
workloads can fan out over a process pool.

:meth:`EvaluationSession.sweep` is the declarative face of the engine:
bandwidth, batch-size and benchmark scans (Figures 15/16 and any new
scenario scan) are one call each instead of a hand-written experiment loop.

A module-level *default session* lets experiment modules be called directly
(as the pytest-benchmark harness does) while still sharing a cache; the
report runner installs its own session for the duration of a report via
:func:`use_session`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.config import BitFusionConfig
from repro.session import testing
from repro.session.backends import (
    ExecutionBackend,
    Failure,
    ResultCallback,
    failure_message,
    make_backend,
    result_of,
)
from repro.session.cache import CacheStats, ProgramStats, ResultCache
from repro.session.checkpoint import SweepCheckpoint
from repro.session.engine import (
    QuarantineRecord,
    WorkResult,
    WorkloadExecutionError,
    execute_work_unit,
    obtain_program,
    plan_workload,
    program_cache_key,
    try_compose_from_cache,
)
from repro.session.workload import Workload, estimated_cost
from repro.sim.results import NetworkResult

__all__ = [
    "EvaluationSession",
    "SweepPoint",
    "SweepResult",
    "get_default_session",
    "set_default_session",
    "resolve_session",
    "use_session",
]

@dataclass(frozen=True)
class SweepPoint:
    """One (network, batch, bandwidth) point of a sweep and its result."""

    network: str
    batch_size: int
    bandwidth: int | None
    workload: Workload
    result: NetworkResult


class SweepResult:
    """Results of a declarative sweep, addressable by axis values."""

    def __init__(self, points: Iterable[SweepPoint]) -> None:
        self.points = tuple(points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def select(
        self,
        network: str | None = None,
        batch_size: int | None = None,
        bandwidth: int | None = None,
    ) -> list[SweepPoint]:
        """All points matching the given axis values (None matches any)."""
        return [
            point
            for point in self.points
            if (network is None or point.network == network)
            and (batch_size is None or point.batch_size == batch_size)
            and (bandwidth is None or point.bandwidth == bandwidth)
        ]

    def result(
        self,
        network: str | None = None,
        batch_size: int | None = None,
        bandwidth: int | None = None,
    ) -> NetworkResult:
        """The unique result at the given axis values; KeyError otherwise."""
        matches = self.select(network=network, batch_size=batch_size, bandwidth=bandwidth)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one sweep point for network={network!r} "
                f"batch_size={batch_size!r} bandwidth={bandwidth!r}, found {len(matches)}"
            )
        return matches[0].result

    def latency(self, **axes: object) -> float:
        """Per-inference latency (seconds) of the unique matching point."""
        return self.result(**axes).latency_per_inference_s  # type: ignore[arg-type]


class EvaluationSession:
    """Cached, optionally parallel executor of evaluation workloads.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`run_many` / :meth:`sweep`.  1 (the
        default) executes inline; higher values fan uncached workloads out
        over a ``ProcessPoolExecutor``.  Results are ordered by the input
        workload order either way, so parallel runs are byte-identical to
        serial ones.  Shorthand for ``backend=ProcessPoolBackend(jobs)``.
    backend:
        Explicit :class:`~repro.session.backends.ExecutionBackend` owning
        where pending work executes (inline, process pool, or remote TCP
        workers).  Mutually exclusive with a non-default ``jobs``; the
        session adopts the backend's job count when it has one.  Every
        backend runs the one execute loop of
        :meth:`~repro.session.backends.ExecutionBackend.execute` (plan,
        compose, commit in schedule order) and the session keeps cache
        resolution, retry-once/quarantine and the checkpoint journal, so
        every backend shares the same fault-tolerance and byte-identity
        contracts.
    cache_dir:
        Optional directory for the persistent artifact store (a segmented
        pack-file store — see :mod:`repro.session.store`; legacy
        JSON-per-entry directories must be converted with ``cache
        migrate`` to be read); ``None`` keeps the cache in memory only.
    cache:
        Pre-built :class:`ResultCache` to share between sessions (mutually
        exclusive with ``cache_dir``).
    max_cache_bytes:
        Optional size budget for the on-disk store (least-recently-used
        entries are evicted past it); only meaningful with ``cache_dir``.
    checkpoint:
        Optional :class:`~repro.session.checkpoint.SweepCheckpoint` journal.
        When given, every scheduled workload is journaled as planned before
        execution and as completed the moment its result is stored — and
        the serial path commits **per workload** (plan → simulate → compose
        → store → journal, in schedule order) instead of batching the whole
        schedule's simulations, so a run killed at an arbitrary point loses
        at most its one in-flight workload.  The trade is deliberate:
        checkpointed runs give up cross-point grid merging
        (:func:`~repro.session.engine.simulate_planned_blocks` over the
        whole batch) in exchange for kill-anywhere resumability; results
        are bit-identical either way (the batched executor is bit-exact
        against the scalar path by contract).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        cache: ResultCache | None = None,
        max_cache_bytes: int | None = None,
        checkpoint: SweepCheckpoint | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend is not None and jobs != 1:
            raise ValueError("pass either backend or jobs, not both")
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        if cache is not None and max_cache_bytes is not None:
            raise ValueError("max_cache_bytes only applies when the session owns its cache")
        self.backend = backend if backend is not None else make_backend(jobs=jobs)
        self.jobs = getattr(self.backend, "jobs", jobs)
        self.cache = cache if cache is not None else ResultCache(cache_dir, max_cache_bytes)
        self.stats = CacheStats()
        self.checkpoint = checkpoint

    def close(self) -> None:
        """Shut down the execution backend and flush cache bookkeeping.

        Idempotent; cached entries themselves are untouched (only batched
        manifest recency updates are written out).
        """
        self.backend.close()
        if self.checkpoint is not None:
            self.checkpoint.close()
        self.cache.close()

    def __enter__(self) -> "EvaluationSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Core execution
    # ------------------------------------------------------------------ #
    def run(self, workload: Workload) -> NetworkResult:
        """Run one workload, serving it from the cache when possible."""
        return self.run_many([workload])[0]

    def run_many(
        self,
        workloads: Iterable[Workload],
        on_result: ResultCallback | None = None,
    ) -> list[NetworkResult]:
        """Run a batch of workloads, in input order.

        The batch is deduplicated by fingerprint and resolved against the
        cache in three steps: whole results from memory, Bit Fusion results
        composed from cached program/block/layer artifacts, and only then
        fresh execution.  In-batch duplicates of a still-pending workload
        count as deduplication wins (``stats.deduped``), not cache hits —
        no cached value existed when they were looked up.  Genuinely new
        workloads are scheduled longest-job-first (estimated by network MAC
        count x batch size, ties broken by workload fingerprint so the
        schedule never depends on input order) so a process pool's tail is
        as short as possible, and results are returned in input order either
        way — parallel runs are byte-identical to serial ones.  Each unique
        workload is simulated at most once per session lifetime.

        With ``jobs > 1`` the parallel path is warm-artifact aware: the main
        process compiles centrally through the program cache and ships each
        worker only the blocks whose results are genuinely missing (see
        :mod:`repro.session.engine`).

        **Fault tolerance** (serial and parallel alike): a workload whose
        execution fails — a worker error reply, a crashed worker process, a
        raising simulation or composition — is retried exactly once, inline
        in the coordinating process (immune to pool state).  If the retry
        fails too, the workload is quarantined: journaled (when a checkpoint
        is attached), counted in ``stats.retries``, and reported through a
        :class:`~repro.session.engine.WorkloadExecutionError` carrying the
        quarantine list — raised only *after* every surviving result and
        artifact has been stored, so one bad workload costs the batch
        nothing but its own point.

        ``on_result`` (when given) fires once per unique workload the moment
        its result is known — at cache-lookup time for warm workloads, at
        commit time for fresh ones — so callers can stream incremental
        reductions (the sweep runner's Pareto archive) while the batch runs.
        With a session :attr:`checkpoint`, every scheduled workload is
        journaled as planned up front and as completed at commit.
        """
        ordered = list(workloads)
        keys = [workload.fingerprint() for workload in ordered]
        resolved: dict[str, NetworkResult] = {}
        pending: dict[str, Workload] = {}
        for key, workload in zip(keys, ordered):
            if key in pending:
                # Duplicate of work that is queued but not done: a dedup
                # win, not a cache hit (nothing cached served it).
                self.stats.deduped += 1
                continue
            if key in resolved:
                self.stats.hits += 1
                continue
            value, source = self.cache.get_with_source(key)
            if value is not None:
                self.stats.hits += 1
                if source == "disk":
                    self.stats.disk_hits += 1
                resolved[key] = value
                self._note_resolved(key, workload, value, on_result)
                continue
            composed, from_disk = try_compose_from_cache(workload, self.cache, self.stats)
            if composed is not None:
                self.stats.hits += 1
                if from_disk:
                    self.stats.disk_hits += 1
                # Memoize the composition (memory-only: its per-block
                # artifacts already live on disk) so repeat lookups skip
                # the artifact walk.
                self.cache.put(key, composed, workload.describe(), persist=False)
                resolved[key] = composed
                self._note_resolved(key, workload, composed, on_result)
                continue
            self.stats.misses += 1
            pending[key] = workload
        if pending:
            # Longest job first: the costliest simulations start earliest so
            # pool workers never idle behind one giant network queued last.
            # Equal-cost workloads tie-break on their (stable, content-based)
            # fingerprint rather than input order, so the schedule is
            # identical no matter how the calling experiments ordered their
            # workloads — parallel sweep execution stays reproducible.
            items = sorted(
                pending.items(),
                key=lambda item: (-estimated_cost(item[1]), item[0]),
            )
            if self.checkpoint is not None:
                for key, workload in items:
                    self.checkpoint.record_planned(key, workload.label())
            try:
                executed, failures = self.backend.execute(self, items, on_result)
                resolved.update(executed)
                if failures:
                    self._finish_failures(failures, resolved, on_result)
            finally:
                # One manifest (and one segment-index) write
                # per executed batch, not one per artifact — and surviving
                # artifacts are flushed even when a batch raises for a
                # quarantined workload.
                self.cache.flush()
        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------ #
    # Retry-once / quarantine policy
    # ------------------------------------------------------------------ #
    def _finish_failures(
        self,
        failures: list[Failure],
        resolved: dict[str, NetworkResult],
        on_result: ResultCallback | None,
    ) -> None:
        """Retry every failed workload once; quarantine what fails again.

        Runs after the batch's surviving workloads have all been committed,
        so a retried workload resolves every artifact a successful neighbour
        (or in-batch claimant) already stored.  Retries execute inline in
        the coordinating process through :func:`~repro.session.engine.
        execute_work_unit` — a fresh execution immune to worker-pool state,
        and still routed through the fault-injection seam so chaos tests
        can exercise both outcomes.  If any workload fails its retry, a
        :class:`~repro.session.engine.WorkloadExecutionError` carrying the
        quarantine list is raised at the very end.
        """
        messages: list[str] = []
        quarantined: list[QuarantineRecord] = []
        for failure in failures:
            if self.checkpoint is not None:
                self.checkpoint.record_failed(
                    failure.key, failure.workload.label(), failure.message, attempt=1
                )
            self.stats.retries += 1
            try:
                result = self._retry_workload(failure.workload)
            except Exception as error:
                message = failure_message(failure.workload, error)
                messages.append(message)
                quarantined.append(
                    QuarantineRecord(
                        fingerprint=failure.key,
                        label=failure.workload.label(),
                        error=message,
                    )
                )
                if self.checkpoint is not None:
                    self.checkpoint.record_quarantined(
                        failure.key, failure.workload.label(), message
                    )
                continue
            self._commit(failure.key, failure.workload, result, on_result)
            resolved[failure.key] = result
        if quarantined:
            raise WorkloadExecutionError(messages, quarantined=tuple(quarantined))

    def _retry_workload(self, workload: Workload) -> NetworkResult:
        """One retry attempt: replan against the cache, execute, compose.

        Planned with throwaway statistics — retry work is accounted by
        ``stats.retries`` alone, so the per-stage counters (and the footer
        lines CI greps) keep describing the fault-free pipeline.  The replan
        sees everything the failed first attempt and its neighbours already
        stored, so a transient fault usually retries into a mostly-warm
        compose.
        """
        retry_stats = CacheStats()
        plan = plan_workload(workload, self.cache, retry_stats, set())
        reply = execute_work_unit(plan.work_unit()) if plan.needs_worker else WorkResult()
        return result_of(plan, reply, self.cache, retry_stats)

    # ------------------------------------------------------------------ #
    # Committing results
    # ------------------------------------------------------------------ #
    def _note_resolved(
        self,
        key: str,
        workload: Workload,
        result: NetworkResult,
        on_result: ResultCallback | None,
    ) -> None:
        """Journal a resolved workload as completed and notify the stream.

        Cache hits at lookup time land here directly; fresh results only
        after :meth:`_commit` has stored them.
        """
        if self.checkpoint is not None:
            self.checkpoint.record_completed(key)
        if on_result is not None:
            on_result(workload, result)

    def _commit(
        self,
        key: str,
        workload: Workload,
        result: NetworkResult,
        on_result: ResultCallback | None,
    ) -> None:
        """Store a fresh result, journal it, and notify the stream.

        Ordering is the crash-safety contract: the artifacts and result are
        stored first, the checkpoint's ``completed`` event is appended and
        flushed second, stream callbacks fire third, and the test-only
        after-commit hook (the kill point of the fault-injection harness)
        fires last — so anything that dies *at* the hook leaves a journal
        that only ever under-reports completed work, never over-reports it.
        """
        self._store_result(key, workload, result)
        self._note_resolved(key, workload, result, on_result)
        testing.fire_after_commit(workload, result)

    def _store_result(self, key: str, workload: Workload, result: NetworkResult) -> None:
        """Record an execution and store its workload-level result.

        Bit Fusion results are compositions of on-disk artifacts, so the
        composed record itself stays memory-only; baseline platforms cache
        their whole result (it is their only artifact).
        """
        self.stats.record_execution(key)
        persist = workload.platform != "bitfusion"
        self.cache.put(key, result, workload.describe(), persist=persist)

    def compile_stats(self, workload: Workload) -> ProgramStats:
        """Compile a Bit Fusion workload (cached) and return program stats.

        The statistics are derived from the program-level artifact cache —
        the same compiled programs the simulation pipeline uses — so a
        report that already simulated a benchmark never recompiles it just
        to count instructions.
        """
        program, source = obtain_program(workload, self.cache, self.stats)
        if source == "miss":
            self.stats.misses += 1
            self.stats.record_execution(program_cache_key(workload))
            self.cache.flush()
        else:
            self.stats.hits += 1
            if source == "disk":
                self.stats.disk_hits += 1
        return ProgramStats.from_program(program)

    # ------------------------------------------------------------------ #
    # Declarative sweeps
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        networks: Iterable[str],
        batch_sizes: Iterable[int] = (16,),
        bandwidths: Iterable[int | None] = (None,),
        platform: str = "bitfusion",
        base_config: BitFusionConfig | None = None,
        fixed_bits: int | None = None,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> SweepResult:
        """Run the cartesian product of networks x batch sizes x bandwidths.

        The bandwidth axis applies to Bit Fusion only (it maps to
        ``BitFusionConfig.with_bandwidth``); baseline platforms accept the
        default ``(None,)`` axis and use their paper configuration at each
        batch size.  GPU workloads need a device spec and precision, so they
        go through :meth:`run_many` with explicit workloads instead.
        """
        network_list = list(networks)
        batch_list = list(batch_sizes)
        bandwidth_list = list(bandwidths)
        if platform != "bitfusion":
            if bandwidth_list != [None]:
                raise ValueError(
                    f"the bandwidth axis only applies to bitfusion, not {platform!r}"
                )
            if (
                base_config is not None
                or fixed_bits is not None
                or not enable_loop_ordering
                or not enable_layer_fusion
            ):
                raise ValueError(
                    "base_config, fixed_bits and the compiler flags only apply to "
                    f"bitfusion sweeps, not {platform!r}"
                )

        workloads: list[Workload] = []
        axes: list[tuple[str, int, int | None]] = []
        for network, batch, bandwidth in product(network_list, batch_list, bandwidth_list):
            if platform == "bitfusion":
                config = (
                    base_config.with_batch_size(batch)
                    if base_config is not None
                    else BitFusionConfig.eyeriss_matched(batch_size=batch)
                )
                if bandwidth is not None:
                    config = config.with_bandwidth(bandwidth)
                workload = Workload.bitfusion(
                    network,
                    batch_size=batch,
                    config=config,
                    fixed_bits=fixed_bits,
                    enable_loop_ordering=enable_loop_ordering,
                    enable_layer_fusion=enable_layer_fusion,
                )
            elif platform == "eyeriss":
                workload = Workload.eyeriss(network, batch_size=batch)
            elif platform == "stripes":
                workload = Workload.stripes(network, batch_size=batch)
            elif platform == "temporal":
                workload = Workload.temporal(network, batch_size=batch)
            else:
                raise ValueError(
                    f"sweep supports bitfusion/eyeriss/stripes/temporal, not {platform!r}"
                )
            workloads.append(workload)
            axes.append((network, batch, bandwidth))

        results = self.run_many(workloads)
        return SweepResult(
            SweepPoint(
                network=network,
                batch_size=batch,
                bandwidth=bandwidth,
                workload=workload,
                result=result,
            )
            for (network, batch, bandwidth), workload, result in zip(axes, workloads, results)
        )


# ---------------------------------------------------------------------- #
# Default-session management
# ---------------------------------------------------------------------- #
_DEFAULT_SESSION: EvaluationSession | None = None


def get_default_session() -> EvaluationSession:
    """The process-wide shared session, created lazily on first use."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = EvaluationSession()
    return _DEFAULT_SESSION


def set_default_session(session: EvaluationSession | None) -> EvaluationSession | None:
    """Install a new default session; returns the previous one."""
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous


def resolve_session(session: EvaluationSession | None = None) -> EvaluationSession:
    """The explicit session if given, else the shared default."""
    return session if session is not None else get_default_session()


@contextmanager
def use_session(session: EvaluationSession) -> Iterator[EvaluationSession]:
    """Scope ``session`` as the default for the duration of a ``with`` block."""
    previous = set_default_session(session)
    try:
        yield session
    finally:
        set_default_session(previous)
