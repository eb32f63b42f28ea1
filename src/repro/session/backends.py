"""Execution backends: one protocol, three ways to run a schedule.

:class:`~repro.session.session.EvaluationSession.run_many` resolves its
batch against the cache and hands the genuinely pending schedule to an
:class:`ExecutionBackend`.  The backend owns *where* work units execute;
the session keeps owning everything else — cache resolution, commit
ordering, the retry-once / quarantine policy and the checkpoint journal —
so every backend inherits the same fault-tolerance and byte-identity
contracts:

* :class:`InlineBackend` — the serial path: plan every workload against
  the cache, simulate the missing blocks of the whole batch through as few
  vectorized calls as possible
  (:func:`~repro.session.engine.simulate_planned_blocks` — cross-workload
  grid merging), then compose in schedule order.  With a checkpoint it
  degrades to strictly per-workload commits (kill-anywhere resumability).
* :class:`ProcessPoolBackend` — the ``--jobs`` path: a lazily created
  ``ProcessPoolExecutor``, work units submitted as their plans complete,
  per-sim-config simulator memoization in the workers, and labelled
  failure isolation (a crashed worker fails only its own workload and the
  broken pool is discarded).
* :class:`~repro.session.remote.RemoteBackend` — TCP/JSON workers
  (``python -m repro.harness worker``); lives in its own module so the
  session import stays socket-free.

A backend returns ``(resolved, failures)``; the session feeds the failures
into its retry/quarantine policy.  Backends report *who* did the work
through :class:`~repro.session.cache.WorkerStats` (backend name, per-worker
unit counts, dispatch/wait wall time), which the report footer and
``--profile`` table render.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.session.engine import (
    describe_workload_error,
    execute_work_unit,
    plan_workload,
    simulate_planned_blocks,
)
from repro.session.workload import Workload
from repro.sim.results import NetworkResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import EvaluationSession

__all__ = [
    "ExecutionBackend",
    "Failure",
    "InlineBackend",
    "ProcessPoolBackend",
    "make_backend",
]

#: (workload, result) callback fired at commit time; see ``run_many``.
ResultCallback = Callable[[Workload, NetworkResult], None]


@dataclass(frozen=True)
class Failure:
    """One failed execution attempt, pending the session's retry."""

    key: str
    workload: Workload
    message: str


class ExecutionBackend:
    """Where a session's pending schedule executes.

    ``execute`` receives the session (for cache, stats, checkpoint and the
    commit helpers) and the deduplicated, longest-job-first schedule; it
    must commit every successful result through ``session._commit`` (in
    schedule order, so deferred in-batch blocks resolve exactly as they
    would serially) and return the resolved results plus the failures the
    session should retry.  ``simulate_plans`` is the bare simulation
    primitive the NAS estimator batches candidate plans through — inline
    by default, sharded by the remote backend.
    """

    #: Short name rendered in the footer's ``backend:`` line and the
    #: ``parallel workers [name]`` statistics.
    name = "backend"

    def execute(
        self,
        session: "EvaluationSession",
        items: list[tuple[str, Workload]],
        on_result: ResultCallback | None = None,
    ) -> tuple[dict[str, NetworkResult], list[Failure]]:
        raise NotImplementedError

    def simulate_plans(self, plans: Sequence[Any]) -> list[dict[int, Any]]:
        """Simulate the missing blocks of arbitrary plans (PlanLike)."""
        return simulate_planned_blocks(plans)

    def close(self) -> None:
        """Release backend resources (pools, sockets).  Idempotent."""

    def describe(self) -> str:
        """Footer description, e.g. ``pool (2 processes)``."""
        return self.name


class InlineBackend(ExecutionBackend):
    """Serial in-process execution with cross-workload batched simulation."""

    name = "inline"

    def execute(
        self,
        session: "EvaluationSession",
        items: list[tuple[str, Workload]],
        on_result: ResultCallback | None = None,
    ) -> tuple[dict[str, NetworkResult], list[Failure]]:
        """Run the schedule inline, batching simulations across workloads.

        Without a checkpoint, every Bit Fusion workload of the batch is
        planned against the cache first (central compile, per-block
        resolution through the layer key, in-batch duplicates deferred
        to their claimant exactly like the parallel protocol); the
        genuinely missing blocks of *all* plans then simulate through as
        few vectorized batched calls as possible
        (:func:`~repro.session.engine.simulate_planned_blocks` — a sweep
        varying only simulation parameters collapses into one 2-D grid
        pass) before each workload composes in schedule order.  Baseline
        workloads (no compile stage) execute whole, as always.  If the
        all-plans batched call raises, the batch degrades to per-plan
        simulation so one faulting block fails only its own workload.

        With a checkpoint, workloads run strictly one at a time — plan,
        simulate, compose, store, journal — so a kill at any point loses at
        most the in-flight workload.
        """
        stats = session.stats
        resolved: dict[str, NetworkResult] = {}
        failures: list[Failure] = []
        if session.checkpoint is None:
            # No durability contract to honour between workloads, so the
            # whole batch — compile-stage artifacts and every composed
            # workload's store-backs — lands as one group commit (a single
            # segment append + one index flush on disk-backed caches).
            with session.cache.batch():
                claimed: set[str] = set()
                plans = [
                    plan_workload(workload, session.cache, stats, claimed)
                    for _, workload in items
                ]
                try:
                    started = time.perf_counter()
                    remote: list[dict[int, object]] | None = self.simulate_plans(plans)
                    stats.sim_seconds += time.perf_counter() - started
                except Exception:
                    # One faulting block aborted the whole batched call;
                    # degrade to per-plan simulation so only the faulty
                    # workload fails.
                    remote = None
                for index, ((key, workload), plan) in enumerate(zip(items, plans)):
                    try:
                        if remote is not None:
                            layers = remote[index]
                        else:
                            started = time.perf_counter()
                            layers = simulate_planned_blocks([plan])[0]
                            stats.sim_seconds += time.perf_counter() - started
                        result = session._finish_plan(workload, plan, layers)
                    except Exception as error:
                        failures.append(
                            Failure(key, workload, describe_workload_error(workload, error))
                        )
                        continue
                    session._commit(key, workload, result, on_result)
                    resolved[key] = result
        else:
            # Checkpointed: one durable commit per workload, in schedule
            # order.  Trades the cross-workload grid merge for the property
            # that a kill between commits never loses more than one point.
            claimed = set()
            for key, workload in items:
                try:
                    plan = plan_workload(workload, session.cache, stats, claimed)
                    started = time.perf_counter()
                    layers = simulate_planned_blocks([plan])[0]
                    stats.sim_seconds += time.perf_counter() - started
                    result = session._finish_plan(workload, plan, layers)
                except Exception as error:
                    failures.append(
                        Failure(key, workload, describe_workload_error(workload, error))
                    )
                    continue
                session._commit(key, workload, result, on_result)
                resolved[key] = result
        return resolved, failures


class ProcessPoolBackend(ExecutionBackend):
    """Local multi-process execution over a reusable ``ProcessPoolExecutor``."""

    name = "pool"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._inline = InlineBackend()

    def describe(self) -> str:
        return f"pool ({self.jobs} processes)"

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def discard(self) -> None:
        """Drop a (possibly broken) worker pool; the next batch rebuilds it."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def execute(
        self,
        session: "EvaluationSession",
        items: list[tuple[str, Workload]],
        on_result: ResultCallback | None = None,
    ) -> tuple[dict[str, NetworkResult], list[Failure]]:
        """Run the schedule over the pool, warm artifacts resolved first.

        Each workload is planned against the cache in the main process
        (central compile, per-block resolution through the layer key);
        only plans with genuinely missing work ship a
        :class:`~repro.session.engine.WorkUnit` to the pool, and each unit
        is submitted the moment its plan is ready, so workers simulate the
        first networks while the main process is still compiling the rest.
        Results compose and store in schedule order, so blocks deferred to
        an earlier in-batch claimant resolve from the cache exactly as they
        would serially.

        A worker failure — an error reply *or* a crashed worker process
        (``BrokenProcessPool`` at ``Future.result()``) — fails only its own
        workload and routes it into the retry/quarantine path; a broken
        pool is discarded so the next batch starts fresh workers.
        """
        if len(items) < 2:
            # A single pending workload gains nothing from pool dispatch
            # (and would pay pickle + startup cost); run it inline so the
            # statistics match the historical jobs>1 single-item behaviour.
            return self._inline.execute(session, items, on_result)
        stats = session.stats
        stats.workers.backend = self.name
        # The pool is created once per backend and reused across batches
        # so workers pay the interpreter/import start-up cost only once.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        claimed: set[str] = set()
        plans = []
        futures = []
        for _, workload in items:
            plan = plan_workload(workload, session.cache, stats, claimed)
            plans.append(plan)
            if plan.needs_worker:
                unit = plan.work_unit()
                stats.workers.units += 1
                stats.workers.remote_blocks += len(unit.simulate_indices)
                started = time.perf_counter()
                futures.append(self._pool.submit(execute_work_unit, unit))
                stats.workers.dispatch_seconds += time.perf_counter() - started
        replies = iter(futures)
        resolved: dict[str, NetworkResult] = {}
        failures: list[Failure] = []
        for (key, workload), plan in zip(items, plans):
            reply = None
            if plan.needs_worker:
                try:
                    started = time.perf_counter()
                    reply = next(replies).result()
                    stats.workers.wait_seconds += time.perf_counter() - started
                except Exception as error:
                    # The worker process died (or the pool broke): the reply
                    # never arrived.  Fail this workload into the retry path
                    # and discard the pool — once broken it poisons every
                    # remaining future, and the next batch deserves fresh
                    # workers.
                    failures.append(
                        Failure(key, workload, describe_workload_error(workload, error))
                    )
                    self.discard()
                    continue
                stats.workers.record_worker(reply.worker_id or "worker")
            if reply is not None and reply.error is not None:
                failures.append(Failure(key, workload, reply.error))
                continue
            if reply is not None:
                # Fold worker-side wall time into the session's per-stage
                # timers so parallel footers measure the same stages.
                stats.compile_seconds += reply.compile_seconds
                stats.sim_seconds += reply.sim_seconds
            try:
                if reply is not None and reply.result is not None:
                    result = reply.result
                else:
                    remote = dict(reply.layers) if reply is not None else {}
                    started = time.perf_counter()
                    result = session._compose_plan(plan, remote)
                    stats.compose_seconds += time.perf_counter() - started
            except Exception as error:
                failures.append(
                    Failure(key, workload, describe_workload_error(workload, error))
                )
                continue
            session._commit(key, workload, result, on_result)
            resolved[key] = result
        return resolved, failures


def make_backend(
    name: str | None = None,
    jobs: int = 1,
    workers: Sequence[str] = (),
    timeout: float | None = None,
) -> ExecutionBackend:
    """Build the backend a CLI invocation asked for.

    ``name=None`` keeps the historical behaviour: ``jobs > 1`` selects the
    process pool, anything else runs inline.  ``remote`` requires at least
    one ``host:port`` worker address.
    """
    if name is None:
        name = "pool" if jobs > 1 else "inline"
    if name == "inline":
        if jobs > 1:
            raise ValueError("--backend inline does not take --jobs > 1")
        return InlineBackend()
    if name == "pool":
        # An explicit pool request with the default --jobs still gets real
        # parallelism; otherwise the flag would silently mean "inline".
        return ProcessPoolBackend(jobs if jobs > 1 else 2)
    if name == "remote":
        if not workers:
            raise ValueError("--backend remote requires --workers host:port[,host:port...]")
        from repro.session.remote import RemoteBackend

        if timeout is not None:
            return RemoteBackend(workers, timeout=timeout)
        return RemoteBackend(workers)
    raise ValueError(f"unknown backend {name!r}; expected inline, pool or remote")
