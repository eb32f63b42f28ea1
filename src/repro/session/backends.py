"""Execution backends: one execute loop, three places the missing blocks run.

:meth:`ExecutionBackend.execute` is written once and every backend runs it
on the pending schedule ``run_many`` hands over:

1. plan each workload in schedule order
   (:func:`~repro.session.engine.plan_workload`, one ``claimed`` set for
   the batch, so a block an earlier workload claimed is deferred to compose
   time; a workload that cannot be planned fails alone);
2. take one reply per plan, in schedule order, from the backend's reply
   primitive :meth:`ExecutionBackend.replies` — a
   :class:`~repro.session.engine.WorkResult` or the exception that lost it;
3. turn an error or exception into a :class:`Failure` for the session's
   retry-once / quarantine policy, compose the rest through
   :func:`~repro.session.engine.compose_plan` and commit each through
   ``session._commit`` before the next reply is taken.

The whole batch is one ``cache.batch()`` group commit unless the session
carries a checkpoint, whose contract is one durable commit per workload.
A backend keeps only where the missing blocks run:

* :class:`InlineBackend` (the base primitive) — in this process, all plans'
  missing blocks in one batched :meth:`~ExecutionBackend.simulate_plans`
  call (cross-workload grid merging), one plan at a time if that raises;
  baselines run whole.  With a checkpoint it is lazy: plan, simulate and
  commit one workload at a time, so a kill loses at most that workload.
* :class:`ProcessPoolBackend` — the ``--jobs`` path: work units submitted
  to a ``ProcessPoolExecutor`` as their plans complete, futures resolved in
  order, a broken pool discarded.
* :class:`~repro.session.remote.RemoteBackend` — TCP/JSON workers, in its
  own module so the session import stays socket-free.

Backends report who did the work through
:class:`~repro.session.cache.WorkerStats`, which the footer and
``--profile`` render.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, Union

from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import (
    WorkPlan,
    WorkResult,
    compose_plan,
    describe_workload_error,
    execute_work_unit,
    execute_workload,
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

#: Callback fired once per unique workload the moment its result is known
#: (cache hit at lookup, or commit after fresh execution) — the streaming
#: seam incremental Pareto reduction hangs off.
ResultCallback = Callable[[Workload, NetworkResult], None]

#: One plan's reply: what ran its missing blocks, or the exception that
#: lost the reply (a crashed worker, a dead connection, a raising block).
Reply = Union[WorkResult, Exception]


@dataclass(frozen=True)
class Failure:
    """One failed execution attempt, pending the session's retry."""

    key: str
    workload: Workload
    message: str


class ReplyError(RuntimeError):
    """An error reply; carries the worker's already-formatted message."""

    def __init__(self, message: str) -> None:
        self.message = message
        super().__init__(message)


def failure_message(workload: Workload, error: Exception) -> str:
    """What a failed attempt reports: the worker's message, or the labelled error."""
    if isinstance(error, ReplyError):
        return error.message
    return describe_workload_error(workload, error)


def result_of(
    plan: WorkPlan, reply: Reply, cache: ResultCache, stats: CacheStats
) -> NetworkResult:
    """The result one reply stands for; raises whatever lost it.

    A whole result (a baseline's) is taken as is; a Bit Fusion plan
    composes from the reply's blocks plus its cached and deferred ones.
    Worker-side wall time folds into ``stats``' per-stage timers, so every
    backend's footer measures the same stages.
    """
    if isinstance(reply, Exception):
        raise reply
    if reply.error is not None:
        raise ReplyError(reply.error)
    stats.compile_seconds += reply.compile_seconds
    stats.sim_seconds += reply.sim_seconds
    if reply.result is not None:
        return reply.result
    started = time.perf_counter()
    result = compose_plan(plan, dict(reply.layers), cache, stats)
    stats.compose_seconds += time.perf_counter() - started
    return result


class ExecutionBackend:
    """Where a session's pending schedule executes.

    :meth:`execute` is the one loop every backend runs (see the module
    docstring); subclasses override only :meth:`replies`, the primitive
    that yields one ``(plan, reply)`` pair per plan in schedule order.
    The base primitive runs inline.  ``simulate_plans`` is the bare
    simulation primitive the NAS estimator batches candidate plans through
    — inline by default, sharded by the remote backend.
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
        """Plan, run, compose and commit the schedule; return what failed.

        Returns the resolved results plus the failures the session should
        retry.  Every successful result is committed through
        ``session._commit`` before the next reply is taken.
        """
        stats = session.stats
        claimed: set[str] = set()
        resolved: dict[str, NetworkResult] = {}
        failures: list[Failure] = []
        planned: list[tuple[str, Workload]] = []

        def plans() -> Iterator[WorkPlan]:
            for key, workload in items:
                try:
                    plan = plan_workload(workload, session.cache, stats, claimed)
                except Exception as error:
                    # A workload that cannot even be planned (no feasible
                    # tiling, say) fails alone, like one whose run raised.
                    failures.append(Failure(key, workload, failure_message(workload, error)))
                    continue
                planned.append((key, workload))
                yield plan

        # Without a checkpoint there is no durability contract between
        # workloads, so the whole batch — compile-stage artifacts and every
        # composed workload's store-backs — lands as one group commit (a
        # single segment append + one index flush on disk-backed caches).
        with session.cache.batch() if session.checkpoint is None else nullcontext():
            replies = self.replies(session, plans(), len(items))
            for index, (plan, reply) in enumerate(replies):
                # The primitive yields in plan order, so the index-th reply
                # belongs to the index-th workload that planned.
                key, workload = planned[index]
                try:
                    result = result_of(plan, reply, session.cache, stats)
                except Exception as error:
                    failures.append(Failure(key, workload, failure_message(workload, error)))
                    continue
                session._commit(key, workload, result, on_result)
                resolved[key] = result
        return resolved, failures

    def replies(
        self, session: "EvaluationSession", plans: Iterator[WorkPlan], count: int
    ) -> Iterator[tuple[WorkPlan, Reply]]:
        """Run the ``count`` plans inline; one ``(plan, reply)`` each, in order.

        Bit Fusion plans get their missing blocks from one batched
        :meth:`simulate_plans` call over the whole batch (a sweep varying
        only simulation parameters collapses into one 2-D grid pass); if
        that call raises, every plan simulates alone so one faulting block
        fails only its own workload.  With a checkpoint the primitive is
        lazy: each plan is pulled, simulated and yielded — and so committed
        — before the next is planned, which keeps resume accounting exact.
        """
        if session.checkpoint is not None:
            for plan in plans:
                yield plan, _run_inline(plan)
            return
        plans = list(plans)
        try:
            started = time.perf_counter()
            batched: list[Any] = self.simulate_plans(plans)
            session.stats.sim_seconds += time.perf_counter() - started
        except Exception:
            # One faulting block aborted the whole batched call.
            batched = [None] * len(plans)
        for plan, layers in zip(plans, batched):
            yield plan, _run_inline(plan, layers)

    def simulate_plans(self, plans: Sequence[Any]) -> list[dict[int, Any]]:
        """Simulate the missing blocks of arbitrary plans (PlanLike)."""
        return simulate_planned_blocks(plans)

    def close(self) -> None:
        """Release backend resources (pools, sockets).  Idempotent."""

    def describe(self) -> str:
        """Footer description, e.g. ``pool (2 processes)``."""
        return self.name


def _run_inline(plan: WorkPlan, layers: dict[int, Any] | None = None) -> Reply:
    """One plan's reply computed in this process.

    ``layers`` are the plan's already-simulated missing blocks (``None``:
    simulate them now); a baseline plan executes its workload whole.
    """
    started = time.perf_counter()
    try:
        if plan.program is None:
            result = execute_workload(plan.workload)
            return WorkResult(result=result, sim_seconds=time.perf_counter() - started)
        if layers is None:
            layers = simulate_planned_blocks([plan])[0]
        return WorkResult(layers=tuple(layers.items()), sim_seconds=time.perf_counter() - started)
    except Exception as error:
        return error


class InlineBackend(ExecutionBackend):
    """Serial in-process execution with cross-workload batched simulation."""

    name = "inline"


class ProcessPoolBackend(ExecutionBackend):
    """Local multi-process execution over a reusable ``ProcessPoolExecutor``."""

    name = "pool"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None

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

    def replies(
        self, session: "EvaluationSession", plans: Iterator[WorkPlan], count: int
    ) -> Iterator[tuple[WorkPlan, Reply]]:
        """Ship each plan's missing blocks to the pool; replies in order.

        Each unit is submitted the moment its plan is ready, so workers
        simulate the first networks while this process is still compiling
        the rest.  A crashed worker (``BrokenProcessPool`` at
        ``Future.result()``) loses only its own reply, and the broken pool
        is discarded so the next batch starts fresh workers.
        """
        if count < 2:
            # A single pending workload gains nothing from pool dispatch
            # (and would pay pickle + startup cost); run it inline so the
            # statistics match the historical jobs>1 single-item behaviour.
            yield from super().replies(session, plans, count)
            return
        workers = session.stats.workers
        workers.backend = self.name
        # The pool is created once per backend and reused across batches
        # so workers pay the interpreter/import start-up cost only once.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        submitted = []
        for plan in plans:
            future = None
            if plan.needs_worker:
                unit = plan.work_unit()
                workers.record_unit(unit)
                started = time.perf_counter()
                future = self._pool.submit(execute_work_unit, unit)
                workers.dispatch_seconds += time.perf_counter() - started
            submitted.append((plan, future))
        for plan, future in submitted:
            if future is None:
                yield plan, WorkResult()
                continue
            try:
                started = time.perf_counter()
                reply = future.result()
                workers.wait_seconds += time.perf_counter() - started
            except Exception as error:
                # Once broken, the pool poisons every remaining future.
                self.discard()
                yield plan, error
                continue
            workers.record_worker(reply.worker_id or "worker")
            yield plan, reply


def make_backend(
    name: str | None = None,
    jobs: int = 1,
    workers: Sequence[str] = (),
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

        return RemoteBackend(workers)
    raise ValueError(f"unknown backend {name!r}; expected inline, pool or remote")
