"""Sweep execution: expand a spec, run it through a session, reduce to tables.

:func:`run_sweep` is the whole subsystem end to end: a
:class:`~repro.dse.spec.SweepSpec` expands to its fingerprinted workload
grid, the grid executes through an
:class:`~repro.session.session.EvaluationSession` (and therefore through
the staged artifact cache — a technology/bandwidth/array sweep compiles
each network exactly once), and every point is distilled into an
:class:`EvaluatedPoint` carrying the minimized objective metrics.  The
:class:`DesignSpaceResult` holds the full grid plus its Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.dse.pareto import OBJECTIVES, ParetoArchive, pareto_front
from repro.dse.spec import DesignPoint, SweepSpec, format_axis_value
from repro.energy.components import accelerator_area_mm2
from repro.session.backends import ExecutionBackend
from repro.session.engine import QuarantineRecord, WorkloadExecutionError
from repro.session.session import EvaluationSession, resolve_session
from repro.session.workload import Workload
from repro.sim.results import NetworkResult

__all__ = ["EvaluatedPoint", "DesignSpaceResult", "run_sweep"]


@dataclass(frozen=True)
class EvaluatedPoint:
    """One design point together with its simulated result and metrics."""

    point: DesignPoint
    result: NetworkResult

    @property
    def latency_ms(self) -> float:
        """Latency per inference, milliseconds (minimized objective)."""
        return self.result.latency_per_inference_s * 1e3

    @property
    def energy_mj(self) -> float:
        """Energy per inference, millijoules (minimized objective)."""
        return self.result.energy_per_inference_j * 1e3

    @property
    def area_mm2(self) -> float:
        """Accelerator area at the point's technology node, mm² (minimized)."""
        return accelerator_area_mm2(self.point.workload.config)

    @property
    def throughput_gops(self) -> float:
        """Delivered throughput, GOPS (reported, not an objective)."""
        return self.result.effective_throughput_gops

    def objective_value(self, name: str) -> float:
        """The value of one registered objective at this point."""
        try:
            objective = OBJECTIVES[name]
        except KeyError:
            raise ValueError(
                f"unknown objective {name!r}; expected one of {sorted(OBJECTIVES)}"
            ) from None
        return objective.extract(self)

    def as_row(self, on_frontier: bool | None = None) -> dict[str, Any]:
        """Table row: one column per axis, then the metric columns."""
        row: dict[str, Any] = {
            "network": self.point.network,
            "batch": self.point.batch_size,
        }
        for axis, value in self.point.settings:
            row[axis] = format_axis_value(axis, value)
        # Three significant digits as strings: the metrics span microjoules
        # (LeNet-5) to millijoules (AlexNet), which fixed two-decimal float
        # formatting would collapse to 0.00.
        row["latency (ms)"] = f"{self.latency_ms:.3g}"
        row["energy (mJ)"] = f"{self.energy_mj:.3g}"
        row["area (mm2)"] = f"{self.area_mm2:.3g}"
        row["GOPS"] = f"{self.throughput_gops:.4g}"
        if on_frontier is not None:
            row["pareto"] = "*" if on_frontier else ""
        return row


class DesignSpaceResult:
    """The evaluated grid of one sweep plus its Pareto frontier.

    ``quarantined`` lists the workloads that failed execution twice and were
    excluded from the grid (see :func:`run_sweep` with
    ``allow_failures=True``); empty on a clean run.  ``streamed`` optionally
    carries the per-(network, batch) incremental
    :class:`~repro.dse.pareto.ParetoArchive` frontiers accumulated while the
    sweep ran — by transitivity of dominance they hold exactly the same
    frontier membership :meth:`pareto` computes one-shot from the full grid
    (property-tested), but are available live, point by point, during a
    resumable run.
    """

    def __init__(
        self,
        spec: SweepSpec,
        points: list[EvaluatedPoint],
        quarantined: tuple[QuarantineRecord, ...] = (),
        streamed: dict[tuple[str, int], ParetoArchive] | None = None,
    ) -> None:
        self.spec = spec
        self.points = tuple(points)
        self.quarantined = tuple(quarantined)
        self.streamed = streamed
        self._frontier: list[EvaluatedPoint] | None = None
        for name in spec.objectives:
            if name not in OBJECTIVES:
                raise ValueError(
                    f"unknown objective {name!r}; expected one of {sorted(OBJECTIVES)}"
                )

    def __iter__(self) -> Iterator[EvaluatedPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def pareto(self) -> list[EvaluatedPoint]:
        """The non-dominated points under the spec's objectives, per network.

        Frontiers are extracted within each (network, batch) group — a small
        network would otherwise dominate a large one on every objective and
        collapse the frontier to the easiest benchmark.  Extraction is the
        sort-based :func:`~repro.dse.pareto.pareto_indices` (O(n log n) for
        up to two objectives); the result is memoized (points are immutable
        after construction) so a full report pays for it once.
        """
        if self._frontier is not None:
            return list(self._frontier)
        frontier: list[EvaluatedPoint] = []
        extractors = [OBJECTIVES[name].extract for name in self.spec.objectives]
        for network, batch in {
            (point.point.network, point.point.batch_size): None for point in self.points
        }:
            group = [
                point
                for point in self.points
                if point.point.network == network and point.point.batch_size == batch
            ]
            frontier.extend(pareto_front(group, extractors))
        self._frontier = frontier
        return list(frontier)

    def rows(self) -> list[dict[str, Any]]:
        """All grid rows, frontier members marked in the ``pareto`` column."""
        on_frontier = {id(point) for point in self.pareto()}
        return [point.as_row(id(point) in on_frontier) for point in self.points]

    def pareto_rows(self) -> list[dict[str, Any]]:
        """Rows of the Pareto frontier only."""
        return [point.as_row() for point in self.pareto()]

    def streamed_pareto(self) -> list[EvaluatedPoint]:
        """Frontier members accumulated incrementally while the sweep ran.

        Falls back to :meth:`pareto` when the sweep did not stream (points
        supplied directly).  Membership equals :meth:`pareto` exactly —
        ordering follows result-arrival (schedule) order rather than grid
        order, which is why report tables render from :meth:`pareto`.
        """
        if self.streamed is None:
            return self.pareto()
        members: list[EvaluatedPoint] = []
        for archive in self.streamed.values():
            members.extend(archive.items)
        return members


def run_sweep(
    spec: SweepSpec,
    session: EvaluationSession | None = None,
    *,
    allow_failures: bool = False,
    backend: "ExecutionBackend | None" = None,
) -> DesignSpaceResult:
    """Expand and execute a sweep spec; returns the evaluated design space.

    All points go through :meth:`EvaluationSession.run_many
    <repro.session.session.EvaluationSession.run_many>` in one batch, so
    duplicate points collapse onto one simulation, uncached points schedule
    longest-job-first across ``--jobs`` workers, and the per-stage artifact
    cache (programs keyed structure-only, blocks keyed by name-free layer
    content) is shared with every other experiment the session
    ran.  Parallel sweeps are warm-artifact aware: the main process compiles
    centrally and ships workers only cache-missing blocks, and the session's
    per-stage statistics (``session.stats``, rendered in the report footer)
    include the worker-side reuse — work units dispatched, blocks simulated
    remotely and blocks served from the cache instead.  Serial sweeps batch
    the simulation stage instead: the missing blocks of *every* point in
    the batch go through the vectorized executor in as few numpy passes as
    possible (:func:`~repro.session.engine.simulate_planned_blocks`), and
    points that differ only in simulation parameters (bandwidth, frequency,
    technology — same compiled blocks) collapse into one 2-D
    configs × blocks grid evaluation.

    The Pareto reduction streams: as each unique workload's result lands
    (cache hit or fresh commit), every grid point it backs feeds its
    per-(network, batch) :class:`~repro.dse.pareto.ParetoArchive`, so a
    checkpointed, resumable sweep always has a live incremental frontier —
    the archives ride on the result under ``streamed``.

    ``allow_failures=True`` makes a quarantine survivable: when the session
    raises :class:`~repro.session.engine.WorkloadExecutionError` (each
    failed workload has already been retried once), the sweep drops exactly
    the quarantined points, re-collects the survivors from the now-warm
    session (pure cache hits — nothing re-executes), and returns the
    reduced grid with ``quarantined`` filled in.  With the default
    ``allow_failures=False`` the error propagates after surviving artifacts
    are stored, preserving the historical contract.

    ``backend`` (mutually exclusive with ``session``) runs the sweep in a
    sweep-owned session on that
    :class:`~repro.session.backends.ExecutionBackend` — e.g. a
    ``RemoteBackend`` sharding work units across worker daemons — closed
    when the sweep returns.
    """
    if backend is not None:
        if session is not None:
            raise ValueError("pass either session or backend, not both")
        owned = EvaluationSession(backend=backend)
        try:
            return run_sweep(spec, owned, allow_failures=allow_failures)
        finally:
            owned.close()
    points = spec.expand()
    extractors = [OBJECTIVES[name].extract for name in spec.objectives]
    # A unique workload may back several grid points (duplicate settings);
    # each arrival feeds every point it backs into its group's archive.
    by_fingerprint: dict[str, list[DesignPoint]] = {}
    for point in points:
        by_fingerprint.setdefault(point.workload.fingerprint(), []).append(point)
    archives: dict[tuple[str, int], ParetoArchive] = {}

    def on_result(workload: Workload, result: NetworkResult) -> None:
        for point in by_fingerprint.get(workload.fingerprint(), ()):
            evaluated = EvaluatedPoint(point=point, result=result)
            group = archives.setdefault(
                (point.network, point.batch_size), ParetoArchive()
            )
            group.add(evaluated, [extract(evaluated) for extract in extractors])

    active = resolve_session(session)
    quarantined: tuple[QuarantineRecord, ...] = ()
    workloads = [point.workload for point in points]
    try:
        results = active.run_many(workloads, on_result=on_result)
    except WorkloadExecutionError as error:
        if not allow_failures:
            raise
        quarantined = error.quarantined
        dropped = {record.fingerprint for record in quarantined}
        points = [
            point for point in points if point.workload.fingerprint() not in dropped
        ]
        # Survivors were all committed before the session raised; this
        # collection pass is pure cache hits.  No ``on_result`` — the
        # archives already saw every survivor exactly once.
        results = active.run_many([point.workload for point in points])
    return DesignSpaceResult(
        spec,
        [EvaluatedPoint(point=point, result=result) for point, result in zip(points, results)],
        quarantined=quarantined,
        streamed=archives,
    )
