"""Output checks: every timed run's output must match an in-process reference.

The references are computed in the benchmark's own process from the same
seeded spec through the library's public API: the sweep table from an
in-memory :func:`repro.dse.run_sweep`, the NAS frontier table from
:func:`repro.nas.run_search`, the report from
:func:`repro.harness.runner.build_report`.  So the sweep tables of
``sweep-cold`` and ``sweep-warm`` are both held to the same bytes.  Seeded
samples are then re-run through the scalar oracles (sweeps) or the full
accelerator model (NAS).  Each mismatching item counts as failed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Reference",
    "Tally",
    "compare",
    "fenced_block",
    "grid_rows",
    "nas_oracle",
    "quarantined",
    "reference",
    "strip_timing",
    "sweep_oracle",
]

#: Lines that carry host timings, which differ between runs by nature.
TIMING_PREFIXES = ("_(generated in", "compile time:", "sim time:", "search time:")

#: Seeded sample sizes for the oracle re-runs.
SWEEP_ORACLE_SAMPLES = 24
NAS_ORACLE_SAMPLES = 6


@dataclass
class Tally:
    """Items attempted and failed, with a note per failure kind."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{note}: {failed} of {attempted} failed")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def strip_timing(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith(TIMING_PREFIXES)
    )


def fenced_block(text: str) -> str:
    """The first ```-fenced block: the sweep or search table of a CLI report."""
    parts = text.split("```\n", 2)
    return parts[1].split("\n```", 1)[0] if len(parts) > 2 else ""


def compare(actual: str, expected: str, items: int) -> int:
    """Failed items: differing lines (position-wise) plus missing or extra ones."""
    got, want = actual.splitlines(), expected.splitlines()
    differing = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return min(items, differing)


def quarantined(text: str) -> int:
    match = re.search(r"^quarantined workloads: (\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


@dataclass
class Reference:
    """What a correct run prints (timing lines stripped) and how many items it has."""

    kind: str
    text: str
    items: int
    result: Any = None

    def check(self, stdout: str) -> tuple[int, int]:
        """``(failed items, quarantined items)`` of one run's output."""
        actual = strip_timing(stdout if self.kind == "report" else fenced_block(stdout))
        failed = compare(actual, self.text, self.items)
        return failed, quarantined(stdout)


def reference(kind: str, spec: dict[str, Any] | None) -> Reference:
    """Compute the expected output of a workload in this process."""
    if kind == "sweep":
        from repro.dse import SweepSpec, format_sweep_report, run_sweep
        from repro.session import EvaluationSession

        sweep = SweepSpec.from_dict(spec)
        session = EvaluationSession()
        try:
            result = run_sweep(sweep, session, allow_failures=True)
        finally:
            session.close()
        text = strip_timing(format_sweep_report(result))
        return Reference(kind, text, sweep.grid_size(), sweep)
    if kind == "nas":
        from repro.nas import Estimator, SearchSpec, format_search_report, run_search
        from repro.session import ResultCache

        search = SearchSpec.from_dict(spec)
        estimator = Estimator(cache=ResultCache(None), batch_size=search.batch_size)
        result = run_search(search, estimator=estimator)
        text = strip_timing(format_search_report(result))
        return Reference(kind, text, len(result.candidates), (result, estimator))
    from repro.harness.runner import EXPERIMENTS, build_report

    return Reference(kind, strip_timing(build_report()), len(EXPERIMENTS))


def grid_rows(block: str) -> list[list[str]]:
    """The cells of every row of a sweep report's design-space grid."""
    lines = block.splitlines()
    for index, line in enumerate(lines):
        if line.startswith("Design-space grid"):
            rows = []
            for row in lines[index + 3 :]:
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    return []


def _scalar_oracle(workload: Any) -> Any:
    from repro.isa.compiler import FusionCompiler
    from repro.session.workload import load_network
    from repro.sim.executor import BitFusionSimulator

    compiler = FusionCompiler(
        workload.config,
        enable_loop_ordering=workload.enable_loop_ordering,
        enable_layer_fusion=workload.enable_layer_fusion,
        vectorized_search=False,
    )
    program = compiler.compile(load_network(workload), batch_size=workload.batch_size)
    simulator = BitFusionSimulator(workload.config, batched=False)
    return simulator.run_program(program, batch_size=workload.batch_size)


def sweep_oracle(sweep: Any, block: str, seed: int, tally: Tally) -> None:
    """Re-run a seeded sample of design points through the scalar oracles.

    The row the CLI printed for each sampled point must equal the row the
    oracle's result renders to.
    """
    from repro.dse.runner import EvaluatedPoint

    points = sweep.expand()
    rows = grid_rows(block)
    rng = random.Random(f"oracle-{seed}")
    sample = rng.sample(range(len(points)), min(SWEEP_ORACLE_SAMPLES, len(points)))
    failed = 0
    for index in sample:
        point = points[index]
        oracle = EvaluatedPoint(point, _scalar_oracle(point.workload))
        expected = [str(value) for value in oracle.as_row().values()]
        row = rows[index] if index < len(rows) else []
        failed += row[: len(expected)] != expected
    tally.add(len(sample), failed, "sweep rows differing from the scalar oracles")


def nas_oracle(search: Any, seed: int, tally: Tally) -> None:
    """A seeded sample of candidates: the estimator must equal the full model.

    Each sampled candidate is priced again by the search's (warm) estimator
    and by :meth:`BitFusionAccelerator.evaluate`; both must equal the result
    the search recorded.
    """
    from repro.core.accelerator import BitFusionAccelerator

    result, estimator = search
    accelerator = BitFusionAccelerator(result.config)
    candidates = result.candidates
    rng = random.Random(f"oracle-{seed}")
    sample = rng.sample(candidates, min(NAS_ORACLE_SAMPLES, len(candidates)))
    failed = 0
    for candidate in sample:
        model = accelerator.evaluate(candidate.network, batch_size=result.spec.batch_size)
        estimate = estimator.estimate(candidate.network)
        failed += not (model == estimate == candidate.result)
    tally.add(len(sample), failed, "NAS estimates differing from BitFusionAccelerator")
