"""Paper-fidelity metrics: how far the reproduced figures are from the paper.

Each metric compares the public ``run()`` results of one experiment with
the published numbers in ``repro.harness.paper_data`` (which the result rows
carry alongside the measured values).  Ratios (speedups, energy
reductions) score the mean of ``|ln(measured / paper)|``: the log of the
geometric-mean error factor, 0 when every value matches, and symmetric in
over- and undershoot.  Figure 14's energy fractions contain zeros, so it
scores the mean absolute difference of the fractions instead.  Lower is
better for every metric.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "FIGURES",
    "abs_error",
    "compute",
    "fig13",
    "fig13_alexnet",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "log_error",
]

Pair = tuple[float, "float | None"]


def log_error(pairs: Iterable[Pair]) -> float:
    """Mean ``|ln(measured / paper)|`` over pairs with a published value."""
    terms = [abs(math.log(measured / paper)) for measured, paper in pairs if paper is not None]
    if not terms:
        raise ValueError("no published values to compare against")
    return sum(terms) / len(terms)


def abs_error(pairs: Iterable[Pair]) -> float:
    """Mean ``|measured - paper|`` over pairs with a published value."""
    terms = [abs(measured - paper) for measured, paper in pairs if paper is not None]
    if not terms:
        raise ValueError("no published values to compare against")
    return sum(terms) / len(terms)


def fig13(summary: Any) -> float:
    return log_error(
        pair
        for row in summary.rows
        for pair in (
            (row.speedup, row.paper_speedup),
            (row.energy_reduction, row.paper_energy_reduction),
        )
    )


def fig13_alexnet(rows: list[dict[str, Any]]) -> float:
    return log_error(
        pair
        for row in rows
        for pair in (
            (row["speedup"], row["paper speedup"]),
            (row["energy reduction"], row["paper energy red."]),
        )
    )


def fig14(rows: list[Any]) -> float:
    return abs_error(
        pair
        for row in rows
        for pair in (
            (row.compute, row.paper_compute),
            (row.buffers, row.paper_buffers),
            (row.register_file, row.paper_register_file),
            (row.dram, row.paper_dram),
        )
    )


def _normalized(measured: dict, paper: dict, reference: Any) -> list[Pair]:
    # The reference point is 1.0 on both sides by construction: skip it.
    return [
        (value, paper.get(key)) for key, value in measured.items() if key != reference
    ]


def fig15(rows: list[Any], reference_bandwidth: int = 128) -> float:
    return log_error(
        pair
        for row in rows
        for pair in _normalized(
            row.speedup_by_bandwidth, row.paper_speedup_by_bandwidth, reference_bandwidth
        )
    )


def fig16(rows: list[Any], reference_batch: int = 1) -> float:
    return log_error(
        pair
        for row in rows
        for pair in _normalized(row.speedup_by_batch, row.paper_speedup_by_batch, reference_batch)
    )


def fig17(summary: Any) -> float:
    return log_error(
        pair
        for row in summary.rows
        for pair in (
            (row.bitfusion, row.paper_bitfusion),
            (row.titanx_fp32, row.paper_titanx_fp32),
            (row.titanx_int8, row.paper_titanx_int8),
        )
    )


def fig18(summary: Any) -> float:
    return log_error(
        pair
        for row in summary.rows
        for pair in (
            (row.speedup, row.paper_speedup),
            (row.energy_reduction, row.paper_energy_reduction),
        )
    )


#: Metric name -> unit, in report order.
FIGURES = {
    "fidelity.fig13": "ln",
    "fidelity.fig13_alexnet": "ln",
    "fidelity.fig14": "fraction",
    "fidelity.fig15": "ln",
    "fidelity.fig16": "ln",
    "fidelity.fig17": "ln",
    "fidelity.fig18": "ln",
}


def compute() -> dict[str, float]:
    """Run figures 13-18 in this process and score each against the paper."""
    from repro.harness.experiments import (
        fig13_eyeriss,
        fig14_breakdown,
        fig15_bandwidth,
        fig16_batch,
        fig17_gpu,
        fig18_stripes,
    )

    return {
        "fidelity.fig13": fig13(fig13_eyeriss.run()),
        "fidelity.fig13_alexnet": fig13_alexnet(fig13_eyeriss.run_alexnet_per_layer()),
        "fidelity.fig14": fig14(fig14_breakdown.run()),
        "fidelity.fig15": fig15(fig15_bandwidth.run()),
        "fidelity.fig16": fig16(fig16_batch.run()),
        "fidelity.fig17": fig17(fig17_gpu.run()),
        "fidelity.fig18": fig18(fig18_stripes.run()),
    }
