"""Ablations — quantify each design mechanism the paper motivates.

Not a paper figure: these benches isolate (1) bit-level fusion itself,
(2) the loop-ordering optimization and (3) layer fusion, by disabling each
and measuring the slowdown / energy increase on the full benchmark suite.
"""

from __future__ import annotations

from repro.harness.experiments import ablations


def test_compiler_and_fusion_ablations(benchmark, bench_once, capsys):
    rows = bench_once(benchmark, ablations.run)

    with capsys.disabled():
        print()
        print(ablations.format_table(rows))
        summary = ablations.geomean_summary(rows)
        print()
        print("geomean impact of disabling each mechanism:")
        for key, value in summary.items():
            print(f"  {key:36s} {value:5.2f}x")

    assert len(rows) == 8
    summary = ablations.geomean_summary(rows)

    # Bit-level fusion is the headline: forcing 8-bit execution costs a
    # multi-x slowdown and energy increase across the suite.
    assert summary["fixed_8bit_slowdown"] > 2.0
    assert summary["fixed_8bit_energy_increase"] > 1.5

    # The compiler optimizations never hurt and help at least somewhere.
    assert summary["no_loop_ordering_slowdown"] >= 1.0
    assert summary["no_layer_fusion_slowdown"] >= 1.0
    assert summary["no_loop_ordering_energy_increase"] >= 1.0
    assert summary["no_layer_fusion_energy_increase"] >= 1.0
    assert any(row.no_layer_fusion_energy_increase > 1.05 for row in rows)
