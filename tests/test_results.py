"""Tests for the result records (LayerResult / NetworkResult / MemoryTraffic)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.energy.breakdown import EnergyBreakdown
from repro.sim.results import LayerResult, MemoryTraffic, NetworkResult


def _layer(name="layer", compute=1000, memory=500, macs=10_000, energy_j=1e-6) -> LayerResult:
    return LayerResult(
        name=name,
        macs=macs,
        input_bits=4,
        weight_bits=2,
        compute_cycles=compute,
        memory_cycles=memory,
        overhead_cycles=10,
        traffic=MemoryTraffic(dram_read_bits=1024, dram_write_bits=256, ibuf_read_bits=2048),
        energy=EnergyBreakdown(compute=energy_j / 2, dram=energy_j / 2),
        utilization=0.5,
    )


def _result(layers, batch=16, frequency=500.0, platform="bitfusion") -> NetworkResult:
    return NetworkResult(
        network_name="net",
        platform=platform,
        batch_size=batch,
        frequency_mhz=frequency,
        layers=tuple(layers),
    )


class TestMemoryTraffic:
    def test_totals(self):
        traffic = MemoryTraffic(dram_read_bits=10, dram_write_bits=5, ibuf_read_bits=3,
                                wbuf_read_bits=2, obuf_read_bits=1, obuf_write_bits=4)
        assert traffic.dram_total_bits == 15
        assert traffic.buffer_total_bits == 10

    def test_addition(self):
        a = MemoryTraffic(dram_read_bits=1, wbuf_read_bits=2)
        b = MemoryTraffic(dram_read_bits=3, obuf_write_bits=4)
        combined = a + b
        assert combined.dram_read_bits == 4
        assert combined.wbuf_read_bits == 2
        assert combined.obuf_write_bits == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MemoryTraffic(dram_read_bits=-1)


class TestLayerResult:
    def test_total_cycles_is_max_plus_overhead(self):
        layer = _layer(compute=1000, memory=500)
        assert layer.total_cycles == 1010
        assert not layer.is_memory_bound

    def test_memory_bound_detection(self):
        layer = _layer(compute=100, memory=900)
        assert layer.is_memory_bound
        assert layer.total_cycles == 910

    def test_validation(self):
        with pytest.raises(ValueError):
            _layer(macs=-1)
        with pytest.raises(ValueError):
            _layer(compute=-1)
        with pytest.raises(ValueError):
            LayerResult(name="x", macs=0, input_bits=4, weight_bits=4,
                        compute_cycles=0, memory_cycles=0, utilization=1.5)

    def test_renamed_changes_only_the_name(self):
        layer = _layer(name="conv1")
        renamed = layer.renamed("other")
        assert renamed == replace(layer, name="other")
        assert hash(renamed) == hash(replace(layer, name="other"))
        assert layer.name == "conv1"


class TestNetworkResult:
    def test_cycle_and_latency_aggregation(self):
        result = _result([_layer("a"), _layer("b")], batch=8, frequency=500.0)
        assert result.total_cycles == 2 * 1010
        assert result.batch_latency_s == pytest.approx(2020 / 500e6)
        assert result.latency_per_inference_s == pytest.approx(2020 / 500e6 / 8)
        assert result.throughput_inferences_per_s == pytest.approx(1 / result.latency_per_inference_s)

    def test_energy_aggregation(self):
        result = _result([_layer(energy_j=2e-6), _layer(energy_j=4e-6)])
        assert result.energy.total == pytest.approx(6e-6)
        assert result.energy_per_inference_j == pytest.approx(6e-6 / 16)
        assert result.average_power_w == pytest.approx(result.energy.total / result.batch_latency_s)

    def test_traffic_aggregation(self):
        result = _result([_layer(), _layer()])
        assert result.traffic.dram_read_bits == 2048
        assert result.traffic.ibuf_read_bits == 4096

    def test_speedup_and_energy_reduction(self):
        fast = _result([_layer(compute=100, memory=50)], platform="fast")
        slow = _result([_layer(compute=1000, memory=50)], platform="slow")
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0
        cheap = _result([_layer(energy_j=1e-6)], platform="cheap")
        costly = _result([_layer(energy_j=4e-6)], platform="costly")
        assert cheap.energy_reduction_over(costly) == pytest.approx(4.0)

    def test_effective_throughput(self):
        result = _result([_layer(macs=1_000_000)])
        expected = 2 * 1_000_000 / result.batch_latency_s / 1e9
        assert result.effective_throughput_gops == pytest.approx(expected)

    def test_layer_lookup(self):
        result = _result([_layer("conv1"), _layer("fc")])
        assert result.layer("fc").name == "fc"
        with pytest.raises(KeyError):
            result.layer("missing")

    def test_summary_contains_layer_names_and_totals(self):
        summary = _result([_layer("conv1")]).summary()
        assert "conv1" in summary
        assert "ms/inference" in summary

    def test_validation(self):
        with pytest.raises(ValueError):
            _result([], batch=16)
        with pytest.raises(ValueError):
            _result([_layer()], batch=0)
        with pytest.raises(ValueError):
            NetworkResult(network_name="n", platform="p", batch_size=1, frequency_mhz=0,
                          layers=(_layer(),))


class TestStatsHelpers:
    def test_geometric_mean(self):
        from repro.sim.stats import geometric_mean

        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_speedup_and_energy_helpers(self):
        from repro.sim.stats import energy_reduction, speedup

        fast = _result([_layer(compute=100)], platform="fast")
        slow = _result([_layer(compute=200)], platform="slow")
        assert speedup(fast, slow) == fast.speedup_over(slow)
        assert energy_reduction(fast, slow) == fast.energy_reduction_over(slow)

    def test_normalize(self):
        from repro.sim.stats import normalize

        values = {"a": 2.0, "b": 4.0}
        assert normalize(values, "a") == {"a": 1.0, "b": 2.0}
        with pytest.raises(KeyError):
            normalize(values, "c")
        with pytest.raises(ValueError):
            normalize({"a": 0.0, "b": 1.0}, "a")
