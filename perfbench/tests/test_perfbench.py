"""Tests of the benchmark's own code: tracer, fidelity, seeded specs, checks."""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, fidelity, run, spans, workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_of_nested_spans_sum_to_wall():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    clock.advance(0.5)  # interpreter start-up: unaccounted
    outer = tracer.begin("session.run_many")
    clock.advance(1.0)
    inner = tracer.begin("session.keying")
    clock.advance(2.0)
    innermost = tracer.begin("session.cache.read")
    clock.advance(0.25)
    tracer.end(innermost)
    tracer.end(inner)
    second = tracer.begin("session.keying")
    clock.advance(0.75)
    tracer.end(second)
    tracer.end(outer)
    clock.advance(0.5)

    totals = spans.layer_totals(tracer.records())
    assert totals["session.run_many"] == (1.0, 1)
    assert totals["session.keying"] == (2.75, 2)
    assert totals["session.cache.read"] == (0.25, 1)

    wall = clock.now
    metrics = run.layer_metrics(tracer.records(), {}, wall, items=4)
    layer_seconds = sum(metrics[f"{layer}_s"] for layer in spans.LAYERS)
    assert metrics["unaccounted_s"] == pytest.approx(1.0)
    assert layer_seconds + metrics["unaccounted_s"] == pytest.approx(wall)
    assert metrics["session.keying_calls_per_item"] == 0.5


def _install_fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def compute(value):
        return value * 2

    class Base:
        def evaluate(self):
            return "base"

    class Child(Base):
        def evaluate(self):
            return "child"

    module.compute, module.Base, module.Child = compute, Base, Child
    consumer = types.ModuleType("perfbench_fake_consumer")
    consumer.compute = compute  # as `from perfbench_fake_layer import compute`
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, consumer.__name__, consumer)
    return module, consumer


def test_install_wraps_targets_and_reports_missing_ones(monkeypatch):
    module, consumer = _install_fake_module(monkeypatch)
    tracer = spans.Tracer()
    missing = spans.install(
        tracer,
        [
            spans.Target("layer.a", module.__name__, "compute"),
            spans.Target("layer.b", module.__name__, "Base.evaluate", subclasses=True),
            spans.Target("layer.c", module.__name__, "block_cache_key"),
            spans.Target("layer.c", module.__name__, "Base.deleted_method"),
            spans.Target("layer.c", module.__name__, "DeletedClass.method"),
            spans.Target("layer.c", "perfbench_no_such_module", "anything"),
        ],
    )
    assert missing == [
        f"{module.__name__}:block_cache_key",
        f"{module.__name__}:Base.deleted_method",
        f"{module.__name__}:DeletedClass.method",
        "perfbench_no_such_module:anything",
    ]
    assert consumer.compute(3) == 6
    assert module.Child().evaluate() == "child"
    assert module.Base().evaluate() == "base"
    layers = [span.layer for span in tracer.records()]
    assert layers == ["layer.a", "layer.b", "layer.b"]


def test_counters_see_arguments_and_results(monkeypatch):
    module, _ = _install_fake_module(monkeypatch)
    seen = []

    def count(counters, args, kwargs, result, parent, nested):
        counters["doubled"] += result
        seen.append((args, nested))

    tracer = spans.Tracer()
    spans.install(tracer, [spans.Target("layer.a", module.__name__, "compute", count=count)])
    module.compute(5)
    assert tracer.counters["doubled"] == 10
    assert seen == [((5,), False)]


def _row(**fields):
    return SimpleNamespace(**fields)


def test_fidelity_is_zero_when_measured_equals_paper():
    ratio = _row(speedup=2.0, paper_speedup=2.0, energy_reduction=3.0, paper_energy_reduction=3.0)
    assert fidelity.fig13(_row(rows=[ratio])) == 0.0
    assert fidelity.fig18(_row(rows=[ratio])) == 0.0
    assert fidelity.fig13_alexnet(
        [{"speedup": 1.5, "paper speedup": 1.5, "energy reduction": 6.0, "paper energy red.": 6.0}]
    ) == 0.0
    fractions = _row(
        compute=0.1, paper_compute=0.1, buffers=0.2, paper_buffers=0.2,
        register_file=0.0, paper_register_file=0.0, dram=0.7, paper_dram=0.7,
    )
    assert fidelity.fig14([fractions]) == 0.0
    bandwidth = _row(
        speedup_by_bandwidth={64: 0.5, 128: 1.0}, paper_speedup_by_bandwidth={64: 0.5, 128: 1.0}
    )
    assert fidelity.fig15([bandwidth]) == 0.0
    batch = _row(speedup_by_batch={1: 1.0, 16: 1.4}, paper_speedup_by_batch={1: 1.0, 16: 1.4})
    assert fidelity.fig16([batch]) == 0.0
    gpu = _row(
        bitfusion=16.0, paper_bitfusion=16.0, titanx_fp32=12.0, paper_titanx_fp32=12.0,
        titanx_int8=19.0, paper_titanx_int8=None,
    )
    assert fidelity.fig17(_row(rows=[gpu])) == 0.0


def test_fidelity_is_symmetric_in_over_and_undershoot():
    assert fidelity.log_error([(2.0, 1.0), (1.0, 2.0)]) == pytest.approx(math.log(2.0))
    assert fidelity.abs_error([(0.25, 0.0), (0.5, 0.75)]) == pytest.approx(0.25)
    batch = _row(speedup_by_batch={1: 1.0, 16: 2.8}, paper_speedup_by_batch={1: 1.0, 16: 1.4})
    assert fidelity.fig16([batch]) == pytest.approx(math.log(2.0))


def test_seeded_specs_are_deterministic_and_keep_the_grid_shape():
    assert workloads.sweep_spec(7) == workloads.sweep_spec(7)
    assert workloads.nas_spec(7) == workloads.nas_spec(7)
    assert workloads.nas_spec(7)["seed"] == 7
    drawn = set()
    for seed in range(10):
        spec = workloads.sweep_spec(seed)
        axes = spec["axes"]
        size = len(spec["networks"]) * len(spec["batch_sizes"])
        for values in axes.values():
            size *= len(values)
        assert size == 648
        assert len({tuple(value) for value in axes["array"]}) == 3
        assert len(set(axes["bandwidth"])) == 3
        drawn.add(json.dumps(axes))
    assert len(drawn) > 1


def test_each_seed_takes_turns_with_its_own_distinct_specs():
    sweep = workloads.WORKLOADS["sweep-cold"]
    seeds = sweep.variant_seeds(3)
    assert seeds == sweep.variant_seeds(3)
    assert len(seeds) == sweep.variants == len(set(seeds)) > 1
    assert not set(seeds) & set(sweep.variant_seeds(4))
    assert workloads.WORKLOADS["report"].variant_seeds(3) == [3]


SMALL_SWEEP = {
    "networks": ["LeNet-5"],
    "batch_sizes": [1],
    "axes": {"array": [[16, 16]], "bandwidth": [64, 128], "fixed_bits": [2, 4]},
}


def _cli_output(table: str) -> str:
    return f"# Bit Fusion design-space sweep\n\n```\n{table}\n```\n\n## footer\n"


def test_correct_output_passes_every_check():
    reference = checks.reference("sweep", SMALL_SWEEP)
    assert reference.items == 4
    assert reference.check(_cli_output(reference.text)) == (0, 0)
    tally = checks.Tally()
    checks.sweep_oracle(reference.result, reference.text, seed=1, tally=tally)
    assert (tally.attempted, tally.failed) == (4, 0)


def test_corrupted_output_drives_failed_share_above_zero():
    reference = checks.reference("sweep", SMALL_SWEEP)
    rows = checks.grid_rows(reference.text)
    latency = rows[0][-4]
    corrupted = reference.text.replace(f" {latency} ", f" {latency}1 ", 1)
    assert corrupted != reference.text

    tally = checks.Tally()
    failed, quarantined = reference.check(_cli_output(corrupted))
    tally.add(reference.items, failed + quarantined, "differing")
    checks.sweep_oracle(reference.result, corrupted, seed=1, tally=tally)
    assert tally.failed == 2
    assert tally.failed_share > 0

    truncated = checks.Tally()
    failed, _ = reference.check(_cli_output("\n".join(reference.text.splitlines()[:5])))
    truncated.add(reference.items, failed, "truncated")
    assert truncated.failed_share == 1.0


def test_quarantined_items_are_counted():
    assert checks.quarantined("x\nquarantined workloads: 3 (each retried once)\n") == 3
    assert checks.quarantined("no failures\n") == 0


def test_benchmark_file_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["end_to_end"]] == list(run.END_TO_END)
    assert [entry["unit"] for entry in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [entry["name"] for entry in spec["per_layer"]] == list(run.PER_LAYER)
    assert [entry["unit"] for entry in spec["per_layer"]] == list(run.PER_LAYER.values())
    assert [entry["name"] for entry in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "report", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
