"""Tests for the unified evaluation session (workloads, cache, parallelism).

The acceptance properties the session layer guarantees:

* a cached result is bit-identical to a freshly simulated one (including
  after an on-disk JSON round trip),
* workload fingerprints are stable across processes and change whenever
  anything that affects the simulation changes (compiler flags included),
* ``run_many`` returns results in input order, identical to serial
  execution, with or without a process pool, and
* a full report run simulates each unique workload exactly once.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.harness.runner import build_report, run_experiments
from repro.isa.compiler import FusionCompiler
from repro.nas import mutate
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
    Workload,
    compile_program,
    execute_workload,
    fixed_bitwidth_network,
    layer_cache_key,
    load_network,
    program_cache_key,
    tiling_cache_key,
)
from repro.session.cache import network_result_from_dict, network_result_to_dict

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_FAST = ("LeNet-5", "LSTM")


class TestFingerprints:
    def test_config_fingerprint_is_deterministic(self):
        a = BitFusionConfig.eyeriss_matched()
        b = BitFusionConfig.eyeriss_matched()
        assert a.fingerprint() == b.fingerprint()

    def test_config_fingerprint_changes_with_any_field(self):
        base = BitFusionConfig.eyeriss_matched()
        assert base.fingerprint() != base.with_bandwidth(256).fingerprint()
        assert base.fingerprint() != base.with_batch_size(1).fingerprint()

    def test_network_fingerprint_is_deterministic(self):
        assert models.load("LeNet-5").fingerprint() == models.load("LeNet-5").fingerprint()

    def test_network_fingerprint_sees_structure_changes(self):
        network = models.load("LeNet-5")
        assert network.fingerprint() != fixed_bitwidth_network(network, 8).fingerprint()

    def test_workload_fingerprint_stable_across_processes(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        code = (
            "from repro.session import Workload; "
            "print(Workload.bitfusion('LeNet-5', batch_size=4).fingerprint())"
        )
        env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONHASHSEED": "random"}
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert outputs == {workload.fingerprint()}

    def test_compiler_flags_are_part_of_the_fingerprint(self):
        base = Workload.bitfusion("LeNet-5")
        assert (
            base.fingerprint()
            != Workload.bitfusion("LeNet-5", enable_loop_ordering=False).fingerprint()
        )
        assert (
            base.fingerprint()
            != Workload.bitfusion("LeNet-5", enable_layer_fusion=False).fingerprint()
        )
        assert base.fingerprint() != Workload.bitfusion("LeNet-5", fixed_bits=8).fingerprint()

    def test_artifact_cache_keys_are_pinned(self):
        # Every cache directory on disk is addressed by these digests: a
        # change that moves them silently leaves all existing caches cold,
        # so it must fail here and come with a deliberate manifest bump.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        compiler = FusionCompiler(workload.config)
        requests = compiler.tiling_requests(load_network(workload), batch_size=4)
        assert program_cache_key(workload) == (
            "5d716d4d5b87c36e2c49410301e4825b2e748d024d4468e64fc628db5f6a076d"
        )
        assert [layer_cache_key(compiled, workload.config) for compiled in program] == [
            "651def6bbb869805fdbd8b80a458e9514a231110cbfdffbf0b1beec77c574aac",
            "f97eb1dc3ad7022510ccb5e8e4261833cc58c7c9dffdc75ab4d395d193e45694",
            "9d2b5c94d182f8988b904c040e7c8b112aa0ce670934134cb4f40c71b834f19b",
            "86149ecd5d3aa1a1b91000e3e5f455b9fb5c9969084786c8b579a8c3760613f5",
        ]
        assert [
            tiling_cache_key(gemm, orders, workload.config) for gemm, orders in requests
        ] == [
            "59e9bc1308003f48d6bf8a1c2597bd6f019a7489aba88b829c25cd3602ba14e9",
            "eddf75a8522258ec1bf354a2a6d9b8d1f50c3ea4078ba04fd9e2de442632e007",
            "3259b01253b2eebe73d438b4aa7027315cf0c3c633963583e7aac2be6b883f7b",
            "bfc4f3a341c8d05ab9441993ab7b3631f27d33d450fa8fc4bc01fb0856caca82",
        ]

    def test_content_fingerprints_are_pinned(self):
        # Workload, config and network digests feed every artifact key
        # above; pinning them separately names the layer that moved.
        assert Workload.bitfusion("LeNet-5", batch_size=4).fingerprint() == (
            "1aeea7501b0405b50744fa1d03a073738c44af7cec6443df3af8b0785269bc97"
        )
        assert BitFusionConfig.eyeriss_matched().fingerprint() == (
            "ee390008a40e076bc592c9bdabd1c64b0aaf9177721a66eaac84b9adcdaf3ce3"
        )
        resnet = models.load("ResNet-18")
        assert resnet.fingerprint() == (
            "ebf77bf8a80062181e8f52f8fc027118926c0be8be27958f09e0aef249790e19"
        )
        assert mutate(resnet, random.Random(7)).fingerprint() == (
            "6eea14af4eb65c3d20fe2be5e46fb5ea3ccf7ce3157f371fb6137493eb39279b"
        )

    def test_variant_and_platform_distinguish_workloads(self):
        fingerprints = {
            Workload.bitfusion("AlexNet").fingerprint(),
            Workload.eyeriss("AlexNet").fingerprint(),
            Workload.stripes("AlexNet").fingerprint(),
            Workload.temporal("AlexNet").fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_unknown_platform_and_benchmark_rejected(self):
        with pytest.raises(ValueError):
            Workload(platform="tpu", network="LeNet-5")
        with pytest.raises(ValueError):
            Workload(platform="bitfusion", network="NoSuchNet")

    def test_gpu_workload_requires_a_device_spec(self):
        with pytest.raises(ValueError, match="device spec"):
            Workload(platform="gpu", network="LeNet-5", gpu_precision="fp32")

    def test_benchmark_aliases_canonicalize_to_one_fingerprint(self):
        canonical = Workload.bitfusion("AlexNet")
        alias = Workload.bitfusion("alexnet")
        assert alias.network == "AlexNet"
        assert alias.fingerprint() == canonical.fingerprint()

    def test_bare_and_named_constructors_share_one_fingerprint(self):
        bare = Workload(platform="bitfusion", network="LeNet-5", batch_size=4)
        named = Workload.bitfusion("LeNet-5", batch_size=4)
        assert bare.fingerprint() == named.fingerprint()
        assert bare.config == named.config

    def test_temporal_workload_rejects_a_config(self):
        with pytest.raises(ValueError, match="temporal"):
            Workload(
                platform="temporal",
                network="LeNet-5",
                config=BitFusionConfig.eyeriss_matched(),
            )


class TestResultCache:
    def test_cached_result_is_bit_identical_to_fresh(self):
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        cached = session.run(workload)
        fresh = execute_workload(workload)
        assert network_result_to_dict(cached) == network_result_to_dict(fresh)

    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        workload = Workload.bitfusion("LSTM", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run(workload)
        with EvaluationSession(cache_dir=tmp_path) as second:
            restored = second.run(workload)
        assert second.stats.disk_hits == 1
        assert second.stats.unique_executions == 0
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)
        assert restored.latency_per_inference_s == fresh.latency_per_inference_s
        assert restored.energy.total == fresh.energy.total

    def test_serialization_round_trip_preserves_every_field(self):
        result = execute_workload(Workload.eyeriss("LeNet-5", batch_size=2))
        payload = network_result_to_dict(result)
        assert network_result_to_dict(network_result_from_dict(payload)) == payload

    def test_cache_rejects_unknown_payloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("key", object())

    def test_corrupted_block_artifact_is_a_miss_and_gets_rewritten(self, tmp_path):
        # The corruption is a newer pack record for block 0's layer key
        # whose payload does not decode (torn record tails are covered in
        # test_pack_store.py).  Segments are backdated between steps so
        # "newer" never hinges on the filesystem's timestamp granularity.
        def age_segments() -> None:
            for segment in tmp_path.glob("pack-*.seg"):
                stamp = segment.stat().st_mtime_ns - 60 * 10**9
                os.utime(segment, ns=(stamp, stamp))

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run(workload)
        program = compile_program(workload)
        corrupted = layer_cache_key(program[0], workload.config)
        age_segments()
        store = SegmentedStore(tmp_path)
        store.append([(corrupted, {"kind": "layer", "workload": {}, "payload": {"bad": 1}})])
        store.close()
        age_segments()
        with EvaluationSession(cache_dir=tmp_path) as second:
            recovered = second.run(workload)
        assert second.stats.misses == 1
        assert second.stats.unique_executions == 1
        # Only the corrupted block was re-simulated; the compiled program and
        # every other block result came straight from disk.
        assert second.stats.programs.misses == 0
        assert second.stats.blocks.misses == 1
        assert second.stats.blocks.hits == len(program) - 1
        assert network_result_to_dict(recovered) == network_result_to_dict(fresh)
        # The fresh simulation repaired the on-disk entry.
        with EvaluationSession(cache_dir=tmp_path) as third:
            third.run(workload)
            assert third.stats.disk_hits == 1
            assert third.stats.unique_executions == 0

    def test_corrupted_manifest_is_rebuilt_not_fatal(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run(workload)
        (tmp_path / "manifest.json").write_text("garbage", encoding="utf-8")
        with EvaluationSession(cache_dir=tmp_path) as second:
            restored = second.run(workload)
        assert second.stats.unique_executions == 0
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)

    def test_program_stats_disk_round_trip(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5")
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.compile_stats(workload)
        with EvaluationSession(cache_dir=tmp_path) as second:
            restored = second.compile_stats(workload)
        assert restored == fresh
        assert second.stats.disk_hits == 1


class TestEvaluationSession:
    def test_second_run_is_a_hit_not_a_simulation(self):
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        first = session.run(workload)
        second = session.run(workload)
        assert first is second
        assert session.stats.hits == 1
        assert session.stats.misses == 1
        assert session.stats.unique_executions == 1

    def test_run_many_matches_serial_order(self):
        workloads = [Workload.bitfusion(name, batch_size=4) for name in _FAST]
        workloads += [Workload.eyeriss(name, batch_size=4) for name in _FAST]
        batch = EvaluationSession().run_many(workloads)
        serial = [execute_workload(w) for w in workloads]
        assert [network_result_to_dict(r) for r in batch] == [
            network_result_to_dict(r) for r in serial
        ]

    def test_parallel_run_many_is_byte_identical_to_serial(self):
        workloads = [Workload.bitfusion(name, batch_size=4) for name in _FAST]
        workloads += [Workload.stripes(name, batch_size=4) for name in _FAST]
        with EvaluationSession(jobs=2) as parallel:
            parallel_results = parallel.run_many(workloads)
        serial_results = EvaluationSession().run_many(workloads)
        assert [network_result_to_dict(r) for r in parallel_results] == [
            network_result_to_dict(r) for r in serial_results
        ]

    def test_duplicate_workloads_in_one_batch_simulate_once(self):
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        results = session.run_many([workload, workload, workload])
        assert session.stats.unique_executions == 1
        assert results[0] is results[1] is results[2]

    def test_duplicate_of_pending_workload_is_dedup_not_hit(self):
        # A duplicate of a workload that is queued but not yet executed was
        # served by deduplication, not by the cache: counting it as a hit
        # would inflate the reported hit rate.
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        session.run_many([workload, workload, workload])
        assert session.stats.misses == 1
        assert session.stats.hits == 0
        assert session.stats.deduped == 2
        assert session.stats.hit_rate == 0.0
        # Duplicates of an already-cached workload, by contrast, are hits.
        session.run_many([workload, workload])
        assert session.stats.hits == 2
        assert session.stats.misses == 1
        assert session.stats.deduped == 2
        assert session.stats.unique_executions == 1

    def test_flag_change_invalidates_cached_result(self):
        session = EvaluationSession()
        session.run(Workload.bitfusion("LeNet-5", batch_size=4))
        session.run(Workload.bitfusion("LeNet-5", batch_size=4, enable_loop_ordering=False))
        assert session.stats.misses == 2
        assert session.stats.hits == 0
        assert session.stats.unique_executions == 2

    def test_sweep_addressable_by_axes(self):
        session = EvaluationSession()
        sweep = session.sweep(["LeNet-5"], batch_sizes=(1, 4), bandwidths=(64, 128))
        assert len(sweep) == 4
        latency = sweep.latency(network="LeNet-5", batch_size=4, bandwidth=128)
        assert latency > 0
        with pytest.raises(KeyError):
            sweep.result(network="LeNet-5")  # ambiguous: four matching points

    def test_sweep_bandwidth_axis_rejected_for_baselines(self):
        with pytest.raises(ValueError):
            EvaluationSession().sweep(["LeNet-5"], platform="eyeriss", bandwidths=(64,))

    def test_sweep_bitfusion_only_parameters_rejected_for_baselines(self):
        session = EvaluationSession()
        with pytest.raises(ValueError):
            session.sweep(["LeNet-5"], platform="stripes", fixed_bits=8)
        with pytest.raises(ValueError):
            session.sweep(["LeNet-5"], platform="eyeriss", enable_layer_fusion=False)

    def test_baseline_variant_runs_regular_model(self):
        network = load_network(Workload.eyeriss("AlexNet"))
        assert network.fingerprint() == models.load_baseline_variant("AlexNet").fingerprint()


class TestReportAcceptance:
    def test_full_report_simulates_each_unique_workload_exactly_once(self):
        session = EvaluationSession()
        run_experiments(benchmarks=_FAST, session=session)
        assert session.stats.unique_executions > 0
        # The headline guarantee: no workload is ever simulated twice...
        assert session.stats.max_executions_per_workload() == 1
        assert session.stats.unique_executions == session.stats.misses
        # ...and the figures genuinely share workloads through the cache.
        assert session.stats.hits > 0

    def test_parallel_report_is_byte_identical_to_serial(self):
        keys = ["fig13", "fig15"]
        serial = build_report(keys=keys, benchmarks=_FAST)
        parallel = build_report(keys=keys, benchmarks=_FAST, jobs=2)

        def tables(report: str) -> list[str]:
            return [
                line
                for line in report.splitlines()
                if not line.startswith("_(generated in")
                and not line.startswith("worker processes")
                and not line.startswith("parallel workers")
                and not line.startswith("backend")
                and not line.startswith("per-worker")
                and not line.startswith("compile time")
                and not line.startswith("sim time")
            ]

        assert tables(serial) == tables(parallel)

    def test_report_header_and_statistics(self):
        import repro

        report = build_report(keys=["tab02"], benchmarks=("LeNet-5",))
        assert f"_repro {repro.__version__}_" in report
        assert "## Evaluation session statistics" in report
