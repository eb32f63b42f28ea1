"""Tests for Program serialization and the staged pipeline's core invariant.

The three guarantees the serializable-program refactor rests on:

* a compiled ``Program`` round-trips through its JSON payload with every
  instruction, layer, tiling plan and fusion annotation intact,
* program and block fingerprints are stable across processes (they key the
  shared on-disk artifact cache), and
* a ``NetworkResult`` produced by the staged compile → simulate-blocks →
  compose pipeline — including one whose program came back from disk — is
  byte-identical to the monolithic ``evaluate()`` path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import layer_from_dict, layer_to_dict
from repro.isa.compiler import FusionCompiler
from repro.isa.program import CompiledBlock, Program
from repro.session import (
    EvaluationSession,
    ResultCache,
    Workload,
    compile_program,
    execute_workload,
    program_cache_key,
)
from repro.session.cache import network_result_to_dict
from repro.session.engine import WorkUnit, execute_work_unit

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _compile(name: str, batch_size: int = 4) -> Program:
    network = models.load(name)
    compiler = FusionCompiler(BitFusionConfig.eyeriss_matched(batch_size=batch_size))
    return compiler.compile(network, batch_size=batch_size)


class TestLayerSerialization:
    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "AlexNet", "Cifar-10"])
    def test_every_layer_round_trips(self, benchmark_name):
        for layer in models.load(benchmark_name):
            payload = json.loads(json.dumps(layer_to_dict(layer)))
            assert layer_from_dict(payload) == layer

    def test_unknown_layer_type_rejected(self):
        with pytest.raises(ValueError, match="unknown layer type"):
            layer_from_dict({"type": "HologramLayer", "name": "x"})

    def test_recurrent_gates_are_recomputed_not_trusted(self):
        lstm = next(iter(models.load("LSTM")))
        payload = layer_to_dict(lstm)
        payload["gates"] = 99  # derived field: must be ignored on rebuild
        assert layer_from_dict(payload).gates == lstm.gates


class TestProgramSerialization:
    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "SVHN"])
    def test_round_trip_equality(self, benchmark_name):
        program = _compile(benchmark_name)
        payload = json.loads(json.dumps(program.to_dict(), sort_keys=True))
        restored = Program.from_dict(payload)
        assert restored.network_name == program.network_name
        assert len(restored) == len(program)
        for original, rebuilt in zip(program, restored):
            assert rebuilt.block.instructions == original.block.instructions
            assert rebuilt.layer == original.layer
            assert rebuilt.tiling == original.tiling
            assert rebuilt.loop_order == original.loop_order
            assert rebuilt.fused_layers == original.fused_layers
        assert restored.to_dict() == program.to_dict()

    def test_fingerprint_survives_round_trip(self):
        program = _compile("LeNet-5")
        restored = Program.from_dict(json.loads(json.dumps(program.to_dict())))
        assert restored.fingerprint() == program.fingerprint()
        for original, rebuilt in zip(program, restored):
            assert rebuilt.fingerprint() == original.fingerprint()

    def test_fingerprint_sees_content_changes(self):
        base = _compile("LeNet-5", batch_size=4)
        other_batch = _compile("LeNet-5", batch_size=8)
        assert base.fingerprint() != other_batch.fingerprint()

    def test_corrupted_payload_fails_validation(self):
        program = _compile("LeNet-5")
        payload = program.to_dict()
        # Truncate the first block's image so setup/block-end framing breaks.
        payload["blocks"][0]["block"]["image"] = payload["blocks"][0]["block"]["image"][:8]
        with pytest.raises(ValueError):
            Program.from_dict(payload)

    def test_fingerprint_stable_across_processes(self):
        program = _compile("LeNet-5")
        code = (
            "from repro.dnn import models; "
            "from repro.core.config import BitFusionConfig; "
            "from repro.isa.compiler import FusionCompiler; "
            "compiler = FusionCompiler(BitFusionConfig.eyeriss_matched(batch_size=4)); "
            "print(compiler.compile(models.load('LeNet-5'), batch_size=4).fingerprint())"
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
        assert outputs == {program.fingerprint()}


class TestStagedPipelineEquivalence:
    @pytest.mark.parametrize(
        "workload",
        [
            Workload.bitfusion("LeNet-5", batch_size=4),
            Workload.bitfusion("LSTM", batch_size=4),
            Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False),
            Workload.bitfusion("LeNet-5", batch_size=4, enable_loop_ordering=False),
            Workload.bitfusion("LeNet-5", batch_size=4, fixed_bits=8),
            Workload.eyeriss("LeNet-5", batch_size=4),
            Workload.stripes("LSTM", batch_size=4),
            Workload.temporal("LeNet-5", batch_size=4),
        ],
        ids=lambda w: f"{w.platform}-{w.network}-b{w.batch_size}",
    )
    def test_staged_result_is_byte_identical_to_monolithic(self, workload):
        staged = EvaluationSession().run(workload)
        monolithic = execute_workload(workload)
        assert network_result_to_dict(staged) == network_result_to_dict(monolithic)

    def test_work_unit_blocks_are_byte_identical_to_monolithic(self):
        # A worker simulating blocks from the serialized program payload must
        # reproduce the monolithic per-layer results bit for bit.
        workload = Workload.bitfusion("LSTM", batch_size=4)
        program = compile_program(workload)
        unit = WorkUnit(
            workload=workload,
            program_payload=program.to_dict(),
            simulate_indices=tuple(range(len(program))),
        )
        reply = execute_work_unit(unit)
        assert reply.error is None
        assert [index for index, _ in reply.layers] == list(range(len(program)))
        monolithic = execute_workload(workload)
        assert [layer.name for _, layer in reply.layers] == [
            layer.name for layer in monolithic.layers
        ]
        assert tuple(layer for _, layer in reply.layers) == monolithic.layers

    def test_disk_restored_program_simulates_byte_identical(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        monolithic = execute_workload(workload)
        # The legacy json layout is forced so block records can be deleted
        # per-file below; the pack-store path is covered in
        # test_pack_store.py.
        with EvaluationSession(cache=ResultCache(tmp_path, layout="json")) as first:
            first.run(workload)
        # A fresh session restores the compiled program from disk but must
        # re-simulate every block: same result, bit for bit.
        with EvaluationSession(cache=ResultCache(tmp_path, layout="json")) as second:
            second.cache.clear_memory()
            for path in tmp_path.glob("*.json"):
                entry = path.read_text(encoding="utf-8")
                # Drop the simulated-block records.
                if '"kind": "layer"' in entry:
                    path.unlink()
            restored = second.run(workload)
        assert second.stats.programs.hits == 1
        assert second.stats.blocks.misses > 0
        assert network_result_to_dict(restored) == network_result_to_dict(monolithic)

    def test_program_cache_key_ignores_simulation_only_parameters(self):
        base = Workload.bitfusion("LeNet-5", batch_size=4)
        bandwidth = Workload.bitfusion(
            "LeNet-5",
            batch_size=4,
            config=BitFusionConfig.eyeriss_matched(
                bandwidth_bits_per_cycle=512, batch_size=4
            ),
        )
        assert base.fingerprint() != bandwidth.fingerprint()
        assert program_cache_key(base) == program_cache_key(bandwidth)
        # But anything the compiler reads does change the key.
        other_batch = Workload.bitfusion("LeNet-5", batch_size=8)
        no_fusion = Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False)
        assert program_cache_key(base) != program_cache_key(other_batch)
        assert program_cache_key(base) != program_cache_key(no_fusion)

    def test_compiled_block_from_dict_accepts_own_output(self):
        program = _compile("LeNet-5")
        for compiled in program:
            assert CompiledBlock.from_dict(compiled.to_dict()).to_dict() == compiled.to_dict()

    def test_compile_program_rejects_non_bitfusion(self):
        with pytest.raises(ValueError, match="bitfusion"):
            compile_program(Workload.eyeriss("LeNet-5"))
