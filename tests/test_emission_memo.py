"""Exactness of the compiler's emission memo and the copy-free cache keys.

The compiler emits each distinct (name-free) block once per process and
serves every later request by renaming; payloads are built with
:func:`~repro.fingerprint.field_dict` instead of ``dataclasses.asdict``; and
the layer cache key is memoized on the block.  None of it may change a
single byte of any payload, fingerprint or cache key.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.baselines.eyeriss import EyerissConfig
from repro.baselines.gpu import TEGRA_X2, TITAN_XP
from repro.baselines.stripes import StripesConfig
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ActivationLayer, FCLayer
from repro.dnn.network import Network
from repro.fingerprint import field_dict
from repro.isa import compiler as compiler_module
from repro.isa.compiler import FusionCompiler, clear_emission_memo
from repro.isa.optimizations import fuse_layers
from repro.nas import mutate
from repro.session import Workload, layer_cache_key
from repro.session.engine import program_content_key

_CONFIG = BitFusionConfig.eyeriss_matched(batch_size=4)


def _zoo() -> list[Network]:
    names = list(models.BENCHMARKS)
    return [models.load(name) for name in names] + [
        models.load_baseline_variant(name) for name in names
    ]


def _candidates(count: int = 20) -> list[Network]:
    rng = random.Random(2018)
    zoo = [models.load(name) for name in models.BENCHMARKS]
    axes = ("width", "depth", "bits", "kernel")
    candidates = []
    for index in range(count):
        network = zoo[index % len(zoo)]
        for _ in range(1 + index % 3):
            network = mutate(network, rng, axes=axes)
        candidates.append(network)
    return candidates


def _twins() -> Network:
    """Two same-content layers (and followers) under different names."""
    return Network(
        "twins",
        [
            FCLayer("fc_a", in_features=64, out_features=64),
            ActivationLayer("relu_a", elements=64),
            FCLayer("fc_b", in_features=64, out_features=64),
            ActivationLayer("relu_b", elements=64),
        ],
    )


def _memo_free_blocks(compiler: FusionCompiler, network: Network):
    """Each block compiled alone from an empty memo: the emission reference."""
    blocks = []
    for group in fuse_layers(network.layers, enable=compiler.enable_layer_fusion).groups:
        clear_emission_memo()
        head, followers = group[0], tuple(group[1:])
        if head.has_gemm():
            blocks.append(compiler.compile_compute_layer(head, fused=followers))
        else:
            blocks.append(compiler.compile_auxiliary_layer(head))
    return blocks


def _identity(compiled):
    return compiled.to_dict(), compiled.fingerprint(), compiled.layer_fingerprint()


class TestFieldDict:
    def test_matches_asdict_for_every_zoo_layer(self):
        classes = set()
        for network in _zoo():
            for layer in network:
                classes.add(type(layer).__name__)
                assert field_dict(layer) == dataclasses.asdict(layer)
                assert list(field_dict(layer)) == list(dataclasses.asdict(layer))
        assert {"ConvLayer", "FCLayer", "PoolLayer", "ActivationLayer", "LSTMLayer"} <= classes

    def test_matches_asdict_for_gemms_plans_and_configs(self):
        compiler = FusionCompiler(_CONFIG)
        program = compiler.compile(models.load("AlexNet"))
        for compiled in program:
            assert field_dict(compiled.tiling.workload) == dataclasses.asdict(
                compiled.tiling.workload
            )
            assert field_dict(compiled.tiling) == dataclasses.asdict(compiled.tiling)
        for config in (
            BitFusionConfig(),
            BitFusionConfig.gpu_scaled_16nm(),
            BitFusionConfig().with_technology("16nm"),
            EyerissConfig(),
            StripesConfig(),
            TEGRA_X2,
            TITAN_XP,
        ):
            assert field_dict(config) == dataclasses.asdict(config)
            assert list(field_dict(config)) == list(dataclasses.asdict(config))


class TestEmissionMemo:
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_memoized_blocks_equal_memo_free_emission(self, batch_size):
        config = _CONFIG.with_batch_size(batch_size)
        compiler = FusionCompiler(config)
        networks = _zoo() + _candidates() + [_twins()]
        references = {id(n): _memo_free_blocks(compiler, n) for n in networks}

        clear_emission_memo()
        cold = {id(n): compiler.compile(n).blocks for n in networks}
        # Fill every memo on the memoized blocks before they are cloned.
        cold_identities = {key: [_identity(b) for b in blocks] for key, blocks in cold.items()}
        emitted = len(compiler_module._EMISSIONS)
        warm = {id(n): FusionCompiler(config).compile(n).blocks for n in networks}
        assert len(compiler_module._EMISSIONS) == emitted  # warm: every block renamed

        for network in networks:
            groups = fuse_layers(network.layers).groups
            expected = [_identity(reference) for reference in references[id(network)]]
            assert cold_identities[id(network)] == expected
            for run in (cold, warm):
                blocks = run[id(network)]
                assert len(blocks) == len(groups)
                for compiled, reference, group in zip(blocks, references[id(network)], groups):
                    assert _identity(compiled) == _identity(reference)
                    # The block carries its own requester's layers and name.
                    assert compiled.layer is group[0]
                    assert all(a is b for a, b in zip(compiled.fused_layers, group[1:]))
                    assert compiled.name == reference.name

    def test_same_content_layers_share_one_emission(self):
        clear_emission_memo()
        first, second = FusionCompiler(_CONFIG).compile(_twins())
        assert (first.name, second.name) == ("fc_a+relu_a", "fc_b+relu_b")
        assert first.block.instructions is second.block.instructions
        assert first.layer_fingerprint() == second.layer_fingerprint()
        assert first.fingerprint() != second.fingerprint()
        assert len(compiler_module._EMISSIONS) == 1

    def test_a_memo_hit_still_rejects_an_empty_block_name(self):
        clear_emission_memo()
        compiler = FusionCompiler(_CONFIG)
        compiler.compile_compute_layer(FCLayer("fc", in_features=8, out_features=8))
        with pytest.raises(ValueError, match="non-empty"):
            compiler.compile_compute_layer(FCLayer("", in_features=8, out_features=8))

    def test_layer_value_types_are_part_of_the_key(self):
        # 64 and 64.0 compare equal, but the layer fingerprint serializes
        # them differently, so they must not share an emission.
        clear_emission_memo()
        compiler = FusionCompiler(_CONFIG)
        exact = compiler.compile_compute_layer(FCLayer("fc", in_features=64, out_features=64))
        floaty = compiler.compile_compute_layer(FCLayer("fc", in_features=64, out_features=64.0))
        assert len(compiler_module._EMISSIONS) == 2
        assert exact.layer_fingerprint() != floaty.layer_fingerprint()


class TestKeyMemos:
    def test_pickled_memo_is_checked_against_the_config(self):
        clear_emission_memo()
        compiled = FusionCompiler(_CONFIG).compile(models.load("LeNet-5"))[0]
        key = layer_cache_key(compiled, _CONFIG)
        assert compiled.__dict__["_layer_key"] == (_CONFIG, key)

        clone = pickle.loads(pickle.dumps(compiled))
        assert "_layer_key" in clone.__dict__
        equal_config = BitFusionConfig.eyeriss_matched(batch_size=4)
        assert equal_config == _CONFIG and equal_config is not _CONFIG
        assert layer_cache_key(clone, equal_config) == key

        other_config = _CONFIG.with_bandwidth(256)
        clear_emission_memo()
        fresh = FusionCompiler(_CONFIG).compile(models.load("LeNet-5"))[0]
        assert "_layer_key" not in fresh.__dict__
        expected = layer_cache_key(fresh, other_config)
        assert expected != key
        assert layer_cache_key(clone, other_config) == expected
        assert layer_cache_key(clone, _CONFIG) == key

    def test_program_key_memo_tells_value_types_apart(self):
        # 32 == 32.0, but the two serialize (and so key) differently.
        digest = models.load("LeNet-5").fingerprint()
        as_float = program_content_key(digest, 4, BitFusionConfig(ibuf_kb=32.0))
        as_int = program_content_key(digest, 4, BitFusionConfig(ibuf_kb=32))
        assert as_float != as_int
        assert as_float == program_content_key(digest, 4, BitFusionConfig())


class TestWorkloadFingerprintMemo:
    def test_memo_survives_pickling_and_never_leaks_to_copies(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        digest = workload.fingerprint()
        assert workload.__dict__["_fingerprint"] == digest
        assert pickle.loads(pickle.dumps(workload)).fingerprint() == digest
        unfused = dataclasses.replace(workload, enable_layer_fusion=False)
        assert "_fingerprint" not in unfused.__dict__
        assert unfused.fingerprint() == (
            Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False).fingerprint()
        )
        assert unfused.fingerprint() != digest
