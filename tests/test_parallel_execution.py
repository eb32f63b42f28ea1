"""Tests for the cache-aware parallel worker protocol.

The guarantees of the warm-artifact parallel path:

* a partially-warm ``run_many(jobs=2)`` performs zero redundant
  compilations (program compiles == genuinely new networks) and ships
  workers only the blocks absent from the cache,
* parallel output stays byte-identical to the serial path, experiments
  included,
* in-batch workloads sharing block keys simulate each block once (the
  duplicate defers to the claiming unit instead of re-simulating), and
* one raising workload does not abort the batch: surviving results are
  stored, and the raised error names the failing workload.
"""

from __future__ import annotations

import pytest

from repro.core.config import BitFusionConfig
from repro.harness.runner import run_experiments
from repro.session import (
    EvaluationSession,
    Workload,
    WorkloadExecutionError,
    compile_program,
    execute_workload,
)
from repro.session import engine
from repro.session.cache import network_result_to_dict
from repro.session.engine import WorkUnit, execute_work_unit

_FAST = ("LeNet-5", "LSTM")


def _dicts(results):
    return [network_result_to_dict(result) for result in results]


class _InlinePool:
    """A pool stand-in that runs work units in-process.

    Used where the test needs monkeypatching to reach "worker" execution
    (patches do not cross real process boundaries); the session drives it
    through the same ``submit``/``shutdown`` surface as a real executor.
    """

    class _Future:
        def __init__(self, value):
            self._value = value

        def result(self):
            return self._value

    def submit(self, fn, *args):
        return self._Future(fn(*args))

    def shutdown(self):
        pass


class TestPartiallyWarmParallel:
    def test_partially_warm_run_compiles_only_new_networks(self, tmp_path):
        seed = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as warmup:
            warmup.run(seed)

        superset = [
            seed,
            Workload.bitfusion("LSTM", batch_size=4),
            Workload.bitfusion("LeNet-5", batch_size=2),
        ]
        serial = [execute_workload(workload) for workload in superset]
        with EvaluationSession(cache_dir=tmp_path, jobs=2) as warm:
            results = warm.run_many(superset)

        assert _dicts(results) == _dicts(serial)
        # The seeded workload composed straight from disk artifacts...
        assert warm.stats.hits == 1
        assert warm.stats.misses == 2
        # ...and compilations happened exactly once per genuinely new
        # network (LSTM b4 and LeNet-5 b2; the seeded program was reused).
        assert warm.stats.programs.misses == 2
        assert warm.stats.programs.hits == 1
        # Workers simulated exactly the blocks absent from the cache.
        assert warm.stats.workers.units == 2
        assert warm.stats.workers.remote_blocks == warm.stats.blocks.misses
        assert warm.stats.workers.remote_blocks == len(
            compile_program(superset[1])
        ) + len(compile_program(superset[2]))

    def test_fully_warm_parallel_rerun_does_no_work(self, tmp_path):
        workloads = [
            Workload.bitfusion("LeNet-5", batch_size=4),
            Workload.bitfusion("LSTM", batch_size=4),
        ]
        with EvaluationSession(cache_dir=tmp_path, jobs=2) as cold:
            first = cold.run_many(workloads)
        with EvaluationSession(cache_dir=tmp_path, jobs=2) as warm:
            second = warm.run_many(workloads)
        assert _dicts(first) == _dicts(second)
        assert warm.stats.unique_executions == 0
        assert warm.stats.programs.misses == 0
        assert warm.stats.blocks.misses == 0
        assert warm.stats.workers.units == 0
        assert warm.stats.workers.remote_blocks == 0

    def test_in_batch_shared_blocks_simulate_once(self):
        # Two workloads differing only in frequency share every block key
        # (frequency is composition metadata); the second must defer to the
        # first instead of simulating the same blocks twice.
        base = BitFusionConfig.eyeriss_matched(batch_size=4)
        workloads = [
            Workload.bitfusion("LeNet-5", batch_size=4, config=base),
            Workload.bitfusion(
                "LeNet-5", batch_size=4, config=base.with_frequency(250.0)
            ),
        ]
        serial = [execute_workload(workload) for workload in workloads]
        blocks = len(compile_program(workloads[0]))
        with EvaluationSession(jobs=2) as session:
            results = session.run_many(workloads)
        assert _dicts(results) == _dicts(serial)
        assert session.stats.programs.misses == 1
        assert session.stats.programs.hits == 1
        assert session.stats.blocks.misses == blocks
        assert session.stats.workers.remote_blocks == blocks
        # The deferred unit's blocks were reused, not re-simulated.
        assert session.stats.workers.reused_blocks == blocks

    def test_in_batch_identical_layer_content_defers_not_resimulates(self):
        # Two blocks with identical layer *content* but different names
        # (one layer key) must simulate once in a parallel batch, exactly
        # as they do serially.
        from dataclasses import replace as dc_replace

        from repro.isa.block import InstructionBlock
        from repro.isa.program import CompiledBlock, Program
        from repro.session.engine import program_cache_key

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        original = compile_program(workload)[0]
        renamed = CompiledBlock(
            block=InstructionBlock("renamed-twin", original.block.instructions),
            layer=dc_replace(original.layer, name="renamed-twin"),
            tiling=original.tiling,
            loop_order=original.loop_order,
            fused_layers=tuple(
                dc_replace(layer, name=f"renamed-{i}")
                for i, layer in enumerate(original.fused_layers)
            ),
        )
        doctored = Program("LeNet-5", [original, renamed])

        def seeded_session(**kwargs):
            session = EvaluationSession(**kwargs)
            session.cache.put(program_cache_key(workload), doctored)
            return session

        filler = Workload.bitfusion("LSTM", batch_size=4)
        with seeded_session() as serial_session:
            serial_results = serial_session.run_many([workload, filler])
        with seeded_session(jobs=2) as parallel_session:
            parallel_results = parallel_session.run_many([workload, filler])

        assert _dicts(parallel_results) == _dicts(serial_results)
        for session in (serial_session, parallel_session):
            # The twin shares the original's layer key: served from the
            # cache, never simulated.
            assert session.stats.blocks.misses == 1 + len(compile_program(filler))
            assert session.stats.blocks.hits == 1
        assert (
            parallel_session.stats.workers.remote_blocks
            == parallel_session.stats.blocks.misses
        )

    def test_partially_warm_parallel_experiments_match_serial(self, tmp_path):
        with EvaluationSession() as reference:
            serial = [
                rendered for _, rendered, _ in run_experiments(benchmarks=_FAST, session=reference)
            ]
        with EvaluationSession(cache_dir=tmp_path) as warmup:
            run_experiments(keys=["fig16"], benchmarks=_FAST, session=warmup)
        with EvaluationSession(cache_dir=tmp_path, jobs=2) as warm:
            parallel = [
                rendered for _, rendered, _ in run_experiments(benchmarks=_FAST, session=warm)
            ]
        assert parallel == serial
        # The warm-started parallel report reused the seeded artifacts and
        # never executed any workload twice.
        assert warm.stats.max_executions_per_workload() == 1
        assert warm.stats.workers.remote_blocks == warm.stats.blocks.misses


class TestWorkerFailureIsolation:
    def test_worker_error_carries_the_workload_label(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        unit = WorkUnit(
            workload=workload,
            program_payload={"network_name": "LeNet-5", "blocks": [{"bogus": True}]},
            simulate_indices=(0,),
        )
        reply = execute_work_unit(unit)
        assert reply.error is not None
        assert "bitfusion/LeNet-5" in reply.error
        assert "batch=4" in reply.error

    def test_one_failing_workload_does_not_abort_the_batch(self, monkeypatch):
        class _FailingSimulator(engine.BitFusionSimulator):
            def run_selected_blocks(self, program, indices):
                if program.network_name == "LSTM":
                    raise RuntimeError("injected block failure")
                return super().run_selected_blocks(program, indices)

        monkeypatch.setattr(engine, "BitFusionSimulator", _FailingSimulator)
        good = Workload.bitfusion("LeNet-5", batch_size=4)
        bad = Workload.bitfusion("LSTM", batch_size=4)
        session = EvaluationSession(jobs=2)
        # Monkeypatches do not cross process boundaries, so drive the same
        # parallel code path through an in-process pool stand-in.
        session.backend._pool = _InlinePool()
        with pytest.raises(WorkloadExecutionError) as excinfo:
            session.run_many([good, bad])
        assert "bitfusion/LSTM" in str(excinfo.value)
        assert len(excinfo.value.failures) == 1
        # The surviving workload's result and artifacts were stored: a
        # rerun is pure cache hits, no new execution.
        executed = session.stats.unique_executions
        result = session.run(good)
        assert session.stats.unique_executions == executed
        assert network_result_to_dict(result) == network_result_to_dict(
            execute_workload(good)
        )
        session.close()

    def test_failed_claimant_recovers_on_its_single_retry(self, monkeypatch):
        # Two workloads share every block key; the claiming unit fails its
        # first (and only faulty) remote simulation.  Its deferred
        # neighbour recovers by simulating inline at compose time, and the
        # claimant itself is then retried once against the now-warm cache —
        # a transient fault costs the batch nothing.
        base = BitFusionConfig.eyeriss_matched(batch_size=4)
        first = Workload.bitfusion("LeNet-5", batch_size=4, config=base)
        second = Workload.bitfusion(
            "LeNet-5", batch_size=4, config=base.with_frequency(250.0)
        )

        real_simulator = engine.BitFusionSimulator
        # The claiming unit is whichever of the two sorts first; fail
        # exactly one remote simulation (the claimant's), then behave.
        state = {"failed": False}

        class _FailOnce(real_simulator):
            def run_selected_blocks(self, program, indices):
                if not state["failed"]:
                    state["failed"] = True
                    raise RuntimeError("injected failure")
                return super().run_selected_blocks(program, indices)

        monkeypatch.setattr(engine, "BitFusionSimulator", _FailOnce)
        session = EvaluationSession(jobs=2)
        session.backend._pool = _InlinePool()
        results = session.run_many([first, second])
        assert session.stats.retries == 1
        assert "workload retries: 1" in session.stats.summary()
        # Both workloads survived with correct results.
        assert len(results) == 2
        for workload, result in zip((first, second), results):
            assert network_result_to_dict(result) == network_result_to_dict(
                execute_workload(workload)
            )
        session.close()
