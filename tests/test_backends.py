"""Backend-parity and chaos tests for the pluggable execution backends.

The guarantees under test:

* every backend — inline, process pool, remote TCP workers — produces
  byte-identical results (and identical per-stage cache statistics on
  partially-warm runs) for the same schedule,
* the wire codecs round-trip workloads, work units and work results
  bit-exactly (JSON float encoding is shortest-round-trip),
* a killed remote worker or a dropped connection mid-sweep costs at most
  one retried work unit — the survivors absorb the rest of the schedule —
  and with *no* surviving worker the session's retry path still completes
  the batch inline,
* two checkpoint writers sharing a cache directory never tear a JSONL
  line, and per-writer sibling journals merge on load, and
* the kernel-size NAS mutation operator is deterministic and preserves
  output spatial dimensions exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import socket
import struct
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from faults import (
    CapturingInlinePool,
    InjectedConnectionDrop,
    InjectedWorkerCrash,
    crash_work_units,
    drop_connections,
    faulty_simulators,
)
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ConvLayer
from repro.dse import SweepSpec, run_sweep
from repro.nas.mutations import MUTATION_AXES, mutate, mutate_kernel
from repro.session import (
    EvaluationSession,
    InlineBackend,
    ProcessPoolBackend,
    Workload,
    WorkloadExecutionError,
    execute_workload,
    make_backend,
)
from repro.session.cache import ResultCache, network_result_to_dict
from repro.session.checkpoint import SweepCheckpoint
from repro.session.engine import execute_work_unit, plan_workload
from repro.session.remote import (
    RemoteBackend,
    RemoteWorkerError,
    WorkerClient,
    WorkerServer,
    parse_worker_address,
    recv_message,
    send_message,
    work_result_from_dict,
    work_result_to_dict,
    work_unit_from_dict,
    work_unit_to_dict,
    workload_from_dict,
    workload_to_dict,
)

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_BATCH = [
    Workload.bitfusion("LeNet-5", batch_size=4),
    Workload.bitfusion("LSTM", batch_size=4),
    Workload.bitfusion("LeNet-5", batch_size=2),
    Workload.bitfusion("LSTM", batch_size=2),
]


def _dicts(results):
    return [network_result_to_dict(result) for result in results]


@contextmanager
def worker_servers(count=2, caches=None, fail_after=None):
    """``count`` in-thread worker daemons on ephemeral localhost ports."""
    servers = [
        WorkerServer(cache=None if caches is None else caches[index])
        for index in range(count)
    ]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield servers
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=5)


@contextmanager
def remote_session(addresses, **session_kwargs):
    backend = RemoteBackend(addresses, timeout=30.0)
    session = EvaluationSession(backend=backend, **session_kwargs)
    try:
        yield session
    finally:
        session.close()


class TestWireCodecs:
    @pytest.mark.parametrize(
        "workload",
        [
            Workload.bitfusion("LeNet-5", batch_size=4),
            Workload.bitfusion(
                "AlexNet",
                batch_size=2,
                config=BitFusionConfig.eyeriss_matched(batch_size=2).with_frequency(
                    250.0
                ),
                enable_layer_fusion=False,
            ),
            Workload.eyeriss("LeNet-5"),
            Workload.stripes("LeNet-5"),
        ],
    )
    def test_workload_round_trips_fingerprint_exact(self, workload):
        over_the_wire = json.loads(json.dumps(workload_to_dict(workload)))
        rebuilt = workload_from_dict(over_the_wire)
        assert rebuilt.fingerprint() == workload.fingerprint()
        assert rebuilt == workload

    def test_work_unit_and_result_round_trip_byte_exact(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession() as session:
            plan = plan_workload(workload, session.cache, session.stats, set())
        unit = plan.work_unit()
        rebuilt = work_unit_from_dict(json.loads(json.dumps(work_unit_to_dict(unit))))
        assert rebuilt.simulate_indices == unit.simulate_indices
        assert rebuilt.workload == unit.workload
        reply = execute_work_unit(rebuilt)
        assert reply.error is None
        wire = json.loads(json.dumps(work_result_to_dict(reply)))
        assert work_result_to_dict(work_result_from_dict(wire)) == work_result_to_dict(
            reply
        )

    def test_framing_round_trips_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"op": "run", "payload": [1.5, "x", {"nested": None}]}
            send_message(left, message)
            assert recv_message(right) == message
            left.close()
            assert recv_message(right) is None  # clean EOF
        finally:
            right.close()

    def test_oversized_length_prefix_is_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 1 << 30))
            with pytest.raises(RemoteWorkerError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_worker_address(self):
        assert parse_worker_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        with pytest.raises(ValueError):
            parse_worker_address("no-port")
        with pytest.raises(ValueError):
            parse_worker_address("host:not-a-port")


class TestBackendFactory:
    def test_default_selection_follows_jobs(self):
        assert isinstance(make_backend(), InlineBackend)
        pool = make_backend(jobs=3)
        assert isinstance(pool, ProcessPoolBackend) and pool.jobs == 3
        pool.close()

    def test_explicit_pool_gets_real_parallelism(self):
        pool = make_backend("pool")
        assert pool.jobs == 2
        pool.close()

    def test_inline_rejects_jobs(self):
        with pytest.raises(ValueError):
            make_backend("inline", jobs=2)

    def test_remote_requires_workers(self):
        with pytest.raises(ValueError):
            make_backend("remote")
        with pytest.raises(ValueError):
            make_backend("bogus")
        backend = make_backend("remote", workers=["127.0.0.1:1"])
        assert isinstance(backend, RemoteBackend)
        backend.close()


class TestRemoteParity:
    def test_remote_run_many_matches_serial_byte_identical(self):
        serial = [execute_workload(workload) for workload in _BATCH]
        with worker_servers(count=2) as servers:
            addresses = [server.address for server in servers]
            with remote_session(addresses) as session:
                results = session.run_many(_BATCH)
            assert _dicts(results) == _dicts(serial)
            assert session.stats.workers.backend == "remote"
            assert session.stats.workers.units == len(_BATCH)
            # Every dispatched unit is attributed to a real worker address.
            per_worker = session.stats.workers.per_worker
            assert sum(per_worker.values()) == len(_BATCH)
            assert set(per_worker) <= set(addresses)
            assert "parallel workers [remote]" in session.stats.workers.summary()
            assert session.stats.workers.per_worker_summary().startswith(
                "per-worker units: "
            )

    def test_partially_warm_remote_matches_pool_statistics(self, tmp_path):
        seed = _BATCH[0]
        pool_dir, remote_dir = tmp_path / "pool", tmp_path / "remote"
        for directory in (pool_dir, remote_dir):
            with EvaluationSession(cache_dir=directory) as warmup:
                warmup.run(seed)

        with EvaluationSession(cache_dir=pool_dir, jobs=2) as pooled:
            pool_results = pooled.run_many(_BATCH)
        with worker_servers(count=2) as servers:
            with remote_session(
                [server.address for server in servers], cache_dir=remote_dir
            ) as remoted:
                remote_results = remoted.run_many(_BATCH)

        assert _dicts(remote_results) == _dicts(pool_results)
        # Identical per-stage cache statistics on the identically-warm runs:
        # the seeded workload composed from disk, everything else planned
        # and shipped exactly alike.
        for attribute in ("hits", "misses"):
            assert getattr(remoted.stats, attribute) == getattr(
                pooled.stats, attribute
            )
            for stage in ("programs", "blocks"):
                assert getattr(getattr(remoted.stats, stage), attribute) == getattr(
                    getattr(pooled.stats, stage), attribute
                )
        assert remoted.stats.workers.units == pooled.stats.workers.units
        assert (
            remoted.stats.workers.remote_blocks == pooled.stats.workers.remote_blocks
        )

    def test_remote_sweep_matches_inline_sweep_and_frontier(self):
        spec = SweepSpec.from_dict(
            {
                "name": "backend parity sweep",
                "networks": ["LeNet-5"],
                "batch_sizes": [4],
                "axes": {"technology": ["45nm", "16nm"], "bandwidth": [128, 256]},
            }
        )
        baseline = run_sweep(spec)
        with worker_servers(count=2) as servers:
            sharded = run_sweep(
                spec, backend=RemoteBackend([server.address for server in servers])
            )
        assert [point.as_row() for point in sharded] == [
            point.as_row() for point in baseline
        ]
        assert sharded.rows() == baseline.rows()
        assert sharded.pareto_rows() == baseline.pareto_rows()

    def test_worker_warms_its_own_shared_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        with worker_servers(count=1, caches=[cache]) as servers:
            with remote_session([servers[0].address]) as session:
                session.run(_BATCH[0])
        # The worker stored every simulated layer record; a fresh session
        # against that directory re-composes without simulating anything.
        with EvaluationSession(cache_dir=tmp_path) as warm:
            warm.run(_BATCH[0])
        assert warm.stats.blocks.misses == 0

    def test_ping_and_shutdown(self):
        with worker_servers(count=1) as servers:
            client = WorkerClient(servers[0].address, timeout=10.0)
            reply = client.ping()
            assert reply["op"] == "pong"
            client.shutdown()
            client.close()


class TestRemoteChaos:
    def test_connection_drop_redistributes_to_the_survivor(self):
        serial = [execute_workload(workload) for workload in _BATCH]
        with worker_servers(count=2) as servers:
            addresses = [server.address for server in servers]
            with remote_session(addresses) as session:
                with drop_connections([addresses[0]], times=1) as drops:
                    results = session.run_many(_BATCH)
            assert drops == {addresses[0]: 1}
            assert _dicts(results) == _dicts(serial)
            # The drop forfeited exactly the in-flight unit: one retry, no
            # quarantine, and only the survivor accumulated unit credit.
            assert session.stats.retries == 1
            assert set(session.stats.workers.per_worker) == {addresses[1]}

    def test_all_workers_dead_completes_through_the_retry_path(self):
        workloads = _BATCH[:2]
        serial = [execute_workload(workload) for workload in workloads]
        with worker_servers(count=1) as servers:
            with remote_session([servers[0].address]) as session:
                with drop_connections(times=999):
                    results = session.run_many(workloads)
        assert _dicts(results) == _dicts(serial)
        # The first drop killed the only client; its unit plus every unit
        # left unclaimed in the queue failed into the inline retry path.
        assert session.stats.retries == len(workloads)

    def test_injected_drop_is_a_connection_error(self):
        assert issubclass(InjectedConnectionDrop, ConnectionError)

    def test_killed_worker_process_costs_at_most_one_retry(self, tmp_path):
        """A real daemon SIGKILLed mid-unit: one retry, byte-identical output."""
        serial = [execute_workload(workload) for workload in _BATCH]
        procs, addresses = [], []
        try:
            # fail-after 0: the first worker dies the moment it receives its
            # first unit — deterministic regardless of how fast the healthy
            # worker drains the rest of the queue.
            for fail_after in (0, None):
                args = [
                    sys.executable,
                    "-m",
                    "repro.harness",
                    "worker",
                    "--bind",
                    "127.0.0.1:0",
                ]
                if fail_after is not None:
                    args += ["--fail-after", str(fail_after)]
                proc = subprocess.Popen(
                    args,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                    env={**os.environ, "PYTHONPATH": _SRC},
                )
                procs.append(proc)
                banner = proc.stdout.readline().strip()
                assert banner.startswith("worker listening on ")
                addresses.append(banner.rpartition(" ")[2])
            with remote_session(addresses, cache_dir=tmp_path) as session:
                results = session.run_many(_BATCH)
            assert _dicts(results) == _dicts(serial)
            # The --fail-after worker died holding its first unit: exactly
            # one workload took the retry path, none were quarantined, and
            # the healthy worker absorbed the rest of the schedule.
            assert session.stats.retries == 1
            assert set(session.stats.workers.per_worker) == {addresses[1]}
            assert procs[0].wait(timeout=30) == 1  # it really hard-exited
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10)
                proc.stdout.close()


def _fault_grid() -> list[Workload]:
    """A batch with an in-batch deferred claimant and a crashable last unit.

    The two LeNet-5 batch-4 points differ only in frequency, which leaves
    every block key equal: the first in schedule order claims the blocks,
    the second defers to it.  LSTM at batch 1 is the cheapest point, so its
    unit is the last one drained (a crash there cannot take a single remote
    worker down before the others ran), and its ``lstm1`` block name is
    unique to it.
    """
    base = BitFusionConfig.eyeriss_matched(batch_size=4)
    return [
        Workload.bitfusion("LeNet-5", batch_size=4, config=base),
        Workload.bitfusion("LeNet-5", batch_size=4, config=base.with_frequency(250.0)),
        Workload.bitfusion("LeNet-5", batch_size=2),
        Workload.bitfusion("LSTM", batch_size=1),
    ]


def _serve_until_crash(server: WorkerServer) -> None:
    """Serve until an injected crash takes the worker down, like a dead process."""
    try:
        server.serve_forever()
    except InjectedWorkerCrash:
        pass


class TestCrossBackendFaultParity:
    """Inline, pool and remote fail, retry and quarantine one batch alike."""

    @staticmethod
    def _outcome(session, grid, crashed):
        with crash_work_units([crashed.fingerprint()], times=2):
            with pytest.raises(WorkloadExecutionError) as excinfo:
                session.run_many(grid)
        survivors = {
            workload.fingerprint(): network_result_to_dict(
                session.cache.get(workload.fingerprint())
            )
            for workload in grid
            if workload is not crashed
        }
        quarantined = {record.fingerprint for record in excinfo.value.quarantined}
        stats = session.stats
        return survivors, quarantined, (stats.programs, stats.blocks, stats.retries)

    def test_inline_pool_and_remote_agree_on_a_crashed_batch(self):
        grid = _fault_grid()
        crashed = grid[-1]
        outcomes = {}
        # Inline runs no work unit on a first attempt, so its first failure
        # is injected one level down, as a simulator fault on the block
        # only the crashed workload has; its retry ships a unit and crashes.
        with faulty_simulators(["lstm1"]), EvaluationSession() as inline:
            outcomes["inline"] = self._outcome(inline, grid, crashed)
        with EvaluationSession(jobs=2) as pooled:
            pooled.backend._pool = CapturingInlinePool()
            outcomes["pool"] = self._outcome(pooled, grid, crashed)
        server = WorkerServer()
        thread = threading.Thread(target=_serve_until_crash, args=(server,), daemon=True)
        thread.start()
        try:
            with remote_session([server.address]) as remoted:
                outcomes["remote"] = self._outcome(remoted, grid, crashed)
        finally:
            server.close()
            thread.join(timeout=5)

        assert outcomes["pool"] == outcomes["inline"]
        assert outcomes["remote"] == outcomes["inline"]
        survivors, quarantined, (programs, blocks, retries) = outcomes["inline"]
        assert quarantined == {crashed.fingerprint()}
        assert retries == 1
        assert survivors == {
            workload.fingerprint(): network_result_to_dict(execute_workload(workload))
            for workload in grid
            if workload is not crashed
        }
        # The deferred neighbour composed from its claimant's blocks.
        assert blocks.hits > 0

    def test_unplannable_workload_is_quarantined_on_every_backend(self, tmp_path):
        # Buffers too small for any tiling: compiling the workload raises
        # at plan time.  Every backend isolates it like an execution fault
        # and still commits its neighbour.
        tiny = dataclasses.replace(
            BitFusionConfig.eyeriss_matched(batch_size=4),
            ibuf_kb=0.001,
            wbuf_kb=0.001,
            obuf_kb=0.001,
        )
        bad = Workload.bitfusion("LeNet-5", batch_size=4, config=tiny)
        good = Workload.bitfusion("LSTM", batch_size=4)
        journal = SweepCheckpoint(tmp_path / "sweep-checkpoint.jsonl")
        sessions = {
            "inline": EvaluationSession(),
            "checkpointed": EvaluationSession(checkpoint=journal),
            "pool": EvaluationSession(jobs=2),
        }
        sessions["pool"].backend._pool = CapturingInlinePool()
        for name, session in sessions.items():
            with session:
                with pytest.raises(WorkloadExecutionError) as excinfo:
                    session.run_many([good, bad])
                assert [record.fingerprint for record in excinfo.value.quarantined] == [
                    bad.fingerprint()
                ], name
                assert "no feasible tiling" in str(excinfo.value), name
                assert network_result_to_dict(
                    session.cache.get(good.fingerprint())
                ) == network_result_to_dict(execute_workload(good)), name


class TestCheckpointConcurrency:
    def test_writer_siblings_merge_on_load(self, tmp_path):
        path = tmp_path / "sweep-checkpoint.jsonl"
        alice = SweepCheckpoint(path, writer="alice")
        bob = SweepCheckpoint(path, writer="bob")
        alice.record_planned("fp-a", "workload a")
        alice.record_completed("fp-a")
        bob.record_planned("fp-b", "workload b")
        bob.record_quarantined("fp-b", "workload b", "boom")
        alice.close()
        bob.close()
        assert alice.write_path != bob.write_path != path
        assert not path.exists()

        merged = SweepCheckpoint(path)
        assert merged.completed == {"fp-a"}
        assert set(merged.planned) == {"fp-a", "fp-b"}
        assert [record.fingerprint for record in merged.quarantined] == ["fp-b"]

    def test_invalid_writer_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCheckpoint(tmp_path / "sweep-checkpoint.jsonl", writer="a/b")

    def test_reset_unlinks_writer_siblings(self, tmp_path):
        path = tmp_path / "sweep-checkpoint.jsonl"
        sibling = SweepCheckpoint(path, writer="host1")
        sibling.record_planned("fp-x", "x")
        sibling.close()
        fresh = SweepCheckpoint(path)
        assert set(fresh.planned) == {"fp-x"}
        fresh.reset()
        assert not sibling.write_path.exists()
        assert SweepCheckpoint(path).planned == {}

    def test_concurrent_shared_journal_appends_never_tear_lines(self, tmp_path):
        path = tmp_path / "sweep-checkpoint.jsonl"
        writers, events_each = 4, 50

        def append(worker: int) -> None:
            journal = SweepCheckpoint(path)
            for index in range(events_each):
                journal.record_planned(
                    f"fp-{worker}-{index}", f"label-{worker}-{index}" * 8
                )
            journal.close()

        threads = [
            threading.Thread(target=append, args=(worker,))
            for worker in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")  # corruption would warn
            merged = SweepCheckpoint(path)
        assert merged.corrupt_lines == 0
        assert len(merged.planned) == writers * events_each


class TestKernelMutation:
    def test_kernel_mutation_preserves_output_dims(self):
        network = models.load("AlexNet")
        rng = random.Random(11)
        seen_changes = 0
        for _ in range(32):
            candidate = mutate_kernel(network, rng)
            if candidate is None:
                continue
            assert len(candidate) == len(network)
            for before, after in zip(network, candidate):
                if not isinstance(before, ConvLayer):
                    assert before == after
                    continue
                assert after.padding >= 0
                assert after.out_height == before.out_height
                assert after.out_width == before.out_width
                if after.kernel != before.kernel:
                    seen_changes += 1
                    assert after.kernel in (3, 5, 7)
                    assert after.padding - before.padding == (
                        after.kernel - before.kernel
                    ) // 2
        assert seen_changes > 0

    def test_kernel_mutation_is_deterministic(self):
        network = models.load("LeNet-5")
        first = mutate_kernel(network, random.Random(3))
        second = mutate_kernel(network, random.Random(3))
        assert first is not None and second is not None
        assert first.fingerprint() == second.fingerprint()

    def test_kernel_mutation_skips_conv_free_networks(self):
        network = models.load("LSTM")
        assert mutate_kernel(network, random.Random(0)) is None
        # mutate() with only the kernel axis then returns the input network.
        assert mutate(network, random.Random(0), axes=("kernel",)) is network

    def test_kernel_axis_is_registered(self):
        assert "kernel" in MUTATION_AXES
        candidate = mutate(
            models.load("AlexNet"), random.Random(1), axes=("kernel",)
        )
        assert "/nas-" in candidate.name
