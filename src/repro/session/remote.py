"""Remote execution backend: TCP/JSON workers for multi-host sweeps.

The third :class:`~repro.session.backends.ExecutionBackend`: work units are
shipped over TCP to worker daemons (``python -m repro.harness worker
--bind HOST:PORT``) instead of a local process pool.  The protocol reuses
the cache-aware worker machinery unchanged — the coordinator plans every
workload centrally (compile through the program cache, resolve warm blocks,
claim in-batch duplicates) and ships each worker a
:class:`~repro.session.engine.WorkUnit` already sliced to the genuinely
missing blocks, so a mostly-warm sweep sends almost nothing over the wire.

Wire format
-----------
Length-prefixed JSON: every message is a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  Three request shapes::

    {"op": "ping"}                  -> {"op": "pong", "version": ...}
    {"op": "run", "unit": {...}}    -> {"op": "result", "result": {...}}
    {"op": "shutdown"}              -> {"op": "bye"}     (then the server exits)

``unit`` and ``result`` are the JSON forms of :class:`WorkUnit` /
:class:`WorkResult` (:func:`work_unit_to_dict` and friends); every artifact
inside them rides the same JSON codecs the on-disk cache uses, so a block
result round-trips the wire bit-exactly (Python's JSON float encoding is
shortest-round-trip) and remote sweeps stay byte-identical to serial ones.

Failure semantics
-----------------
Worker death, a dropped connection or a timeout surfaces exactly like a
crashed pool future: the in-flight unit's workload fails into the session's
retry-once → quarantine path, the dead worker stops receiving units, and
the survivors drain the rest of the schedule — so a killed worker mid-sweep
costs at most one retried work unit.  The coordinator-side transport is
wrapped by the :func:`repro.session.testing.transport_wrapper` fault seam,
so chaos tests can drop or delay connections deterministically.

Workers given ``--cache-dir`` store freshly simulated layer records into
their (typically shared) artifact cache as well — entry writes are atomic
and content-keyed, so coordinator and workers writing the same records
concurrently is safe by construction.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro import __version__
from repro.baselines.eyeriss import EyerissConfig
from repro.baselines.gpu import GpuSpec
from repro.baselines.stripes import StripesConfig
from repro.core.config import BitFusionConfig, TechnologyNode
from repro.isa.program import Program
from repro.session import testing
from repro.session.backends import ExecutionBackend, Reply
from repro.session.cache import (
    layer_result_from_dict,
    layer_result_to_dict,
    network_result_from_dict,
    network_result_to_dict,
)
from repro.session.engine import (
    WorkPlan,
    WorkResult,
    WorkUnit,
    execute_work_unit,
    simulate_planned_blocks,
    slice_work_unit,
    store_layer_record,
)
from repro.session.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import ResultCache
    from repro.session.session import EvaluationSession

__all__ = [
    "RemoteBackend",
    "RemoteWorkerError",
    "WorkerClient",
    "WorkerServer",
    "parse_worker_address",
    "recv_message",
    "send_message",
    "work_unit_from_dict",
    "work_unit_to_dict",
    "work_result_from_dict",
    "work_result_to_dict",
    "workload_from_dict",
    "workload_to_dict",
]

#: Length prefix: 4-byte big-endian unsigned payload size.
_LENGTH = struct.Struct(">I")

#: Hard bound on one message (guards a corrupt/hostile length prefix).
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

#: Default coordinator-side socket timeout: a worker that neither replies
#: nor dies within this window counts as dead (same path as a crash).
DEFAULT_TIMEOUT_SECONDS = 300.0


class RemoteWorkerError(ConnectionError):
    """A remote worker died, timed out or replied with garbage."""


# ---------------------------------------------------------------------- #
# JSON codecs: Workload / WorkUnit / WorkResult
# ---------------------------------------------------------------------- #
#: Config classes a workload may carry, keyed by the type name
#: ``Workload._config_payload`` records.
_CONFIG_TYPES: dict[str, type] = {
    "BitFusionConfig": BitFusionConfig,
    "EyerissConfig": EyerissConfig,
    "StripesConfig": StripesConfig,
    "GpuSpec": GpuSpec,
}


def config_to_dict(config: Any) -> dict[str, Any] | None:
    """JSON form of a platform configuration dataclass (or ``None``)."""
    if config is None:
        return None
    import dataclasses

    if not dataclasses.is_dataclass(config):
        raise TypeError(f"config must be a dataclass, got {type(config).__name__}")
    return {"type": type(config).__name__, **dataclasses.asdict(config)}


def config_from_dict(payload: dict[str, Any] | None) -> Any:
    """Rebuild a platform configuration from :func:`config_to_dict`."""
    if payload is None:
        return None
    fields = dict(payload)
    type_name = fields.pop("type")
    try:
        cls = _CONFIG_TYPES[type_name]
    except KeyError:
        raise ValueError(f"unknown workload config type {type_name!r}") from None
    if isinstance(fields.get("technology"), dict):
        fields["technology"] = TechnologyNode(**fields["technology"])
    return cls(**fields)


def workload_to_dict(workload: Workload) -> dict[str, Any]:
    """JSON form of a workload, sufficient to rebuild it bit-exactly."""
    return {
        "platform": workload.platform,
        "network": workload.network,
        "batch_size": workload.batch_size,
        "variant": workload.variant,
        "fixed_bits": workload.fixed_bits,
        "config": config_to_dict(workload.config),
        "gpu_precision": workload.gpu_precision,
        "enable_loop_ordering": workload.enable_loop_ordering,
        "enable_layer_fusion": workload.enable_layer_fusion,
    }


def workload_from_dict(payload: dict[str, Any]) -> Workload:
    """Rebuild a workload from :func:`workload_to_dict`."""
    return Workload(
        platform=payload["platform"],
        network=payload["network"],
        batch_size=payload["batch_size"],
        variant=payload.get("variant", "quantized"),
        fixed_bits=payload.get("fixed_bits"),
        config=config_from_dict(payload.get("config")),
        gpu_precision=payload.get("gpu_precision"),
        enable_loop_ordering=payload.get("enable_loop_ordering", True),
        enable_layer_fusion=payload.get("enable_layer_fusion", True),
    )


def work_unit_to_dict(unit: WorkUnit) -> dict[str, Any]:
    """JSON form of one work unit (program payload is already JSON-shaped)."""
    return {
        "workload": None if unit.workload is None else workload_to_dict(unit.workload),
        "config": config_to_dict(unit.config),
        "program_payload": unit.program_payload,
        "simulate_indices": list(unit.simulate_indices),
    }


def work_unit_from_dict(payload: dict[str, Any]) -> WorkUnit:
    """Rebuild a work unit from :func:`work_unit_to_dict`."""
    workload_payload = payload.get("workload")
    return WorkUnit(
        workload=None if workload_payload is None else workload_from_dict(workload_payload),
        program_payload=payload.get("program_payload"),
        simulate_indices=tuple(payload.get("simulate_indices", ())),
        config=config_from_dict(payload.get("config")),
    )


def work_result_to_dict(result: WorkResult) -> dict[str, Any]:
    """JSON form of a worker reply (layers/result via the cache codecs)."""
    return {
        "layers": [
            [index, layer_result_to_dict(layer)] for index, layer in result.layers
        ],
        "result": None if result.result is None else network_result_to_dict(result.result),
        "error": result.error,
        "compile_seconds": result.compile_seconds,
        "sim_seconds": result.sim_seconds,
        "worker_id": result.worker_id,
    }


def work_result_from_dict(payload: dict[str, Any]) -> WorkResult:
    """Rebuild a worker reply from :func:`work_result_to_dict`."""
    result_payload = payload.get("result")
    return WorkResult(
        layers=tuple(
            (index, layer_result_from_dict(layer))
            for index, layer in payload.get("layers", ())
        ),
        result=None if result_payload is None else network_result_from_dict(result_payload),
        error=payload.get("error"),
        compile_seconds=payload.get("compile_seconds", 0.0),
        sim_seconds=payload.get("sim_seconds", 0.0),
        worker_id=payload.get("worker_id", ""),
    )


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def send_message(sock: socket.socket, message: dict[str, Any]) -> None:
    """Write one length-prefixed JSON message."""
    data = json.dumps(message, sort_keys=True).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise RemoteWorkerError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict[str, Any] | None:
    """Read one length-prefixed JSON message; ``None`` on a clean EOF."""
    try:
        prefix = sock.recv(_LENGTH.size)
    except (TimeoutError, socket.timeout):
        raise
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        prefix += _recv_exact(sock, _LENGTH.size - len(prefix))
    (size,) = _LENGTH.unpack(prefix)
    if size > MAX_MESSAGE_BYTES:
        raise RemoteWorkerError(f"message of {size} bytes exceeds the protocol bound")
    message = json.loads(_recv_exact(sock, size).decode("utf-8"))
    if not isinstance(message, dict):
        raise RemoteWorkerError("protocol message is not a JSON object")
    return message


def parse_worker_address(address: str) -> tuple[str, int]:
    """Split ``host:port`` (the CLI's ``--workers`` / ``--bind`` syntax)."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"worker address {address!r} is not host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"worker address {address!r} has a non-integer port") from None


# ---------------------------------------------------------------------- #
# Worker daemon
# ---------------------------------------------------------------------- #
class WorkerServer:
    """One remote worker: accept coordinator connections, run work units.

    Single-threaded by design — one coordinator connection is served at a
    time, and the coordinator pipelines one unit per worker anyway.  Binding
    port 0 picks an ephemeral port; the bound address is ``self.address``.

    ``cache`` (optional, typically a shared ``--cache-dir``) receives the
    layer records of every freshly simulated block, exactly as the
    coordinator stores them at compose time — duplicate stores are
    idempotent (atomic writes of content-keyed, identical payloads), so a
    worker warming the cache alongside the coordinator is safe.

    ``fail_after`` is the deterministic chaos knob (``--fail-after`` on the
    CLI): serve that many units normally, then hard-exit (``os._exit``)
    upon *receiving* the next one without replying — indistinguishable, to
    the coordinator, from a worker SIGKILLed mid-unit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: "ResultCache | None" = None,
        fail_after: int | None = None,
    ) -> None:
        self.cache = cache
        self.fail_after = fail_after
        self.units_served = 0
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.5)
        self._stop = threading.Event()
        bound_host, bound_port = self._listener.getsockname()[:2]
        self.host = host if host else bound_host
        self.port = bound_port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Ask ``serve_forever`` to return after the current connection."""
        self._stop.set()

    def close(self) -> None:
        self._stop.set()
        self._listener.close()

    def serve_forever(self) -> None:
        """Accept and serve coordinator connections until shutdown."""
        try:
            while not self._stop.is_set():
                try:
                    connection, _ = self._listener.accept()
                except (TimeoutError, socket.timeout):
                    continue
                except OSError:
                    break
                with connection:
                    self._serve_connection(connection)
        finally:
            self._listener.close()

    def _serve_connection(self, connection: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                message = recv_message(connection)
            except (RemoteWorkerError, OSError, ValueError):
                return
            if message is None:
                return
            op = message.get("op")
            if op == "ping":
                send_message(connection, {"op": "pong", "version": __version__})
            elif op == "shutdown":
                send_message(connection, {"op": "bye"})
                self._stop.set()
                return
            elif op == "run":
                if self.fail_after is not None and self.units_served >= self.fail_after:
                    # Deterministic SIGKILL stand-in: die holding the unit,
                    # reply unsent, no cleanup — the coordinator sees a dead
                    # connection exactly as with a real kill -9.
                    os._exit(1)
                reply = self._run(message.get("unit"))
                self.units_served += 1
                send_message(connection, {"op": "result", "result": work_result_to_dict(reply)})
            else:
                send_message(connection, {"op": "error", "error": f"unknown op {op!r}"})

    def _run(self, unit_payload: Any) -> WorkResult:
        try:
            unit = work_unit_from_dict(unit_payload)
        except Exception as error:  # noqa: BLE001 — reply, never crash the daemon
            return WorkResult(error=f"undecodable work unit: {type(error).__name__}: {error}")
        reply = execute_work_unit(unit)
        if reply.worker_id == "":
            reply = WorkResult(
                layers=reply.layers,
                result=reply.result,
                error=reply.error,
                compile_seconds=reply.compile_seconds,
                sim_seconds=reply.sim_seconds,
                worker_id=self.address,
            )
        if self.cache is not None and reply.error is None and reply.layers:
            self._store(unit, reply)
        return reply

    def _store(self, unit: WorkUnit, reply: WorkResult) -> None:
        """Store fresh layer records into the worker's (shared) cache.

        One group commit per unit: on a shared cache directory the
        unit's records land as a single append to this worker's own
        segment (no locks against sibling workers or the coordinator —
        readers merge all segments at open), followed by one flush of the
        index sidecar and manifest.
        """
        try:
            assert unit.program_payload is not None
            program = Program.from_dict(unit.program_payload)
            config = unit.sim_config
            description = {} if unit.workload is None else unit.workload.describe()
            with self.cache.batch():
                for (_, layer), compiled in zip(reply.layers, program.blocks):
                    store_layer_record(self.cache, config, compiled, layer, description)
            self.cache.flush()
        except Exception:  # noqa: BLE001 — cache warming is best-effort
            pass


# ---------------------------------------------------------------------- #
# Coordinator client
# ---------------------------------------------------------------------- #
class WorkerClient:
    """Coordinator-side connection to one worker daemon."""

    def __init__(self, address: str, timeout: float = DEFAULT_TIMEOUT_SECONDS) -> None:
        self.address = address
        self.timeout = timeout
        self.alive = True
        self._sock: socket.socket | None = None

    def _connection(self) -> socket.socket:
        if self._sock is None:
            host, port = parse_worker_address(self.address)
            self._sock = socket.create_connection((host, port), timeout=self.timeout)
        return self._sock

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/reply round trip; raises :class:`RemoteWorkerError`."""
        try:
            sock = self._connection()
            send_message(sock, message)
            reply = recv_message(sock)
        except (OSError, ValueError, RemoteWorkerError) as error:
            self.mark_dead()
            raise RemoteWorkerError(
                f"worker {self.address} failed: {type(error).__name__}: {error}"
            ) from error
        if reply is None:
            self.mark_dead()
            raise RemoteWorkerError(f"worker {self.address} closed the connection")
        return reply

    def mark_dead(self) -> None:
        self.alive = False
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def shutdown(self) -> None:
        """Best-effort remote shutdown (used by tests and CI teardown)."""
        try:
            self.request({"op": "shutdown"})
        except RemoteWorkerError:
            pass


class RemoteBackend(ExecutionBackend):
    """Shard work units across TCP worker daemons.

    The shared execute loop plans every workload centrally; this
    backend's reply primitive drains the pending units through the workers
    work-stealing style: each worker's thread pulls the next unit the
    moment it finishes its current one, so a dead worker forfeits only its
    in-flight unit — the survivors absorb the rest of the schedule.
    Results compose and commit in schedule order after the drain,
    preserving the serial path's deferred-block semantics and
    byte-identical output.
    """

    name = "remote"

    def __init__(
        self, workers: Sequence[str], timeout: float = DEFAULT_TIMEOUT_SECONDS
    ) -> None:
        addresses = [address.strip() for address in workers if address.strip()]
        if not addresses:
            raise ValueError("RemoteBackend needs at least one worker address")
        for address in addresses:
            parse_worker_address(address)  # fail fast on malformed input
        self.timeout = timeout
        self._clients = [WorkerClient(address, timeout) for address in addresses]

    def describe(self) -> str:
        names = ", ".join(client.address for client in self._clients)
        return f"remote ({len(self._clients)} workers: {names})"

    def close(self) -> None:
        for client in self._clients:
            client.close()

    # ------------------------------------------------------------------ #
    # Unit transport
    # ------------------------------------------------------------------ #
    def _request_unit(self, client: WorkerClient, unit: WorkUnit) -> tuple[WorkResult, float, float]:
        """Ship one unit; returns (reply, dispatch_seconds, wait_seconds)."""
        started = time.perf_counter()
        message = {"op": "run", "unit": work_unit_to_dict(unit)}
        dispatch = time.perf_counter() - started

        def transport() -> dict[str, Any]:
            return client.request(message)

        started = time.perf_counter()
        wrapper = testing.transport_wrapper()
        if wrapper is not None:
            reply = wrapper(client.address, unit, transport)
        else:
            reply = transport()
        elapsed = time.perf_counter() - started
        if reply.get("op") != "result":
            client.mark_dead()
            raise RemoteWorkerError(
                f"worker {client.address} sent unexpected op {reply.get('op')!r}"
            )
        try:
            result = work_result_from_dict(reply["result"])
        except Exception as error:  # noqa: BLE001 — garbage reply = dead worker
            client.mark_dead()
            raise RemoteWorkerError(
                f"worker {client.address} sent an undecodable result: {error}"
            ) from error
        # Dispatch is the coordinator-side serialization of the unit; the
        # blocking socket exchange (send + remote simulate + reply) is wait.
        return result, dispatch, elapsed

    def _run_units(
        self,
        units: list[tuple[int, WorkUnit]],
        stats: Any = None,
    ) -> dict[int, WorkResult | Exception]:
        """Drain units across the live workers; one thread per worker.

        Returns a slot → reply map where a reply may be the exception that
        killed it (worker death, timeout, injected drop).  Units left
        unclaimed because *every* worker died map to the last error, so the
        session's retry path still completes the sweep inline.
        """
        results: dict[int, WorkResult | Exception] = {}
        queue = deque(units)
        lock = threading.Lock()

        def drain(client: WorkerClient) -> None:
            while client.alive:
                with lock:
                    if not queue:
                        return
                    slot, unit = queue.popleft()
                try:
                    reply, dispatch, waited = self._request_unit(client, unit)
                except Exception as error:  # noqa: BLE001 — recorded per unit
                    client.mark_dead()
                    with lock:
                        results[slot] = error
                    return
                with lock:
                    results[slot] = reply
                    if stats is not None:
                        stats.workers.dispatch_seconds += dispatch
                        stats.workers.wait_seconds += waited
                        stats.workers.record_worker(client.address)

        live = [client for client in self._clients if client.alive]
        threads = [
            threading.Thread(target=drain, args=(client,), daemon=True)
            for client in live
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        while queue:
            slot, unit = queue.popleft()
            results[slot] = RemoteWorkerError(
                "no live remote workers left for this unit"
            )
        return results

    # ------------------------------------------------------------------ #
    # ExecutionBackend interface
    # ------------------------------------------------------------------ #
    def replies(
        self, session: "EvaluationSession", plans: Iterator[WorkPlan], count: int
    ) -> Iterator[tuple[WorkPlan, Reply]]:
        """Drain every plan's unit through the workers; replies in order.

        A unit whose worker died (or timed out) holding it replies with
        that exception — exactly the crashed-future path.
        """
        workers = session.stats.workers
        workers.backend = self.name
        plans = list(plans)
        units: list[tuple[int, WorkUnit]] = []
        for slot, plan in enumerate(plans):
            if plan.needs_worker:
                unit = plan.work_unit()
                workers.record_unit(unit)
                units.append((slot, unit))
        replies = self._run_units(units, session.stats)
        for slot, plan in enumerate(plans):
            yield plan, replies.get(slot, WorkResult())

    def simulate_plans(self, plans: Sequence[Any]) -> list[dict[int, Any]]:
        """Shard arbitrary plans' missing blocks across the workers.

        The NAS estimator's seam: candidate plans carry no workload, so the
        shipped units are anonymous (``workload=None`` + the simulation
        config).  Any unit a worker fails — error reply, dead connection —
        falls back to inline simulation of just that plan, so the estimator
        never sees a transport fault.
        """
        out: list[dict[int, Any]] = [{} for _ in plans]
        units = [
            (index, slice_work_unit(plan))
            for index, plan in enumerate(plans)
            if plan.program is not None and plan.simulate_indices
        ]
        if not units:
            return out
        replies = self._run_units(units)
        for index, _ in units:
            reply = replies[index]
            if isinstance(reply, Exception) or reply.error is not None:
                out[index] = simulate_planned_blocks([plans[index]])[0]
            else:
                out[index] = dict(reply.layers)
        return out
