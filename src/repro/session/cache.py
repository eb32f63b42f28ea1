"""Artifact cache keyed by content fingerprints (memory + disk).

The staged compile → simulate-blocks → compose pipeline produces cacheable
artifacts at every seam, and this module stores all of them behind one
fingerprint-keyed interface:

* ``program`` — a compiled :class:`~repro.isa.program.Program`, keyed by a
  *structure-only* fingerprint (network structure, batch, scratchpad sizes,
  compiler flags), so sweeps that vary only simulation parameters (e.g.
  off-chip bandwidth) reuse one compilation;
* ``layer`` — one simulated block's
  :class:`~repro.sim.results.LayerResult`, stored *content-addressed*:
  keyed by the name-free layer fingerprint (layer shape + bitwidths +
  tiling + instruction image) plus the simulation-affecting configuration
  (:func:`repro.session.engine.layer_cache_key`), with the record's name
  normalized away.  Unchanged blocks are never re-simulated, and identical
  layers dedupe across different networks in model-family sweeps (the
  entry is renamed to the requesting block on use);
* ``network_result`` — a full composed/simulated
  :class:`~repro.sim.results.NetworkResult` (the baselines' unit of work);
* ``tiling`` — one :class:`~repro.isa.tiling.TilingPlan`, keyed by the GEMM
  shape + operand bitwidths + the loop orders searched + the scratchpad
  capacities the search targeted (:func:`repro.session.engine.
  tiling_cache_key`).  The compiler's dominant cost is the tiling search,
  and duplicate GEMM shapes are everywhere — within a network (ResNet's
  repeated blocks), across networks, and across sweep points that do not
  vary the buffers — so memoizing plans here is what makes cold compiles
  cheap and warm ones nearly free;
* ``program_stats`` — lightweight instruction statistics (legacy kind,
  still readable).

Every payload serializes losslessly to JSON — ints, floats and strings
only, and Python's JSON round-trips floats exactly — so an entry read back
from disk is bit-identical to the freshly computed artifact.

On-disk layout — two formats, one directory contract:

* ``pack`` (default for new directories): entries live in append-only
  pack segments managed by :class:`repro.session.store.SegmentedStore`
  (length-prefixed compact records + per-segment index sidecars).  The
  key index is built once at open; lookups are dictionary hits, writes
  are group-committed appends (:meth:`ResultCache.batch` buffers a
  batch's records into a single segment write), bulk reads go through
  :meth:`ResultCache.get_many`/:meth:`ResultCache.prefetch`, and
  eviction is segment compaction instead of per-file unlinks.
* ``json`` (legacy, read-compatible fallback and correctness oracle):
  one ``<fingerprint>.json`` file per entry.  Opening an old JSON-layout
  directory keeps serving it unchanged; ``python -m repro.harness cache
  migrate`` converts it in place.  Both formats produce byte-identical
  results and statistics — only the I/O cost differs.

The layout is auto-detected from the directory contents (segments → pack,
per-entry files → json, empty → pack), overridable per cache via the
``layout=`` parameter or globally via ``REPRO_CACHE_LAYOUT=json|pack``.
A pack-layout cache still reads stray ``<key>.json`` entries left in the
directory (mixed dirs mid-migration), so the two formats can coexist.

Either way a ``manifest.json`` carries a schema version and an entry
index (kind, size, recency).  The manifest makes a cache directory safe to
share across machines and CI runs: a schema bump or a hand-edited directory
degrades to a rebuild, never a crash, and an optional ``max_bytes`` budget
evicts least-recently-used entries so shared directories stay bounded.

The manifest is strictly advisory: entry lookups always check the backing
store, so a stale, missing or read-only manifest never affects
correctness — read paths degrade to plain reads when the directory is not
writable, and concurrent writers that race on the manifest merely leave it
temporarily incomplete (each writer enforces the size budget against its
own view until the next rebuild reconciles the index).
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.isa.program import Program
from repro.session.store import SEGMENT_SUFFIX, SegmentedStore, encode_body
from repro.isa.tiling import TilingPlan
from repro.sim.results import (
    LayerResult,
    NetworkResult,
    layer_result_from_dict,
    layer_result_to_dict,
)

__all__ = [
    "CacheStats",
    "StageStats",
    "WorkerStats",
    "ProgramStats",
    "ResultCache",
    "MANIFEST_SCHEMA_VERSION",
    "network_result_to_dict",
    "network_result_from_dict",
]

#: Version of the on-disk manifest schema; a mismatch triggers a rebuild.
#: v2 added the content-addressed ``layer`` entry kind; v3 added the
#: ``tiling`` entry kind (older manifests rebuild cleanly — entry payloads
#: are unchanged and stay readable).
MANIFEST_SCHEMA_VERSION = 3

_MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ProgramStats:
    """Instruction statistics of one compiled Fusion-ISA program."""

    network_name: str
    block_instruction_counts: tuple[int, ...]
    total_instructions: int
    binary_bytes: int

    @property
    def blocks(self) -> int:
        return len(self.block_instruction_counts)

    @classmethod
    def from_program(cls, program: Program) -> "ProgramStats":
        """Distill the statistics of a compiled program.

        Deriving the statistics from a (possibly cache-restored) program is
        what lets the ISA experiment share the program-level cache with the
        simulation pipeline instead of keeping a parallel store.
        """
        return cls(
            network_name=program.network_name,
            block_instruction_counts=tuple(len(compiled.block) for compiled in program),
            total_instructions=program.total_instructions(),
            binary_bytes=program.total_binary_bytes(),
        )


@dataclass
class StageStats:
    """Hit/miss counters for one pipeline stage (programs or blocks)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record_hit(self, source: str) -> None:
        self.hits += 1
        if source == "disk":
            self.disk_hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def summary(self, label: str, work: str) -> str:
        return (
            f"{label}: {self.hits} hits ({self.disk_hits} from disk), "
            f"{self.misses} {work} (hit rate {self.hit_rate:.0%})"
        )


@dataclass
class WorkerStats:
    """Counters of the cache-aware parallel worker protocol.

    ``units`` counts :class:`~repro.session.engine.WorkUnit`s dispatched to
    pool workers, ``remote_blocks`` the blocks those units actually
    simulated, and ``reused_blocks`` the blocks the main process resolved
    from the artifact cache (or from another in-flight workload of the same
    batch) instead of shipping — the waste the protocol exists to avoid.

    ``backend`` names the execution backend that dispatched the units
    (``pool``, ``remote``; empty when everything ran inline), ``per_worker``
    counts units per worker identity (pool pid or remote address), and
    ``dispatch_seconds`` / ``wait_seconds`` accumulate the coordinator-side
    wall time spent serializing/submitting units versus blocking on their
    replies — the ``--profile`` table's per-backend overhead row.
    """

    units: int = 0
    remote_blocks: int = 0
    reused_blocks: int = 0
    backend: str = ""
    dispatch_seconds: float = 0.0
    wait_seconds: float = 0.0
    per_worker: dict[str, int] = field(default_factory=dict)

    def record_worker(self, worker_id: str) -> None:
        """Attribute one completed work unit to a worker identity."""
        self.per_worker[worker_id] = self.per_worker.get(worker_id, 0) + 1

    def summary(self) -> str:
        label = f"parallel workers [{self.backend}]" if self.backend else "parallel workers"
        return (
            f"{label}: {self.units} work units dispatched, "
            f"{self.remote_blocks} blocks simulated remotely, "
            f"{self.reused_blocks} blocks reused from cache"
        )

    def per_worker_summary(self) -> str | None:
        """One footer line of per-worker unit counts, or None when inline."""
        if not self.per_worker:
            return None
        parts = ", ".join(
            f"{worker}: {count}" for worker, count in sorted(self.per_worker.items())
        )
        return f"per-worker units: {parts}"


@dataclass
class CacheStats:
    """Counters the session reports at the end of a run.

    Workload-level counters: ``hits`` counts lookups satisfied from memory,
    disk, or by composing cached per-block artifacts; ``misses`` lookups
    that required fresh work; ``deduped`` counts in-batch duplicates of a
    workload whose execution was still pending (no cached value existed, so
    they are deduplication wins rather than cache hits); ``disk_hits`` is
    the subset of hits that involved the on-disk store;
    ``unique_executions`` counts distinct fingerprints that did fresh work
    this session (the acceptance criterion is that no fingerprint is ever
    executed twice).

    Stage-level counters: ``programs`` tracks compile-stage cache traffic
    (misses are compilations), ``tilings`` tracks the tiling-plan memo the
    compiler consults before every search (misses are actual searches —
    the compiler's dominant cost — and hits are duplicate GEMM shapes
    served from the memo) and ``blocks`` tracks the content-addressed
    block lookups of the simulate-blocks stage (misses are per-block
    simulations; hits include identical layers shared across networks).
    ``workers`` tracks the parallel worker protocol.
    ``compile_seconds`` accumulates the wall-clock time spent inside
    ``FusionCompiler.compile`` (cache misses only), surfaced by the report
    footer's ``compile time`` line so compile-cost regressions are visible
    on every run.  ``sim_seconds`` accumulates block/workload simulation
    wall time the same way (the ``sim time`` footer line), and
    ``compose_seconds`` the result-composition time; parallel runs fold the
    worker-side timings from each
    :class:`~repro.session.engine.WorkResult` into both, so serial and
    parallel footers measure the same stages.
    """

    hits: int = 0
    misses: int = 0
    deduped: int = 0
    disk_hits: int = 0
    #: Failed executions retried once (the retry-once / quarantine policy);
    #: 0 on every fault-free run, so the summary only mentions it when a
    #: retry actually happened and fault-free footers stay byte-identical.
    retries: int = 0
    compile_seconds: float = 0.0
    sim_seconds: float = 0.0
    compose_seconds: float = 0.0
    executions: dict[str, int] = field(default_factory=dict)
    programs: StageStats = field(default_factory=StageStats)
    tilings: StageStats = field(default_factory=StageStats)
    blocks: StageStats = field(default_factory=StageStats)
    workers: WorkerStats = field(default_factory=WorkerStats)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.deduped

    @property
    def unique_executions(self) -> int:
        return len(self.executions)

    @property
    def hit_rate(self) -> float:
        """Hits over genuine cache lookups (in-batch duplicates excluded)."""
        consulted = self.hits + self.misses
        return self.hits / consulted if consulted else 0.0

    def record_execution(self, key: str) -> None:
        self.executions[key] = self.executions.get(key, 0) + 1

    def max_executions_per_workload(self) -> int:
        """1 when every unique workload was simulated exactly once."""
        return max(self.executions.values(), default=0)

    def summary(self) -> str:
        lines = [
            f"{self.lookups} workload lookups: {self.hits} cache hits "
            f"({self.disk_hits} from disk), {self.misses} misses, "
            f"{self.deduped} in-batch duplicates deduped, "
            f"{self.unique_executions} unique executions "
            f"(hit rate {self.hit_rate:.0%})"
        ]
        lines.append(self.programs.summary("program cache", "compiles"))
        lines.append(self.tilings.summary("tiling memo", "tiling searches"))
        lines.append(self.blocks.summary("block cache", "block simulations"))
        if self.retries:
            # Only on faulty runs: fault-free footers must stay byte-identical
            # across releases (CI greps them).
            lines.append(f"workload retries: {self.retries} failed execution(s) retried once")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# NetworkResult <-> JSON
# ---------------------------------------------------------------------- #
def network_result_to_dict(result: NetworkResult) -> dict[str, Any]:
    """Serialize a NetworkResult to a JSON-compatible dictionary."""
    return asdict(result)


def network_result_from_dict(payload: dict[str, Any]) -> NetworkResult:
    """Rebuild a NetworkResult from :func:`network_result_to_dict` output."""
    layers = tuple(layer_result_from_dict(layer) for layer in payload["layers"])
    return NetworkResult(
        network_name=payload["network_name"],
        platform=payload["platform"],
        batch_size=payload["batch_size"],
        frequency_mhz=payload["frequency_mhz"],
        layers=layers,
    )


def _program_stats_to_dict(stats: ProgramStats) -> dict[str, Any]:
    return {
        "network_name": stats.network_name,
        "block_instruction_counts": list(stats.block_instruction_counts),
        "total_instructions": stats.total_instructions,
        "binary_bytes": stats.binary_bytes,
    }


def _program_stats_from_dict(payload: dict[str, Any]) -> ProgramStats:
    return ProgramStats(
        network_name=payload["network_name"],
        block_instruction_counts=tuple(payload["block_instruction_counts"]),
        total_instructions=payload["total_instructions"],
        binary_bytes=payload["binary_bytes"],
    )


_SERIALIZERS = {
    "network_result": (network_result_to_dict, network_result_from_dict),
    "layer": (layer_result_to_dict, layer_result_from_dict),
    "program": (Program.to_dict, Program.from_dict),
    "program_stats": (_program_stats_to_dict, _program_stats_from_dict),
    "tiling": (TilingPlan.to_dict, TilingPlan.from_dict),
}


def _kind_of(value: Any) -> str:
    if isinstance(value, NetworkResult):
        return "network_result"
    if isinstance(value, LayerResult):
        return "layer"
    if isinstance(value, Program):
        return "program"
    if isinstance(value, ProgramStats):
        return "program_stats"
    if isinstance(value, TilingPlan):
        return "tiling"
    raise TypeError(f"cannot cache values of type {type(value).__name__}")


#: Environment override for the on-disk layout (``json`` or ``pack``);
#: an explicit ``layout=`` argument wins over it, auto-detection applies
#: when neither is set.  CI's format-compatibility smoke uses this to seed
#: a legacy JSON-layout directory without code changes.
LAYOUT_ENV = "REPRO_CACHE_LAYOUT"

#: Entry files put ``"kind"`` first (``json.dumps(sort_keys=True)`` of a
#: dict whose first sorted key is ``kind``), so a bounded prefix is enough
#: to recover it during a manifest rebuild — reading whole payloads (which
#: can be megabytes for network results) made rebuilds scale with payload
#: bytes instead of entry count.
_KIND_PREFIX_BYTES = 256
_KIND_PATTERN = re.compile(r'"kind":\s*"([a-z_]+)"')


def _read_entry_kind(path: Path) -> str:
    """Recover an entry file's ``kind`` from a bounded prefix read."""
    try:
        with path.open("rb") as handle:
            head = handle.read(_KIND_PREFIX_BYTES).decode("utf-8", errors="replace")
    except OSError:
        return "unknown"
    match = _KIND_PATTERN.search(head)
    return match.group(1) if match is not None else "unknown"


class ResultCache:
    """Fingerprint-keyed store of evaluation artifacts.

    Parameters
    ----------
    cache_dir:
        When given, entries are also persisted under this directory and
        later sessions (or processes) can reuse them; when ``None`` the
        cache is memory-only and lives for one session.
    max_bytes:
        Optional size budget for the on-disk store.  When the sum of entry
        sizes exceeds the budget after a write, least-recently-used entries
        are evicted until it fits (the entry just written always survives).
    layout:
        On-disk format: ``"pack"`` (segmented pack-file store) or
        ``"json"`` (legacy one-file-per-entry).  ``None`` consults the
        ``REPRO_CACHE_LAYOUT`` environment variable, then auto-detects
        from the directory contents; fresh directories default to pack.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_bytes: int | None = None,
        layout: str | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        #: Wall-clock seconds spent on cache disk IO (entry reads in
        #: :meth:`get`/:meth:`prefetch`, entry writes in :meth:`put` and
        #: batch drains) — the ``cache-IO`` row of ``python -m
        #: repro.harness --profile``.
        self.io_seconds = 0.0
        self._memory: dict[str, Any] = {}
        #: Bulk-read staging (:meth:`prefetch`): values read from disk but
        #: not yet handed out, so the first :meth:`get_with_source` on a
        #: prefetched key still reports ``"disk"`` exactly like the
        #: one-file-per-entry oracle would.
        self._prefetched: dict[str, Any] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_bytes = max_bytes
        self._manifest: dict[str, dict[str, Any]] = {}
        self._manifest_dirty = False
        self._seq = 0
        #: Running total of manifest entry bytes, maintained incrementally
        #: so the per-put budget check is O(1) instead of re-summing the
        #: whole manifest on every write.
        self._live_bytes = 0
        self._store: SegmentedStore | None = None
        #: Pack layout only: whether stray per-entry JSON files exist in
        #: the directory and must be consulted as a read fallback.
        self._json_fallback = False
        #: Group-commit state (:meth:`batch`): nesting depth plus the
        #: encoded record bodies queued for the next single segment append.
        self._batch_depth = 0
        self._batch_records: dict[str, tuple[str, bytes]] = {}
        self.layout = "memory"
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self.layout = self._resolve_layout(layout)
            if self.layout == "pack":
                self._store = SegmentedStore(self.cache_dir)
            self._load_manifest()

    def _resolve_layout(self, layout: str | None) -> str:
        """Explicit argument > ``REPRO_CACHE_LAYOUT`` > directory contents."""
        assert self.cache_dir is not None
        if layout is None:
            layout = os.environ.get(LAYOUT_ENV) or None
        if layout not in (None, "json", "pack"):
            raise ValueError(f"unknown cache layout {layout!r} (expected 'json' or 'pack')")
        has_segments = False
        has_entries = False
        try:
            for item in os.scandir(self.cache_dir):
                name = item.name
                if name.startswith("pack-") and name.endswith(SEGMENT_SUFFIX):
                    has_segments = True
                elif (
                    name.endswith(".json")
                    and name != _MANIFEST_NAME
                    and not name.endswith(".tmp")
                ):
                    has_entries = True
        except OSError:
            pass
        self._json_fallback = has_entries
        if layout is not None:
            return layout
        if has_segments:
            return "pack"
        if has_entries:
            return "json"
        return "pack"

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory or key in self._prefetched:
            return True
        if self._store is not None:
            if key in self._store:
                return True
            return self._json_fallback and self._entry_path(key) is not None
        return self._entry_path(key) is not None

    # ------------------------------------------------------------------ #
    # Manifest (schema version + entry index + recency for LRU)
    # ------------------------------------------------------------------ #
    @property
    def _manifest_path(self) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / _MANIFEST_NAME

    def _load_manifest(self) -> None:
        try:
            payload = json.loads(self._manifest_path.read_text(encoding="utf-8"))
            if payload.get("schema_version") != MANIFEST_SCHEMA_VERSION:
                raise ValueError("manifest schema mismatch")
            entries = payload["entries"]
            if not isinstance(entries, dict) or not all(
                isinstance(entry, dict)
                and isinstance(entry.get("seq", 0), (int, float))
                and isinstance(entry.get("bytes", 0), (int, float))
                for entry in entries.values()
            ):
                raise ValueError("malformed manifest entries")
            self._manifest = entries
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, stale-schema or corrupted manifest: rebuild the index
            # from the entry files actually present.  Entry payloads stay
            # readable either way — the manifest is bookkeeping, not data.
            self._rebuild_manifest()
        self._seq = max(
            (int(entry.get("seq", 0)) for entry in self._manifest.values()), default=0
        )
        self._live_bytes = sum(
            int(entry.get("bytes", 0)) for entry in self._manifest.values()
        )

    def _rebuild_manifest(self) -> None:
        """Rebuild the advisory index from the entries actually present.

        Sizes come from ``stat`` (json files) or the store index (pack
        records), and an entry's ``kind`` comes from the store index or a
        bounded prefix read of the file — never a full payload read, so a
        rebuild scales with the entry *count*, not the payload bytes.
        """
        assert self.cache_dir is not None
        records: list[tuple[float, str, Path, int]] = []
        for path in self.cache_dir.glob("*.json"):
            if path.name == _MANIFEST_NAME or path.name.endswith(".tmp"):
                continue
            try:
                stat = path.stat()
            except OSError:
                # A concurrent evictor may unlink entries mid-scan; a file
                # that vanished simply is not part of the rebuilt index.
                continue
            records.append((stat.st_mtime, path.name, path, stat.st_size))
        entries: dict[str, dict[str, Any]] = {}
        # Oldest files get the lowest recency so a fresh manifest preserves a
        # sensible LRU order.
        seq = 0
        for seq, (_, _, path, size) in enumerate(sorted(records), 1):
            entries[path.stem] = {"kind": _read_entry_kind(path), "bytes": size, "seq": seq}
        if self._store is not None:
            # Pack records carry their kind and size in the store index —
            # no reads at all.  Store entries are newer than any leftover
            # json files by construction (migration deletes the files), so
            # they take the higher recency and win key collisions.
            for key, kind, size in self._store.index_entries():
                seq += 1
                entries[key] = {"kind": kind, "bytes": size, "seq": seq}
        self._manifest = entries
        self._manifest_dirty = True
        self._flush_manifest()

    def _flush_manifest(self) -> None:
        """Write the manifest if it has pending changes.

        A read-only shared cache directory (e.g. one seeded into CI and
        mounted immutable) must still *serve* entries, so write failures are
        swallowed: the manifest is advisory bookkeeping, never data.
        """
        if not self._manifest_dirty:
            return
        payload = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "entries": self._manifest,
        }
        path = self._manifest_path
        tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            tmp.replace(path)
        except OSError:
            return
        self._manifest_dirty = False

    def flush(self) -> None:
        """Flush pending manifest updates and the store's index sidecar.

        One call lands everything batched since the last flush: recency
        touches, new entries' bookkeeping, and (pack layout) the writer
        segment's index sidecar — a single index flush per executed batch,
        not one per record.  Records queued inside an open :meth:`batch`
        scope are left for the scope's own drain.
        """
        self._flush_manifest()
        if self._store is not None:
            self._store.flush()

    def _touch(self, key: str) -> None:
        """Mark an entry most-recently-used.

        Touches are batched in memory and flushed with the next write (or an
        explicit :meth:`flush`): a warm, read-mostly run should not rewrite
        the manifest once per lookup, and recency is advisory anyway.  Each
        touch also increments the entry's ``refs`` counter — the per-entry
        reuse statistic ``--cache-info`` reports.
        """
        entry = self._manifest.get(key)
        if entry is None:
            return
        self._seq += 1
        entry["seq"] = self._seq
        entry["refs"] = int(entry.get("refs", 0)) + 1
        self._manifest_dirty = True

    def _evict_over_budget(self, protected: str) -> None:
        """Evict least-recently-used entries until the size budget fits.

        The budget check runs on every put, so it compares the maintained
        running total (``_live_bytes``) instead of re-summing the manifest,
        and only sorts by recency once actually over budget.  Pack layout:
        eviction drops the key from the store index (its record bytes
        become dead) and one compaction pass afterwards rewrites segments
        that are now mostly dead — no per-entry unlinks.
        """
        if self.max_bytes is None or self.cache_dir is None:
            return
        if self._live_bytes <= self.max_bytes:
            return
        by_recency = sorted(
            (key for key in self._manifest if key != protected),
            key=lambda key: int(self._manifest[key].get("seq", 0)),
        )
        for key in by_recency:
            if self._live_bytes <= self.max_bytes:
                break
            if self._store is not None:
                self._batch_records.pop(key, None)
                self._store.discard(key)
            else:
                try:
                    (self.cache_dir / f"{key}.json").unlink(missing_ok=True)
                except OSError:
                    continue
            self._live_bytes -= int(self._manifest[key].get("bytes", 0))
            del self._manifest[key]
            # Batched like every other manifest update (the index is
            # advisory; a stale entry for a deleted record is harmless until
            # the next flush or rebuild reconciles it).
            self._manifest_dirty = True
        if self._store is not None:
            # Aggressive: an evicted record must be gone for the *next*
            # reader too, so any idle segment now carrying dead bytes is
            # rewritten (evictions landing in this process's own segment
            # stay dead-byte marks — its index sidecar hides them).
            self._store.compact(aggressive=True)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def _entry_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.json"
        return path if path.exists() else None

    @staticmethod
    def _decode_entry(entry: dict[str, Any]) -> Any | None:
        """Deserialize one entry record's payload; None when unreadable."""
        try:
            _, deserialize = _SERIALIZERS[entry["kind"]]
            return deserialize(entry["payload"])
        except (ValueError, KeyError, TypeError):
            return None

    def _read_disk_entry(self, key: str) -> Any | None:
        """One on-disk entry (store record or json file), deserialized.

        Pack layout consults the store index first and falls back to a
        stray ``<key>.json`` file when the directory still carries legacy
        entries (mid-migration mixed dirs).  IO time is accounted here.
        """
        started = time.perf_counter()
        try:
            if self._store is not None:
                record = self._store.get_record(key)
                if record is not None:
                    return self._decode_entry(record)
                if not self._json_fallback:
                    return None
            path = self._entry_path(key)
            if path is None:
                return None
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(entry, dict):
                    return None
            except (OSError, ValueError):
                # A corrupted or schema-stale entry is a miss, not a crash;
                # the fresh computation overwrites it on the next put().
                return None
            return self._decode_entry(entry)
        finally:
            self.io_seconds += time.perf_counter() - started

    def get(self, key: str) -> Any | None:
        """Fetch an entry, promoting disk entries into memory. None on miss."""
        if key in self._memory:
            # Memory hits must refresh disk recency too: the hottest entries
            # are exactly the ones promoted into memory, and without the
            # touch they would look LRU-coldest on disk and be evicted first.
            self._touch(key)
            return self._memory[key]
        value = self._prefetched.pop(key, None)
        if value is None:
            value = self._read_disk_entry(key)
        if value is None:
            return None
        self._memory[key] = value
        self._touch(key)
        return value

    def prefetch(self, keys: Iterable[str]) -> set[str] | None:
        """Bulk-stage on-disk entries for upcoming :meth:`get` calls.

        Pack layout: one index pass plus per-segment reads in offset order
        resolves the whole batch; staged values sit apart from the memory
        tier so the first :meth:`get_with_source` on each still reports
        ``"disk"`` — statistics stay byte-identical to the json oracle.
        Returns the keys that are *not* available (a following ``get``
        would miss), or ``None`` when there is nothing to bulk-read (json
        or memory-only layout, where per-entry reads are already the cost).
        """
        if self._store is None:
            return None
        wanted = [
            key
            for key in keys
            if key not in self._memory and key not in self._prefetched
        ]
        missing: set[str] = set()
        if not wanted:
            return missing
        started = time.perf_counter()
        records = self._store.get_records(wanted)
        self.io_seconds += time.perf_counter() - started
        for key in wanted:
            record = records.get(key)
            value = self._decode_entry(record) if record is not None else None
            if value is None and self._json_fallback:
                value = self._read_disk_entry(key)
            if value is None:
                missing.add(key)
            else:
                self._prefetched[key] = value
        return missing

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """Resolve a batch of keys in one index pass; absent keys omitted.

        Equivalent to (and accounted exactly like) a :meth:`get` per key,
        but pack-layout reads are grouped per segment instead of probing
        the filesystem once per key.
        """
        keys = list(keys)
        self.prefetch(keys)
        out: dict[str, Any] = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                out[key] = value
        return out

    def get_with_source(self, key: str) -> tuple[Any | None, str]:
        """Like :meth:`get` but also reports ``"memory"``/``"disk"``/``"miss"``."""
        if key in self._memory:
            self._touch(key)
            return self._memory[key], "memory"
        value = self.get(key)
        return value, ("disk" if value is not None else "miss")

    def put(
        self,
        key: str,
        value: Any,
        description: dict[str, Any] | None = None,
        persist: bool = True,
    ) -> None:
        """Store an entry in memory and, when configured, on disk.

        ``persist=False`` keeps the entry memory-only even when a cache
        directory is configured — the session uses this for composed
        network results whose per-block artifacts already live on disk
        (persisting the composition too would just duplicate them).

        Json layout: the entry file is written immediately (and
        atomically).  Pack layout: the record is appended to this process's
        segment immediately — or, inside a :meth:`batch` scope, queued and
        group-committed as one segment write when the scope closes.  Either
        way manifest updates are batched and land with the next eviction
        pass or :meth:`flush` (the session flushes after every executed
        batch and on close), so storing N artifacts costs O(1) manifest
        rewrites instead of N.
        """
        kind = _kind_of(value)
        self._memory[key] = value
        self._prefetched.pop(key, None)
        if self.cache_dir is None or not persist:
            return
        serialize, _ = _SERIALIZERS[kind]
        entry = {
            "kind": kind,
            "workload": description or {},
            "payload": serialize(value),
        }
        if self._store is not None:
            body = encode_body(key, entry)
            if self._batch_depth > 0:
                # Pure CPU: the queued record's I/O happens (and is timed)
                # at the batch drain.
                self._batch_records[key] = (kind, body)
            else:
                started = time.perf_counter()
                sizes = self._store.append_encoded([(key, kind, body)])
                self.io_seconds += time.perf_counter() - started
                if sizes is None:
                    # A read-only shared cache directory still serves reads;
                    # the fresh value simply stays memory-only this session.
                    return
            entry_bytes = len(body)
        else:
            started = time.perf_counter()
            path = self.cache_dir / f"{key}.json"
            # Per-process temp name so concurrent runs sharing a cache dir
            # never tear each other's writes; the final replace is atomic.
            tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
            text = json.dumps(entry, sort_keys=True)
            try:
                tmp.write_text(text, encoding="utf-8")
                tmp.replace(path)
            except OSError:
                return
            finally:
                self.io_seconds += time.perf_counter() - started
            entry_bytes = len(text.encode("utf-8"))
        self._seq += 1
        # Overwrites keep the accumulated reference count: the entry's
        # payload is new but its reuse history is not.
        previous = self._manifest.get(key)
        refs = int(previous.get("refs", 0)) if previous else 0
        self._live_bytes -= int(previous.get("bytes", 0)) if previous else 0
        self._manifest[key] = {
            "kind": kind,
            "bytes": entry_bytes,
            "seq": self._seq,
            "refs": refs,
        }
        self._live_bytes += entry_bytes
        self._manifest_dirty = True
        if self.max_bytes is not None:
            self._evict_over_budget(protected=key)

    @contextmanager
    def batch(self) -> Iterator["ResultCache"]:
        """Group-commit scope: buffered puts land as one segment append.

        Inside the scope, :meth:`put` queues each record's encoded bytes
        instead of appending them one write at a time; when the outermost
        scope exits (normally *or* via an exception — whatever was stored
        stays stored) the queue drains as a single segment write.  Memory
        and manifest bookkeeping still update per put, so lookups, recency
        and eviction behave identically inside and outside a batch.  Nests
        flatly; a no-op for the json and memory-only layouts.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._drain_batch()

    def _drain_batch(self) -> None:
        if not self._batch_records or self._store is None:
            return
        items = [
            (key, kind, body) for key, (kind, body) in self._batch_records.items()
        ]
        self._batch_records = {}
        started = time.perf_counter()
        self._store.append_encoded(items)
        self.io_seconds += time.perf_counter() - started
        # A failed drain (read-only directory) leaves the entries
        # memory-only; the advisory manifest self-heals on the next rebuild.

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries, if any, survive)."""
        self._memory.clear()
        self._prefetched.clear()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entry_summary(self) -> dict[str, dict[str, int]]:
        """Per-kind entry counts and byte totals of the on-disk store.

        Aggregated straight from the manifest index (``manifest.json``), so
        the numbers are exactly what the manifest records; a memory-only
        cache returns an empty mapping.  This is what ``python -m
        repro.harness --cache-info`` reports.
        """
        summary: dict[str, dict[str, int]] = {}
        for entry in self._manifest.values():
            kind = str(entry.get("kind", "unknown"))
            bucket = summary.setdefault(kind, {"entries": 0, "bytes": 0, "refs": 0})
            bucket["entries"] += 1
            bucket["bytes"] += int(entry.get("bytes", 0))
            bucket["refs"] += int(entry.get("refs", 0))
        return summary

    def top_referenced(self, kind: str, limit: int = 5) -> list[dict[str, Any]]:
        """The ``limit`` most-referenced on-disk entries of one kind.

        Each record carries the entry's fingerprint ``key``, its ``refs``
        count (touches accumulated in the manifest — recency refreshes, so
        every memory or disk hit counts one) and the stored ``workload``
        description (read from the entry file; empty when unreadable).
        Zero-reference entries are omitted: an entry that was only ever
        written tells nothing about reuse.  ``--cache-info`` prints this for
        the content-addressed ``layer`` kind, which is what a NAS search
        gets for free.
        """
        ranked = sorted(
            (
                (int(entry.get("refs", 0)), key)
                for key, entry in self._manifest.items()
                if str(entry.get("kind", "unknown")) == kind and int(entry.get("refs", 0)) > 0
            ),
            key=lambda item: (-item[0], item[1]),
        )
        records: list[dict[str, Any]] = []
        for refs, key in ranked[:limit]:
            description: dict[str, Any] = {}
            payload: dict[str, Any] | None = None
            if self._store is not None:
                payload = self._store.get_record(key)
            if payload is None and self.cache_dir is not None:
                try:
                    payload = json.loads(
                        (self.cache_dir / f"{key}.json").read_text(encoding="utf-8")
                    )
                except (OSError, ValueError):
                    payload = None
            if isinstance(payload, dict):
                description = payload.get("workload", {}) or {}
            records.append({"key": key, "refs": refs, "workload": description})
        return records

    def disk_keys(self) -> set[str]:
        """Keys currently resolvable from the on-disk store.

        Store-index keys plus (json layout or mixed dirs) per-entry file
        stems — the ground truth eviction tests and tooling check against,
        independent of the advisory manifest.
        """
        keys: set[str] = set()
        if self.cache_dir is None:
            return keys
        if self._store is not None:
            keys.update(self._store.keys())
            if not self._json_fallback:
                return keys
        try:
            for path in self.cache_dir.glob("*.json"):
                if path.name != _MANIFEST_NAME and not path.name.endswith(".tmp"):
                    keys.add(path.stem)
        except OSError:
            pass
        return keys

    def describe_layout(self) -> str:
        """One human-readable line describing the on-disk format.

        Printed by ``--cache-info`` so operators can tell at a glance
        whether a directory still uses the legacy one-file-per-entry
        layout (and would benefit from ``cache migrate``).
        """
        if self.cache_dir is None:
            return "memory-only (no cache directory)"
        if self._store is not None:
            segments = self._store.segment_count
            noun = "segment" if segments == 1 else "segments"
            line = f"segmented pack ({segments} {noun})"
            if self._json_fallback:
                line += ", serving legacy json entries as fallback"
            return line
        return "json files, one per entry (convert with: cache migrate)"

    def close(self) -> None:
        """Flush pending state and release store file handles.

        The cache stays usable afterwards (handles reopen lazily); this
        just bounds open file descriptors for long-lived processes that
        cycle many caches.
        """
        self.flush()
        if self._store is not None:
            self._store.close()
