"""Tests for the segmented pack-file artifact store and its cache wiring.

Covers the store format itself (record codec, torn-tail tolerance, index
sidecars, compaction), the :class:`~repro.session.cache.ResultCache`
integration (group commits, eviction durability), migration from the
retired JSON-per-entry layout (seeded with files written exactly as that
layout's writer wrote them), byte-identity of whole session runs across
memory, pack and migrated directories, and the concurrent-writer model
(per-process segments, readers merge at open) — including a real
multi-process stress test mirroring the checkpoint journal's torn-line
test.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.runner import cache_main, format_cache_info
from repro.isa.tiling import TilingPlan
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
    Workload,
    compile_program,
    layer_cache_key,
    migrate_json_dir,
)
from repro.session.cache import ProgramStats, network_result_to_dict
from repro.session.store import encode_record, iter_records

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _stats(tag: str) -> ProgramStats:
    return ProgramStats(
        network_name=f"net-{tag}",
        block_instruction_counts=(10, 20, 30),
        total_instructions=60,
        binary_bytes=240,
    )


def _entry(tag: str) -> dict:
    return {"kind": "program_stats", "workload": {"network": tag}, "payload": {"tag": tag}}


def write_legacy_entry(
    directory: Path, key: str, kind: str, payload: dict, workload: dict | None = None
) -> Path:
    """Write ``<key>.json`` exactly as the retired per-entry layout did."""
    path = directory / f"{key}.json"
    text = json.dumps({"kind": kind, "workload": workload or {}, "payload": payload}, sort_keys=True)
    path.write_text(text, encoding="utf-8")
    return path


def convert_to_legacy(directory: Path) -> int:
    """Rewrite a pack directory as legacy per-entry files; returns the count.

    Every store record becomes a ``<key>.json`` file and the segments and
    their sidecars are removed; ``manifest.json`` is left as it was.
    """
    store = SegmentedStore(directory)
    keys = list(store.keys())
    for key in keys:
        record = store.get_record(key)
        write_legacy_entry(directory, key, record["kind"], record["payload"], record["workload"])
    store.close()
    for segment in directory.glob("pack-*.seg*"):
        segment.unlink()
    return len(keys)


#: One ``tiling`` entry file as the retired JSON layout wrote it, verbatim
#: (a LeNet-5 batch-4 run): migration must keep serving such files.
_LEGACY_TILING_KEY = "bfc4f3a341c8d05ab9441993ab7b3631f27d33d450fa8fc4bc01fb0856caca82"
_LEGACY_TILING_ENTRY = (
    '{"kind": "tiling", "payload": {"dram_input_bits": 5120, "dram_output_read_bits": 0, '
    '"dram_output_write_bits": 320, "dram_weight_bits": 12800, '
    '"loop_order": "output-stationary", "tile_m": 10, "tile_n": 640, "tile_r": 4, '
    '"workload": {"input_bits": 2, "m": 10, "n": 640, "output_bits": 8, "r": 4, '
    '"weight_bits": 2}}, "workload": {"artifact": "tiling", "gemm": {"input_bits": 2, '
    '"m": 10, "n": 640, "output_bits": 8, "r": 4, "weight_bits": 2}}}'
)


class TestRecordCodec:
    def test_round_trip_through_raw_bytes(self):
        blob = encode_record("k1", _entry("a")) + encode_record("k2", _entry("b"))
        records = list(iter_records(blob))
        assert [r["key"] for _, _, r in records] == ["k1", "k2"]
        assert records[0][2]["payload"] == {"tag": "a"}
        # Offsets/lengths address exactly the JSON body within the blob.
        offset, length, record = records[1]
        assert json.loads(blob[offset : offset + length].decode("utf-8")) == record

    def test_torn_tail_is_dropped_not_fatal(self):
        blob = encode_record("whole", _entry("w")) + encode_record("torn", _entry("t"))
        truncated = blob[:-7]  # writer killed mid-append
        records = list(iter_records(truncated))
        assert [r["key"] for _, _, r in records] == ["whole"]

    def test_garbage_length_prefix_stops_the_scan(self):
        blob = encode_record("whole", _entry("w")) + struct.pack(">I", 2**31) + b"xx"
        assert [r["key"] for _, _, r in iter_records(blob)] == ["whole"]


class TestSegmentedStore:
    def test_append_and_reload_through_sidecar(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        sizes = writer.append([("k1", _entry("a")), ("k2", _entry("b"))])
        assert sizes and set(sizes) == {"k1", "k2"}
        writer.flush()
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k1", "k2"}
        assert reader.get_record("k1")["payload"] == {"tag": "a"}
        assert reader.kind("k2") == "program_stats"

    def test_stale_sidecar_triggers_rescan(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        writer.append([("k1", _entry("a"))])
        writer.flush()
        # Grow the segment after the sidecar flush: the sidecar's recorded
        # size no longer matches, so a reader must rescan, not trust it.
        writer.append([("k2", _entry("b"))])
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k1", "k2"}

    def test_missing_sidecar_triggers_rescan_and_repair(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        writer.append([("k1", _entry("a"))])
        writer.flush()
        for sidecar in tmp_path.glob("*.idx"):
            sidecar.unlink()
        reader = SegmentedStore(tmp_path)
        assert reader.get_record("k1") is not None
        # The rescan rewrote the sidecar so the next open skips the scan.
        assert list(tmp_path.glob("*.idx"))

    def test_two_writers_merge_at_open(self, tmp_path):
        a = SegmentedStore(tmp_path)
        b = SegmentedStore(tmp_path)
        a.append([("ka", _entry("a"))])
        b.append([("kb", _entry("b"))])
        a.flush()
        b.flush()
        # Each writer owns its own segment; neither saw the other's key,
        # but a fresh reader merges both.
        assert "kb" not in a and "ka" not in b
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"ka", "kb"}
        assert reader.segment_count == 2

    def test_compaction_rewrites_live_records_and_deletes_the_segment(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        writer.append([(f"k{i}", _entry(str(i))) for i in range(4)])
        writer.flush()
        writer.close()
        evictor = SegmentedStore(tmp_path)
        for key in ("k0", "k1", "k2"):
            evictor.discard(key)
        assert evictor.compact() > 0  # dead >= live: the default threshold
        evictor.flush()
        assert evictor.get_record("k3")["payload"] == {"tag": "3"}
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k3"}

    def test_compaction_skips_segments_grown_by_live_writers(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        writer.append([("k0", _entry("0")), ("k1", _entry("1"))])
        writer.flush()
        evictor = SegmentedStore(tmp_path)
        evictor.discard("k0")
        # The original writer appends after the evictor scanned: its
        # segment grew, so even an aggressive compaction must leave it be.
        writer.append([("k2", _entry("2"))])
        assert evictor.compact(aggressive=True) == 0
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k0", "k1", "k2"}


class TestCacheLayouts:
    def test_fresh_directory_defaults_to_pack(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _stats("a"))
        cache.flush()
        entry_files = {p.name for p in tmp_path.glob("*.json")}
        assert entry_files == {"manifest.json"}  # no per-entry files
        assert list(tmp_path.glob("pack-*.seg"))

    def test_legacy_json_entries_are_not_served(self, tmp_path):
        # A directory still holding per-entry files is not read: lookups
        # miss (and recompute into pack records) until `cache migrate`.
        write_legacy_entry(tmp_path, _LEGACY_TILING_KEY, "tiling", {"tile_m": 1})
        cache = ResultCache(tmp_path)
        assert cache.get(_LEGACY_TILING_KEY) is None
        assert _LEGACY_TILING_KEY not in cache
        assert cache.disk_keys() == set()

    def test_put_without_flush_is_visible_to_a_fresh_reader(self, tmp_path):
        # A put is on disk before any flush (the segment append is
        # immediate; only the advisory sidecar/manifest bookkeeping batches).
        writer = ResultCache(tmp_path)
        writer.put("alpha", _stats("a"))
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") == _stats("a")

    def test_batched_puts_land_as_one_group_commit(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            for index in range(8):
                cache.put(f"key{index}", _stats(str(index)))
            # Queued but already visible through the owning cache...
            assert cache.get("key0") == _stats("0")
        cache.flush()
        # ...and on disk in a single segment once the scope closes.
        store = SegmentedStore(tmp_path)
        assert store.segment_count == 1
        assert len(store) == 8

    def test_first_read_is_a_disk_hit_then_memory(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("k1", _stats("1"))
        writer.flush()
        reader = ResultCache(tmp_path)
        assert reader.get_with_source("k1") == (_stats("1"), "disk")
        assert reader.get_with_source("k1") == (_stats("1"), "memory")
        assert reader.get_with_source("ghost") == (None, "miss")

    def test_newest_segment_wins_a_duplicated_key(self, tmp_path):
        # Two writers stored the same key; every fresh reader must serve
        # the most recently written copy, whatever the segment names.
        older = SegmentedStore(tmp_path)
        older.append([("k", _entry("old"))])
        older.close()
        stamp = 10**18
        for segment in tmp_path.glob("pack-*.seg"):
            os.utime(segment, ns=(stamp, stamp))
        newer = SegmentedStore(tmp_path)
        newer.append([("k", _entry("new"))])
        newer.close()
        assert SegmentedStore(tmp_path).get_record("k")["payload"] == {"tag": "new"}

    def test_pack_eviction_is_durable_for_fresh_readers(self, tmp_path):
        writer = ResultCache(tmp_path)
        for index in range(3):
            writer.put(f"key{index}", _stats(str(index)))
        writer.flush()
        writer.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        total = sum(entry["bytes"] for entry in manifest["entries"].values())
        evictor = ResultCache(tmp_path, max_bytes=total)
        evictor.put("key3", _stats("3"))  # over budget: key0 evicted
        # Without any flush from the evictor, a brand-new reader must not
        # resurrect the evicted record from the old segment.
        reader = ResultCache(tmp_path)
        assert reader.get("key0") is None
        assert reader.get("key3") == _stats("3")

    def test_corrupt_record_kind_is_a_miss_not_a_crash(self, tmp_path):
        store = SegmentedStore(tmp_path)
        store.append([("weird", {"kind": "no_such_kind", "payload": {}})])
        store.flush()
        cache = ResultCache(tmp_path)
        assert cache.get("weird") is None


class TestManifestRebuildScaling:
    def test_pack_rebuild_uses_the_store_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _stats("a"))
        cache.flush()
        cache.close()
        (tmp_path / "manifest.json").write_text("garbage", encoding="utf-8")
        rebuilt = ResultCache(tmp_path)
        assert rebuilt.entry_summary()["program_stats"]["entries"] == 1
        assert rebuilt.get("alpha") == _stats("a")


class TestEvictionOrderRegression:
    def test_running_total_preserves_lru_eviction_order(self, tmp_path):
        # The budget check keeps a running byte total instead of re-summing
        # the manifest per put; the observable eviction order (strictly
        # least-recently-used first, the just-written entry protected) must
        # be unchanged.
        writer = ResultCache(tmp_path)
        for index in range(4):
            writer.put(f"key{index}", _stats(str(index)))
        writer.flush()
        writer.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        entry_bytes = manifest["entries"]["key0"]["bytes"]

        cache = ResultCache(tmp_path, max_bytes=4 * entry_bytes)
        assert cache.get("key1") is not None  # touch: key1 hottest
        evicted: list[str] = []
        survivors = {f"key{i}" for i in range(4)}
        # Same key/tag widths as the seeds, so every entry is the same size
        # and each over-budget put evicts exactly one victim.
        for extra in range(4, 7):
            cache.put(f"key{extra}", _stats(str(extra)))
            survivors.add(f"key{extra}")
            remaining = cache.disk_keys()
            evicted.extend(sorted(survivors - remaining))
            survivors = remaining
        # Exactly one eviction per over-budget put, in LRU order: untouched
        # key0/key2/key3 go first (write order), the touched key1 and every
        # newer entry survive.
        assert evicted == ["key0", "key2", "key3"]
        assert "key1" in survivors

    def test_overwrites_do_not_inflate_the_running_total(self, tmp_path):
        cache = ResultCache(tmp_path)
        for _ in range(5):
            cache.put("same", _stats("s"))
        manifest_total = sum(
            int(entry.get("bytes", 0)) for entry in cache._manifest.values()
        )
        assert cache._live_bytes == manifest_total


class TestMigration:
    def _seed_json(self, directory: Path, count: int = 6, touch: str | None = None) -> None:
        """A legacy per-entry directory: written as pack, then converted."""
        writer = ResultCache(directory)
        for index in range(count):
            writer.put(f"key{index}", _stats(str(index)))
        if touch is not None:
            assert writer.get(touch) is not None  # bump refs + recency
        writer.flush()
        writer.close()
        assert convert_to_legacy(directory) == count

    def test_legacy_writer_helper_matches_a_parent_written_file(self, tmp_path):
        entry = json.loads(_LEGACY_TILING_ENTRY)
        path = write_legacy_entry(
            tmp_path, _LEGACY_TILING_KEY, entry["kind"], entry["payload"], entry["workload"]
        )
        assert path.read_text(encoding="utf-8") == _LEGACY_TILING_ENTRY

    def test_parent_written_entry_migrates_and_is_served_warm(self, tmp_path):
        (tmp_path / f"{_LEGACY_TILING_KEY}.json").write_text(
            _LEGACY_TILING_ENTRY, encoding="utf-8"
        )
        assert migrate_json_dir(tmp_path)[0] == 1
        plan = ResultCache(tmp_path).get(_LEGACY_TILING_KEY)
        assert isinstance(plan, TilingPlan)
        assert plan.to_dict() == json.loads(_LEGACY_TILING_ENTRY)["payload"]
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as session:
            warm = session.run(workload)
        assert session.stats.tilings.disk_hits == 1
        with EvaluationSession() as memory:
            assert network_result_to_dict(memory.run(workload)) == network_result_to_dict(warm)

    def test_migrate_converts_in_place_and_preserves_entries(self, tmp_path):
        self._seed_json(tmp_path)
        entries, size = migrate_json_dir(tmp_path)
        assert entries == 6 and size > 0
        assert not [
            p for p in tmp_path.glob("*.json") if p.name != "manifest.json"
        ]
        reader = ResultCache(tmp_path)
        for index in range(6):
            assert reader.get(f"key{index}") == _stats(str(index))

    def test_migrate_preserves_manifest_recency_and_refs(self, tmp_path):
        self._seed_json(tmp_path, touch="key2")
        before = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert before["entries"]["key2"]["refs"] == 1
        migrate_json_dir(tmp_path)
        after = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert set(after["entries"]) == set(before["entries"])
        for key, entry in before["entries"].items():
            assert after["entries"][key]["seq"] == entry["seq"]
            assert after["entries"][key]["refs"] == entry.get("refs", 0)

    def test_migrate_is_idempotent(self, tmp_path):
        self._seed_json(tmp_path)
        assert migrate_json_dir(tmp_path)[0] == 6
        assert migrate_json_dir(tmp_path)[0] == 0

    def test_migrate_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            migrate_json_dir(tmp_path / "nope")

    def test_cache_migrate_cli(self, tmp_path, capsys):
        self._seed_json(tmp_path)
        assert cache_main(["migrate", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 6 entries" in out
        assert "format: segmented pack" in out
        assert cache_main(["migrate", "--cache-dir", str(tmp_path)]) == 0
        assert "nothing to migrate" in capsys.readouterr().out

    def test_cache_info_reports_the_format_line(self, tmp_path):
        self._seed_json(tmp_path / "json")
        info = format_cache_info(str(tmp_path / "json"))
        assert (
            "format: segmented pack (0 segments); 6 legacy json entries not served "
            "(convert with: cache migrate)"
        ) in info
        pack = ResultCache(tmp_path / "pack")
        pack.put("alpha", _stats("a"))
        pack.flush()
        info = format_cache_info(str(tmp_path / "pack"))
        assert "format: segmented pack (1 segment)\n" in info


class TestCrossFormatByteIdentity:
    def test_memory_pack_and_migrated_runs_are_byte_identical(self, tmp_path):
        # One chain: in memory, pack cold, pack warm, then the pack
        # directory converted to legacy files, migrated and run warm.
        # Results match throughout; both warm runs hit every stage from
        # disk with identical accounting.
        workload = Workload.bitfusion("LeNet-5", batch_size=2)

        def run(cache: ResultCache):
            with EvaluationSession(cache=cache) as session:
                result = session.run(workload)
                stats = (
                    session.stats.programs.hits,
                    session.stats.programs.disk_hits,
                    session.stats.programs.misses,
                    session.stats.blocks.hits,
                    session.stats.blocks.disk_hits,
                    session.stats.blocks.misses,
                    session.stats.disk_hits,
                    session.stats.unique_executions,
                )
            return network_result_to_dict(result), stats

        memory, _ = run(ResultCache())
        cold, cold_stats = run(ResultCache(tmp_path))
        warm = run(ResultCache(tmp_path))
        assert cold == memory
        assert cold_stats[-1] == 1
        assert warm[0] == memory
        assert warm[1][-1] == 0 and warm[1][2] == 0 and warm[1][5] == 0
        assert convert_to_legacy(tmp_path) > 0
        migrate_json_dir(tmp_path)
        assert run(ResultCache(tmp_path)) == warm

    def test_discarded_pack_block_record_is_resimulated_and_rewritten(self, tmp_path):
        # Drop one block's layer record; the rerun simulates exactly that
        # block again, byte-identical, and stores it back.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache=ResultCache(tmp_path)) as first:
            fresh = first.run(workload)
        program = compile_program(workload)
        dropped = layer_cache_key(program[0], workload.config)
        store = SegmentedStore(tmp_path)
        assert store.kind(dropped) == "layer"
        store.discard(dropped)
        store.compact(aggressive=True)
        store.flush()
        store.close()
        (tmp_path / "manifest.json").unlink()  # force rebuild from the store
        with EvaluationSession(cache=ResultCache(tmp_path)) as second:
            restored = second.run(workload)
        assert second.stats.unique_executions == 1
        assert second.stats.blocks.misses == 1
        assert second.stats.blocks.hits == len(program) - 1
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)
        assert dropped in ResultCache(tmp_path).disk_keys()


_WRITER_SCRIPT = """
import sys
from repro.session import ResultCache
from repro.session.cache import ProgramStats

directory, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(directory)
with cache.batch():
    for index in range(count):
        cache.put(
            f"{prefix}-{index}",
            ProgramStats(
                network_name=f"{prefix}-{index}",
                block_instruction_counts=(index,),
                total_instructions=index,
                binary_bytes=index,
            ),
        )
cache.flush()
print("done")
"""


class TestConcurrentWriters:
    def test_two_processes_append_concurrently_without_torn_records(self, tmp_path):
        # Mirrors the checkpoint journal's concurrency test: two writer
        # processes group-commit into a shared store simultaneously; a
        # fresh reader sees the exact union, every record intact.
        count = 200
        env = {**os.environ, "PYTHONPATH": _SRC}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), prefix, str(count)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for prefix in ("alpha", "beta")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out
        reader = ResultCache(tmp_path)
        expected = {f"{p}-{i}" for p in ("alpha", "beta") for i in range(count)}
        assert reader.disk_keys() == expected
        # Every single record must decode intact — a torn interleaved write
        # would surface here as a None or a mismatched payload.
        for key in sorted(expected):
            value = reader.get(key)
            assert value is not None and value.network_name == key
        store = SegmentedStore(tmp_path)
        assert len(store) == 2 * count
        assert store.segment_count == 2  # one segment per writer process
