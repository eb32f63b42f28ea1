"""Tests for the segmented pack-file artifact store and its cache wiring.

Covers the store format itself (record codec, torn-tail tolerance, index
sidecars, compaction), the :class:`~repro.session.cache.ResultCache`
integration (layout detection, group commits, ``get_many``/``prefetch``
source accounting, eviction durability), migration from the legacy
JSON-per-entry layout, cross-format byte-identity of whole session runs,
and the concurrent-writer model (per-process segments, readers merge at
open) — including a real multi-process stress test mirroring the
checkpoint journal's torn-line test.
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
        assert cache.layout == "pack"
        entry_files = {p.name for p in tmp_path.glob("*.json")}
        assert entry_files == {"manifest.json"}  # no per-entry files
        assert list(tmp_path.glob("pack-*.seg"))

    def test_json_directory_is_detected_and_served_unchanged(self, tmp_path):
        writer = ResultCache(tmp_path, layout="json")
        writer.put("alpha", _stats("a"))
        writer.flush()
        reader = ResultCache(tmp_path)
        assert reader.layout == "json"
        assert reader.get("alpha") == _stats("a")

    def test_env_override_forces_layout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_LAYOUT", "json")
        cache = ResultCache(tmp_path)
        assert cache.layout == "json"
        cache.put("alpha", _stats("a"))
        cache.flush()
        assert (tmp_path / "alpha.json").exists()

    def test_unknown_layout_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, layout="sqlite")

    def test_pack_cache_reads_stray_json_entries(self, tmp_path):
        # Mixed directory (mid-migration, or a json-layout writer sharing
        # the dir): the pack cache serves legacy entries as a fallback.
        legacy = ResultCache(tmp_path, layout="json")
        legacy.put("old", _stats("o"))
        legacy.flush()
        mixed = ResultCache(tmp_path, layout="pack")
        mixed.put("new", _stats("n"))
        assert mixed.get("old") == _stats("o")
        assert mixed.get("new") == _stats("n")
        assert "old" in mixed and "new" in mixed

    def test_put_without_flush_is_visible_to_a_fresh_reader(self, tmp_path):
        # Durability parity with the json layout: a put is on disk before
        # any flush (the segment append is immediate; only the advisory
        # sidecar/manifest bookkeeping batches).
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

    def test_get_many_and_prefetch_report_disk_sources_exactly_once(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("k1", _stats("1"))
        writer.put("k2", _stats("2"))
        writer.flush()
        reader = ResultCache(tmp_path)
        missing = reader.prefetch(["k1", "k2", "ghost"])
        assert missing == {"ghost"}
        # First access of a prefetched key still counts as a disk hit —
        # byte-identical statistics with the one-file-per-entry oracle.
        value, source = reader.get_with_source("k1")
        assert value == _stats("1") and source == "disk"
        value, source = reader.get_with_source("k1")
        assert source == "memory"
        assert reader.get_many(["k2", "ghost"]) == {"k2": _stats("2")}

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
    def test_json_rebuild_reads_kind_from_a_bounded_prefix(self, tmp_path):
        # A valid prefix followed by a huge garbage tail: the old rebuild
        # (full read + json.loads) classified this entry "unknown"; the
        # bounded-prefix read recovers the kind without touching the tail.
        cache = ResultCache(tmp_path, layout="json")
        cache.put("normal", _stats("n"))
        cache.flush()
        big = (tmp_path / "hand-written.json")
        big.write_text(
            '{"kind": "program_stats", "payload": ' + "9" * (4 << 20) + "}",
            encoding="utf-8",
        )
        (tmp_path / "manifest.json").unlink()
        rebuilt = ResultCache(tmp_path, layout="json")
        summary = rebuilt.entry_summary()
        assert summary["program_stats"]["entries"] == 2
        assert "unknown" not in summary

    def test_rebuild_time_does_not_scale_with_payload_bytes(self, tmp_path):
        import time

        small_dir, big_dir = tmp_path / "small", tmp_path / "big"
        for directory, payload_digits in ((small_dir, 10), (big_dir, 8 << 20)):
            directory.mkdir()
            for index in range(8):
                (directory / f"entry{index}.json").write_text(
                    '{"kind": "program_stats", "payload": '
                    + "7" * payload_digits
                    + "}",
                    encoding="utf-8",
                )

        def rebuild_seconds(directory: Path) -> float:
            started = time.perf_counter()
            ResultCache(directory, layout="json")
            return time.perf_counter() - started

        small = rebuild_seconds(small_dir)
        big = rebuild_seconds(big_dir)
        # ~64 MiB of payloads vs ~100 bytes: a full-read rebuild is tens of
        # times slower; a bounded-prefix rebuild is within noise.  The 25x
        # margin keeps the test robust on slow CI filesystems while still
        # failing hard if whole payloads are ever read again.
        assert big < small * 25 + 0.05

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
        # be unchanged — in both layouts.
        for layout in ("json", "pack"):
            directory = tmp_path / layout
            writer = ResultCache(directory, layout=layout)
            for index in range(4):
                writer.put(f"key{index}", _stats(str(index)))
            writer.flush()
            writer.close()
            manifest = json.loads(
                (directory / "manifest.json").read_text(encoding="utf-8")
            )
            entry_bytes = manifest["entries"]["key0"]["bytes"]

            cache = ResultCache(directory, layout=layout, max_bytes=4 * entry_bytes)
            assert cache.get("key1") is not None  # touch: key1 hottest
            evicted: list[str] = []
            survivors = {f"key{i}" for i in range(4)}
            # Same key/tag widths as the seeds, so every entry is the same
            # size and each over-budget put evicts exactly one victim.
            for extra in range(4, 7):
                cache.put(f"key{extra}", _stats(str(extra)))
                survivors.add(f"key{extra}")
                remaining = cache.disk_keys()
                evicted.extend(sorted(survivors - remaining))
                survivors = remaining
            # Exactly one eviction per over-budget put, in LRU order:
            # untouched key0/key2/key3 go first (write order), the touched
            # key1 and every newer entry survive.
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
    def _seed_json(self, directory: Path, count: int = 6) -> None:
        writer = ResultCache(directory, layout="json")
        for index in range(count):
            writer.put(f"key{index}", _stats(str(index)))
        writer.flush()

    def test_migrate_converts_in_place_and_preserves_entries(self, tmp_path):
        self._seed_json(tmp_path)
        entries, size = migrate_json_dir(tmp_path)
        assert entries == 6 and size > 0
        assert not [
            p for p in tmp_path.glob("*.json") if p.name != "manifest.json"
        ]
        reader = ResultCache(tmp_path)
        assert reader.layout == "pack"
        for index in range(6):
            assert reader.get(f"key{index}") == _stats(str(index))

    def test_migrate_preserves_manifest_recency_and_refs(self, tmp_path):
        self._seed_json(tmp_path)
        reader = ResultCache(tmp_path)
        assert reader.get("key2") is not None  # bump refs + recency
        reader.flush()
        before = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
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
        assert "format: json files" in info
        pack = ResultCache(tmp_path / "pack")
        pack.put("alpha", _stats("a"))
        pack.flush()
        info = format_cache_info(str(tmp_path / "pack"))
        assert "format: segmented pack (1 segment)" in info


class TestCrossFormatByteIdentity:
    def test_warm_runs_match_across_layouts_and_migration(self, tmp_path):
        # The same workload evaluated against a json-layout cache, a
        # pack-layout cache, a pack cache reading the json dir as fallback,
        # and a migrated dir must produce byte-identical results with
        # byte-identical hit accounting.
        workload = Workload.bitfusion("LeNet-5", batch_size=2)
        json_dir = tmp_path / "json"
        pack_dir = tmp_path / "pack"
        with EvaluationSession(cache=ResultCache(json_dir, layout="json")) as seed:
            json_cold = seed.run(workload)
        with EvaluationSession(cache=ResultCache(pack_dir, layout="pack")) as seed:
            pack_cold = seed.run(workload)
        assert network_result_to_dict(json_cold) == network_result_to_dict(pack_cold)

        def warm_run(cache: ResultCache):
            with EvaluationSession(cache=cache) as warm:
                result = warm.run(workload)
                stats = (
                    warm.stats.programs.hits,
                    warm.stats.programs.disk_hits,
                    warm.stats.programs.misses,
                    warm.stats.blocks.hits,
                    warm.stats.blocks.disk_hits,
                    warm.stats.blocks.misses,
                    warm.stats.disk_hits,
                    warm.stats.unique_executions,
                )
            return network_result_to_dict(result), stats

        json_warm = warm_run(ResultCache(json_dir, layout="json"))
        pack_warm = warm_run(ResultCache(pack_dir, layout="pack"))
        fallback_warm = warm_run(ResultCache(json_dir, layout="pack"))
        assert json_warm == pack_warm == fallback_warm
        migrate_json_dir(json_dir)
        migrated_warm = warm_run(ResultCache(json_dir))
        assert migrated_warm == json_warm

    def test_discarded_pack_block_record_is_resimulated_and_rewritten(self, tmp_path):
        # Pack-store twin of the corrupted json entry test: drop one block's
        # layer record; the rerun simulates exactly that block again,
        # byte-identical, and stores it back.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache=ResultCache(tmp_path, layout="pack")) as first:
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
        with EvaluationSession(cache=ResultCache(tmp_path, layout="pack")) as second:
            restored = second.run(workload)
        assert second.stats.unique_executions == 1
        assert second.stats.blocks.misses == 1
        assert second.stats.blocks.hits == len(program) - 1
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)
        assert dropped in ResultCache(tmp_path, layout="pack").disk_keys()


_WRITER_SCRIPT = """
import sys
from repro.session import ResultCache
from repro.session.cache import ProgramStats

directory, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(directory, layout="pack")
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
        values = reader.get_many(sorted(expected))
        assert set(values) == expected
        for key, value in values.items():
            assert value.network_name == key
        store = SegmentedStore(tmp_path)
        assert len(store) == 2 * count
        assert store.segment_count == 2  # one segment per writer process
