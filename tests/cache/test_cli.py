"""Tests for the cache maintenance CLI (``python -m repro.cache``)."""

from __future__ import annotations

import json

import pytest

from repro.cache import CacheStore
from repro.cache.cli import current_backend_versions, main, stale_keys
from repro.pipeline import KorchConfig, KorchPipeline


def populated_cache(tmp_path):
    from repro.ir import GraphBuilder

    b = GraphBuilder("cli_model")
    x = b.input("x", (1, 2, 16, 8))
    w = b.param("w", (1, 2, 8, 16))
    b.output(b.matmul(x, w))
    KorchPipeline(KorchConfig(gpu="V100", cache_dir=tmp_path)).optimize(b.build())
    return tmp_path


class TestStaleDetection:
    def test_current_entries_are_not_stale(self, tmp_path):
        populated_cache(tmp_path)
        store = CacheStore(tmp_path)
        assert store.count("kernel-profiles") > 0
        assert stale_keys(store, "kernel-profiles") == []
        store.close()

    def test_outdated_model_version_is_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put_json(
            "kernel-profiles",
            "old-entry",
            {"v": 1, "supported": False, "backends": ["CublasBackend:cuBLAS:v0"]},
        )
        store.put_json(
            "kernel-profiles",
            "unknown-backend",
            {"v": 1, "supported": False, "backends": ["FutureBackend:future:v9"]},
        )
        assert stale_keys(store, "kernel-profiles") == ["old-entry"]
        store.close()

    def test_undecodable_payload_is_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("kernel-profiles", "broken", "{not json")
        assert stale_keys(store, "kernel-profiles") == ["broken"]
        store.close()

    def test_versions_cover_every_default_backend(self):
        versions = current_backend_versions()
        for name in ("CublasBackend", "CudnnBackend", "TvmMetaScheduleBackend",
                     "TensorRTBackend", "FrameworkEagerBackend"):
            assert versions[name] >= 1


class TestCommands:
    def test_stats(self, tmp_path, capsys):
        populated_cache(tmp_path)
        assert main(["--dir", str(tmp_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "kernel-profiles" in out and "orchestration-plans" in out
        assert "worker snapshot:" in out and "MB serialized" in out

    def test_stats_snapshot_cap(self, tmp_path, capsys):
        store = CacheStore(tmp_path)
        for i in range(4):
            store.put_json("kernel-profiles", f"key{i}", {"v": 1})
        store.close()
        assert main(["--dir", str(tmp_path), "stats", "--snapshot-entries", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker snapshot: 2 entries" in out and "(cap 2)" in out

    def test_gc_drops_stale_and_trims(self, tmp_path, capsys):
        populated_cache(tmp_path)
        store = CacheStore(tmp_path)
        store.put_json(
            "kernel-profiles",
            "old-entry",
            {"v": 1, "supported": False, "backends": ["CublasBackend:cuBLAS:v0"]},
        )
        total = store.count("kernel-profiles")
        store.close()

        assert main(["--dir", str(tmp_path), "gc", "--keep", "5"]) == 0
        out = capsys.readouterr().out
        assert "dropped 1 stale profile/plan entries" in out

        reopened = CacheStore(tmp_path)
        assert reopened.get("kernel-profiles", "old-entry") is None
        assert reopened.count("kernel-profiles") == min(5, total - 1)
        reopened.close()

    def test_gc_drops_outdated_partition_plans(self, tmp_path, capsys):
        populated_cache(tmp_path)
        store = CacheStore(tmp_path)
        current = store.items("partition-plans")
        assert current, "a cold run stores its partition plans"
        key, raw = current[0]
        assert stale_keys(store, "partition-plans") == []
        outdated = json.loads(raw)
        backend_class, display_name, _ = outdated["backends"][0].split(":")
        outdated["backends"][0] = f"{backend_class}:{display_name}:v0"  # old MODEL_VERSION
        store.put_json("partition-plans", "outdated-plan", outdated)
        assert stale_keys(store, "partition-plans") == ["outdated-plan"]
        store.close()

        assert main(["--dir", str(tmp_path), "gc"]) == 0
        assert "dropped 1 stale profile/plan entries" in capsys.readouterr().out
        reopened = CacheStore(tmp_path)
        assert reopened.get("partition-plans", "outdated-plan") is None
        assert reopened.get("partition-plans", key) is not None
        reopened.close()

    def test_gc_keeps_everything_under_cap(self, tmp_path):
        populated_cache(tmp_path)
        store = CacheStore(tmp_path)
        before = store.count()
        store.close()
        assert main(["--dir", str(tmp_path), "gc"]) == 0
        after = CacheStore(tmp_path)
        assert after.count() == before
        after.close()

    def test_clear_namespace_and_all(self, tmp_path, capsys):
        populated_cache(tmp_path)
        assert main(["--dir", str(tmp_path), "clear", "--namespace", "orchestration-plans"]) == 0
        store = CacheStore(tmp_path)
        assert store.count("orchestration-plans") == 0
        assert store.count("kernel-profiles") > 0
        store.close()
        assert main(["--dir", str(tmp_path), "clear"]) == 0
        emptied = CacheStore(tmp_path)
        assert emptied.count() == 0
        emptied.close()

    def test_missing_database_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--dir", str(tmp_path / "nope"), "stats"])

    def test_dir_required(self, monkeypatch):
        monkeypatch.delenv("KORCH_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_gc_drops_stale_plans_too(self, tmp_path, capsys):
        populated_cache(tmp_path)
        store = CacheStore(tmp_path)
        # A plan left behind by a backend recalibration: its key (which
        # embeds the old MODEL_VERSION) can never be looked up again.
        store.put_json(
            "orchestration-plans",
            "old-plan",
            {"v": 1, "partitions": [], "backends": ["CudnnBackend:cuDNN:v0"]},
        )
        current_plans = store.count("orchestration-plans")
        store.close()

        assert main(["--dir", str(tmp_path), "gc"]) == 0
        out = capsys.readouterr().out
        assert "dropped 1 stale profile/plan entries" in out
        reopened = CacheStore(tmp_path)
        assert reopened.get("orchestration-plans", "old-plan") is None
        assert reopened.count("orchestration-plans") == current_plans - 1
        reopened.close()

    def test_nonexistent_sqlite_path_errors_instead_of_creating(self, tmp_path):
        target = tmp_path / "typo" / "korch_cache.sqlite"
        with pytest.raises(SystemExit):
            main(["--dir", str(target), "stats"])
        assert not target.exists()
