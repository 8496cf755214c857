"""Cache maintenance CLI: ``python -m repro.cache <stats|gc|clear>``.

Operates on one persistent cache directory (``--dir``, or the
``KORCH_CACHE_DIR`` environment variable):

``stats``
    Per-namespace entry counts, on-disk database size, and the serialized
    size of the worker profile snapshot the engine would broadcast from this
    store (``--snapshot-entries`` caps it, like the engine's
    ``worker_snapshot_entries``).  (Hit/miss counters are in-process
    accounting and are reported by the running pipeline/engine —
    ``result.cache`` and ``EngineStats`` — not here.)

``gc``
    Garbage collection.  Drops profile, model-plan and partition-plan
    entries recorded under a backend ``MODEL_VERSION`` different from the
    one currently in the code (their latency formula changed, so the keys
    can never be looked up again), then trims each namespace's
    least-recently-used tail to ``--keep`` entries.

``clear``
    Drop every entry (or one ``--namespace``).

``export``
    Write the store to a portable snapshot file (``--out``), the shared
    cache tier's exchange format (:mod:`repro.cache.snapshot`).

``merge``
    Fold one or more snapshot files (``--snapshot``, repeatable) into the
    store, creating it if absent.  Existing local entries win; merging the
    same snapshot twice is a no-op, so fleets can republish freely.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ..backends import FrameworkEagerBackend, default_korch_backends
from .plan_cache import PARTITION_NAMESPACE
from .profile_cache import export_snapshot, snapshot_nbytes
from .snapshot import SnapshotError, dump_snapshot, merge_snapshot
from .store import DEFAULT_DB_NAME, CacheStore

__all__ = ["main", "current_backend_versions", "stale_keys"]

#: Namespaces whose payloads record the backend set they were computed
#: under ("backends": [...]), making them eligible for staleness GC.
_VERSIONED_NAMESPACES = ("kernel-profiles", "orchestration-plans", PARTITION_NAMESPACE)


def current_backend_versions() -> dict[str, int]:
    """``{backend class name: MODEL_VERSION}`` for every known backend."""
    backends = [*default_korch_backends(enable_tensorrt=True), FrameworkEagerBackend()]
    return {type(b).__name__: getattr(b, "MODEL_VERSION", 1) for b in backends}


def stale_keys(
    store: CacheStore, namespace: str, versions: dict[str, int] | None = None
) -> list[str]:
    """Keys of one namespace's entries written under an outdated backend.

    Profile, model-plan and partition-plan payloads record the backend set
    that produced them.  An entry is stale when any recorded backend names a
    class we know under a *different* ``MODEL_VERSION`` — its result was
    computed by a latency formula that no longer exists, and its
    content-addressed key (which embeds the old version) can never be looked
    up again.  Entries recording unknown classes, or none at all (written
    before payloads carried the backend list), are left alone.
    """
    versions = versions if versions is not None else current_backend_versions()
    stale: list[str] = []
    for key, payload in store.items(namespace):
        try:
            recorded = json.loads(payload).get("backends") or []
        except (json.JSONDecodeError, AttributeError):
            stale.append(key)  # undecodable payloads are dead weight too
            continue
        for name in recorded:
            parts = str(name).split(":")
            if len(parts) != 3 or not parts[2].startswith("v"):
                continue
            current = versions.get(parts[0])
            if current is not None and parts[2] != f"v{current}":
                stale.append(key)
                break
    return stale


def _open(directory: str) -> CacheStore:
    path = Path(directory)
    database = path if path.suffix == ".sqlite" else path / DEFAULT_DB_NAME
    if not database.exists():
        raise SystemExit(f"no cache database at {database}")
    return CacheStore(path)


def _db_size_bytes(store: CacheStore) -> int:
    return store.path.stat().st_size if store.path is not None and store.path.exists() else 0


def cmd_stats(args: argparse.Namespace) -> int:
    store = _open(args.dir)
    rows = {ns: store.count(ns) for ns in store.namespaces()}
    print(f"cache: {store.path}")
    print(f"size:  {_db_size_bytes(store) / 1e6:.2f} MB, {store.count()} entries")
    for namespace, count in rows.items():
        print(f"  {namespace}: {count}")
    # The worker snapshot the engine would broadcast from this store at
    # warm_up (capped like the default KorchEngineConfig), so the per-worker
    # shipping cost of the process executor is observable offline.
    snapshot = export_snapshot(store, args.snapshot_entries)
    print(
        f"worker snapshot: {len(snapshot)} entries, "
        f"{snapshot_nbytes(snapshot) / 1e6:.2f} MB serialized "
        f"(cap {args.snapshot_entries})"
    )
    store.close()
    return 0


def cmd_gc(args: argparse.Namespace) -> int:
    store = _open(args.dir)
    versions = current_backend_versions()
    dropped = 0
    for namespace in _VERSIONED_NAMESPACES:
        for key in stale_keys(store, namespace, versions):
            store.delete(namespace, key)
            dropped += 1
    trimmed = {ns: store.trim(ns, args.keep) for ns in store.namespaces()}
    print(f"gc: dropped {dropped} stale profile/plan entries")
    for namespace, dropped in trimmed.items():
        if dropped:
            print(f"  {namespace}: trimmed {dropped} LRU entries (keep={args.keep})")
    print(f"remaining: {store.count()} entries, {_db_size_bytes(store) / 1e6:.2f} MB")
    store.close()
    return 0


def cmd_clear(args: argparse.Namespace) -> int:
    store = _open(args.dir)
    before = store.count(args.namespace)
    store.clear(args.namespace)
    where = args.namespace or "all namespaces"
    print(f"cleared {before} entries from {where}")
    store.close()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    store = _open(args.dir)
    count = dump_snapshot(store, args.out, namespace=args.namespace)
    where = args.namespace or "all namespaces"
    print(f"exported {count} entries ({where}) to {args.out}")
    store.close()
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    # Unlike the other commands, merge may *create* the store: converging a
    # fresh host onto the fleet's published snapshot is the point.
    store = CacheStore(args.dir)
    added = 0
    try:
        for snapshot in args.snapshot:
            added += merge_snapshot(store, snapshot)
    except SnapshotError as exc:
        store.close()
        raise SystemExit(str(exc)) from exc
    print(f"merged {added} new entries; store now holds {store.count()}")
    store.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Maintain a persistent Korch profile/plan cache.",
    )
    parser.add_argument(
        "--dir",
        default=os.environ.get("KORCH_CACHE_DIR"),
        help="cache directory (default: $KORCH_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stats = sub.add_parser(
        "stats", help="per-namespace entry counts, database and snapshot size"
    )
    stats.add_argument(
        "--snapshot-entries",
        type=int,
        default=4096,
        help="worker-snapshot entry cap to size (default matches the engine: 4096)",
    )
    gc = sub.add_parser("gc", help="drop stale MODEL_VERSION entries and the LRU tail")
    gc.add_argument(
        "--keep",
        type=int,
        default=200_000,
        help="entries to keep per namespace after trimming (default: 200000)",
    )
    clear = sub.add_parser("clear", help="drop entries")
    clear.add_argument("--namespace", default=None, help="only this namespace")
    export = sub.add_parser("export", help="write the store to a snapshot file")
    export.add_argument("--out", required=True, help="snapshot file to write")
    export.add_argument("--namespace", default=None, help="only this namespace")
    merge = sub.add_parser("merge", help="fold snapshot files into the store")
    merge.add_argument(
        "--snapshot",
        action="append",
        required=True,
        help="snapshot file to merge (repeatable)",
    )

    args = parser.parse_args(argv)
    if args.dir is None:
        parser.error("--dir is required (or set KORCH_CACHE_DIR)")
    handler = {
        "stats": cmd_stats,
        "gc": cmd_gc,
        "clear": cmd_clear,
        "export": cmd_export,
        "merge": cmd_merge,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
