"""Persistent, content-addressed caching for the Korch pipeline.

The paper amortizes its dominant cost — profiling candidate kernels —
through a TVM tuning database (§6.5).  This package generalizes that idea
into a durable cache layer for the whole pipeline:

* :mod:`~repro.cache.store` — a versioned, corruption-tolerant, LRU-capped
  SQLite key-value store shared by every cache namespace.
* :mod:`~repro.cache.keys` — content-addressed keys: SHA-256 over canonical
  JSON of (kernel signature | operator graph) + GPU spec + backend set.
* :mod:`~repro.cache.profile_cache` — per-kernel latency profiles, including
  negative ("no backend supports this") entries.
* :mod:`~repro.cache.plan_cache` — whole-model orchestration plans that let
  a warm run skip candidate enumeration and the BLP solve entirely, and
  name-free partition plans that let a repeated partition skip them too.
"""

from .keys import (
    backend_fingerprint,
    canonicalize,
    gpu_fingerprint,
    plan_key,
    profile_key,
    stable_hash,
)
from .plan_cache import (
    KernelPlan,
    ModelPlan,
    PartitionKey,
    PartitionPlan,
    PlanCache,
    partition_plan_key,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    dump_snapshot,
    load_snapshot,
    merge_snapshot,
)
from .profile_cache import (
    PersistentProfileCache,
    decode_profile,
    encode_profile,
    export_snapshot,
    snapshot_nbytes,
)
from .store import DEFAULT_DB_NAME, SCHEMA_VERSION, CacheStats, CacheStore

__all__ = [
    "CacheStats",
    "CacheStore",
    "DEFAULT_DB_NAME",
    "SCHEMA_VERSION",
    "PersistentProfileCache",
    "encode_profile",
    "decode_profile",
    "export_snapshot",
    "snapshot_nbytes",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "dump_snapshot",
    "load_snapshot",
    "merge_snapshot",
    "PlanCache",
    "ModelPlan",
    "PartitionPlan",
    "PartitionKey",
    "partition_plan_key",
    "KernelPlan",
    "canonicalize",
    "stable_hash",
    "backend_fingerprint",
    "gpu_fingerprint",
    "profile_key",
    "plan_key",
]
