"""Process-pool side of the engine: the picklable partition prologue.

``ProcessExecutor`` tasks run in worker processes that share nothing with
the engine — no backends, no profiler caches, no SQLite store.  This module
is everything such a worker needs: a pure function over picklable inputs
(:class:`~repro.partition.Partition`, :class:`~repro.engine.config.KorchConfig`,
:class:`~repro.gpu.specs.GpuSpec`) that runs the GIL-bound prologue of the
staged flow — operator fission, primitive-graph optimization and candidate
enumeration — and returns a picklable :class:`PrologueResult`.

State produced in the child is routed back through the parent: the graph
optimizer prices singleton kernels through a
:class:`~repro.gpu.profiler.KernelProfiler`, and in the parent those writes
land in the shared persistent cache.  The child records them with a
:class:`_RecordingProfileCache` and the parent replays them into its own
cache (``tuned=False``, exactly like the parent-side cost-proxy profiler), so
later models still hit warm entries whichever executor produced them.

The worker has no view of the plan caches: reuse of an equal partition's
plan is decided in the parent's identify stage, after the prologue returns.

Determinism: fission, graph optimization and enumeration are pure functions
of their inputs, so a prologue computed in a worker process is bit-identical
to one computed on an engine thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ...fission import FissionEngine, FissionReport
from ...gpu.profiler import KernelProfiler, ProfilerStats
from ...gpu.specs import GpuSpec
from ...orchestration import KernelIdentifierReport
from ...orchestration.identifier import CandidateSpec, enumerate_candidate_specs
from ...partition import Partition
from ...primitives.graph import PrimitiveGraph
from ...transforms import GraphOptimizerReport, PrimitiveGraphOptimizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import KorchConfig

__all__ = [
    "PrologueResult",
    "run_partition_prologue",
    "install_profile_snapshot",
    "profile_snapshot_size",
]


@dataclass
class PrologueResult:
    """Everything the prologue produced, shippable across the process gap."""

    pg: PrimitiveGraph
    fission_report: FissionReport
    optimizer_report: GraphOptimizerReport | None
    #: Enumerated candidate specs, or ``None`` when enumeration was skipped
    #: (a stored plan makes replay likely; the parent enumerates on replay
    #: failure only).
    specs: list[CandidateSpec] | None
    report: KernelIdentifierReport | None
    #: Graph-optimizer profile-cache writes to replay in the parent:
    #: (signature, profile-or-None, tuned) triples.
    cache_writes: list[tuple] = field(default_factory=list)
    #: The child graph-opt profiler's accounting (merged into the parent's).
    profiler_stats: ProfilerStats = field(default_factory=ProfilerStats)
    #: Wall-clock seconds per stage name, recorded in the worker.
    timings: dict[str, float] = field(default_factory=dict)


class _RecordingProfileCache:
    """Duck-typed persistent profile cache that records writes for the parent.

    Reads always miss (the child has no view of the parent's cache); writes
    are captured as picklable triples.  The profiler's own in-memory memo
    still deduplicates within the partition.
    """

    def __init__(self, writes: list[tuple]) -> None:
        self._writes = writes

    def get(self, signature: tuple, key: str | None = None):
        return False, None, False

    def put(self, signature: tuple, profile, tuned: bool = True, key: str | None = None) -> None:
        self._writes.append((signature, profile, tuned))

    def for_backends(self, backends: Sequence) -> "_RecordingProfileCache":
        return self


class _SnapshotProfileCache(_RecordingProfileCache):
    """Recording cache whose reads are answered from a shipped snapshot.

    The engine broadcasts a ``{profile_key: payload}`` snapshot of its
    persistent profile cache into every worker at :meth:`warm_up`
    (:func:`install_profile_snapshot`); reads then resolve exactly like
    :meth:`repro.cache.PersistentProfileCache.get` — same content-addressed
    key, same payload decoding — so a snapshot hit returns byte-for-byte
    what the parent-side profiler would have read from the store.  Misses
    fall through to live profiling and their writes still travel back to the
    parent, which is what keeps results bit-identical with or without a
    snapshot: the snapshot only moves *where* a cached answer is read.
    """

    def __init__(self, snapshot: dict[str, dict], spec, backends: Sequence, writes: list[tuple]) -> None:
        super().__init__(writes)
        from ...cache.keys import backend_fingerprint, profile_key

        self._snapshot = snapshot
        self._spec = spec
        self._backend_names = backend_fingerprint(backends)
        self._profile_key = profile_key

    def get(self, signature: tuple, key: str | None = None):
        from ...cache.profile_cache import decode_profile

        payload = self._snapshot.get(
            key or self._profile_key(signature, self._spec, self._backend_names)
        )
        if not isinstance(payload, dict):
            return False, None, False
        ok, profile = decode_profile(payload)
        if not ok:
            return False, None, False
        return True, profile, bool(payload.get("tuned", True))

    def for_backends(self, backends: Sequence) -> "_SnapshotProfileCache":
        return _SnapshotProfileCache(self._snapshot, self._spec, backends, self._writes)


#: Per-worker-process profile snapshot, installed by the warm-up broadcast.
_WORKER_SNAPSHOT: dict[str, dict] | None = None


def install_profile_snapshot(snapshot: dict[str, dict]) -> int:
    """Warm-up broadcast target: adopt the parent's profile-cache snapshot.

    Runs once per worker process (module-level so it pickles under spawn).
    Re-broadcasts replace the previous snapshot wholesale — the parent's
    store is the source of truth and its newest export wins.
    """
    global _WORKER_SNAPSHOT
    # korch-lint: ignore[conc/global-mutation] one snapshot per worker process; pool workers are single-threaded
    _WORKER_SNAPSHOT = dict(snapshot)
    return len(_WORKER_SNAPSHOT)


def profile_snapshot_size() -> int:
    """Submit-able probe: entries in this process's installed snapshot."""
    return len(_WORKER_SNAPSHOT or {})


def run_partition_prologue(
    partition: Partition,
    config: "KorchConfig",
    spec: GpuSpec,
    enumerate_specs: bool = True,
) -> PrologueResult:
    """Fission + graph optimization (+ enumeration) for one partition."""
    import time

    timings: dict[str, float] = {}
    writes: list[tuple] = []

    verify_full = config.engine.verify_level == "full"

    started = time.perf_counter()
    pg, fission_report = FissionEngine().run(partition.graph)
    timings["fission"] = time.perf_counter() - started
    if verify_full:
        # Lazy: the verify package is debug-mode-only; default workers must
        # not import it.  DiagnosticError pickles and fails the task's future.
        from ...analysis.verify import checked_fission

        checked_fission(partition.graph, pg)

    optimizer_report = None
    profiler_stats = ProfilerStats()
    started = time.perf_counter()
    if config.enable_graph_optimizer:
        if _WORKER_SNAPSHOT:
            from ...backends import default_korch_backends

            # Same backend context as the profiler below (its default set),
            # so snapshot keys line up with what the parent's graph-opt
            # cache wrote.
            cache = _SnapshotProfileCache(
                _WORKER_SNAPSHOT, spec, default_korch_backends(), writes
            )
        else:
            cache = _RecordingProfileCache(writes)
        profiler = KernelProfiler(
            spec,
            persistent_cache=cache,
            tuning_authoritative=False,
        )
        verifier = None
        if verify_full:
            from ...analysis.verify import checked_rewrite

            verifier = checked_rewrite
        graph_optimizer = PrimitiveGraphOptimizer(
            spec, config=config.graph_optimizer, profiler=profiler, verifier=verifier
        )
        pg, optimizer_report = graph_optimizer.optimize(pg)
        profiler_stats.merge(profiler.stats)
    timings["graph_opt"] = time.perf_counter() - started

    specs: list[CandidateSpec] | None = None
    report: KernelIdentifierReport | None = None
    if enumerate_specs:
        started = time.perf_counter()
        report = KernelIdentifierReport()
        specs = enumerate_candidate_specs(pg, config.identifier, report)
        timings["identify"] = time.perf_counter() - started

    return PrologueResult(
        pg=pg,
        fission_report=fission_report,
        optimizer_report=optimizer_report,
        specs=specs,
        report=report,
        cache_writes=writes,
        profiler_stats=profiler_stats,
        timings=timings,
    )
