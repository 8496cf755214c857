"""Result types of the Korch engine: per-partition and model-level.

These used to live in :mod:`repro.pipeline`; they moved here with the staged
engine so that stages can build them without importing the compatibility
wrapper.  ``repro.pipeline`` re-exports them under their old names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backends import TuningTimeReport
from ..cache import CacheStats
from ..fission import FissionReport
from ..gpu.profiler import ProfilerStats
from ..gpu.specs import GpuSpec
from ..ir.graph import Graph
from ..orchestration import OrchestrationResult
from ..partition import Partition
from ..runtime.executable import Executable, ModelExecutable
from ..transforms import GraphOptimizerReport

__all__ = ["PartitionResult", "CacheReport", "KorchResult", "STAGE_ORDER"]

#: Canonical stage order, used for stable summary/reporting keys.
STAGE_ORDER = ("fission", "graph_opt", "identify", "profile", "solve", "assemble")


@dataclass
class PartitionResult:
    """Everything produced for one partition."""

    partition: Partition
    fission_report: FissionReport
    optimizer_report: GraphOptimizerReport | None
    orchestration: OrchestrationResult
    executable: Executable
    #: Wall-clock seconds spent in each engine stage for this partition.
    timings: dict[str, float] = field(default_factory=dict)
    #: Non-fatal verification findings (``verify_level`` debug mode); ERROR
    #: findings raise during the run instead of landing here.
    diagnostics: list = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        return self.orchestration.strategy.total_latency_s

    @property
    def num_kernels(self) -> int:
        return self.orchestration.strategy.num_kernels

    @property
    def replayed(self) -> bool:
        """Whether this partition's strategy came from the model's stored plan."""
        return bool(self.orchestration.extra.get("replayed"))

    @property
    def reused(self) -> bool:
        """Whether this partition reused an equal partition's cached plan."""
        return bool(self.orchestration.extra.get("reused"))


@dataclass
class CacheReport:
    """Cache and parallelism accounting of one pipeline run."""

    #: "off" (no cache_dir), "miss", "memory-hit" or "disk-hit".
    plan_cache: str = "off"
    #: Partitions whose strategy was replayed from a stored plan.
    partitions_replayed: int = 0
    #: Partitions that reused an equal partition's plan from the partition
    #: plan cache (cold runs only; never counted as replayed).
    partitions_reused: int = 0
    #: Aggregated profiler statistics across every profiler the run used.
    profiler: ProfilerStats = field(default_factory=ProfilerStats)
    #: Store-level statistics (shared across namespaces).
    store: CacheStats | None = None
    #: Worker threads actually used for partition orchestration.
    num_workers: int = 1

    @property
    def profile_cache_hits(self) -> int:
        return self.profiler.memory_hits + self.profiler.persistent_hits

    @property
    def backend_estimate_calls(self) -> int:
        return self.profiler.backend_estimate_calls


@dataclass
class KorchResult:
    """Model-level result of the Korch pipeline."""

    graph: Graph
    spec: GpuSpec
    partitions: list[PartitionResult]
    executable: ModelExecutable
    tuning: TuningTimeReport
    cache: CacheReport = field(default_factory=CacheReport)

    @property
    def latency_s(self) -> float:
        """Predicted end-to-end latency (sum over partitions and kernels)."""
        return sum(part.latency_s for part in self.partitions)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def num_kernels(self) -> int:
        return sum(part.num_kernels for part in self.partitions)

    @property
    def num_primitives(self) -> int:
        return sum(len(part.orchestration.strategy.pg.nodes) for part in self.partitions)

    @property
    def num_candidate_kernels(self) -> int:
        return sum(part.orchestration.num_candidates for part in self.partitions)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Wall-clock seconds per engine stage, summed over partitions."""
        totals: dict[str, float] = {}
        for part in self.partitions:
            for name, seconds in part.timings.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary used by reports and benchmarks."""
        summary: dict[str, float | int | str] = {
            "model": self.graph.name,
            "gpu": self.spec.name,
            "latency_ms": self.latency_ms,
            "num_partitions": len(self.partitions),
            "num_primitives": self.num_primitives,
            "num_candidate_kernels": self.num_candidate_kernels,
            "num_kernels": self.num_kernels,
            "tuning_hours": self.tuning.total_hours,
            "plan_cache": self.cache.plan_cache,
            "partitions_replayed": self.cache.partitions_replayed,
            "partitions_reused": self.cache.partitions_reused,
            "profile_cache_hits": self.cache.profile_cache_hits,
            "backend_estimate_calls": self.cache.backend_estimate_calls,
            "num_workers": self.cache.num_workers,
        }
        stage_seconds = self.stage_seconds
        for name in STAGE_ORDER:
            summary[f"stage_{name}_s"] = round(stage_seconds.get(name, 0.0), 6)
        return summary
