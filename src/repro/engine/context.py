"""Per-partition stage context.

A :class:`StageContext` is the single mutable value threaded through the
engine's stages (``run(ctx) -> ctx``).  It starts with the partition and the
collaborators the engine built for it (fission engine, orchestration
optimizer, optional graph optimizer, optional stored plan) and accumulates
every intermediate artifact — primitive graph, candidate specs, profiled
candidates, orchestration, executable — plus per-stage wall-clock timings.

Contexts are **picklable**: pickling keeps the data (partition, config,
spec, plan, artifacts) and drops the process-bound collaborators (fission
engine, optimizers, plan cache, tuning tally), which a receiving process
rebuilds for itself.
That is what lets the scheduler ship stage work to process-pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..fission import FissionEngine, FissionReport
from ..gpu.specs import GpuSpec
from ..orchestration import (
    CandidateKernel,
    CandidateSpec,
    KernelIdentifierReport,
    KernelOrchestrationOptimizer,
    OrchestrationResult,
)
from ..partition import Partition
from ..primitives.graph import PrimitiveGraph
from ..runtime.executable import Executable
from ..transforms import GraphOptimizerReport, PrimitiveGraphOptimizer
from .config import KorchConfig
from .result import PartitionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends import TuningTally
    from ..cache import PartitionKey, PartitionPlan, PlanCache

__all__ = ["StageContext"]


@dataclass
class StageContext:
    """State carried through the stage pipeline for one partition."""

    # --- inputs (set by the engine before the first stage runs)
    partition: Partition
    config: KorchConfig
    spec: GpuSpec
    fission: FissionEngine | None = None
    optimizer: KernelOrchestrationOptimizer | None = None
    graph_optimizer: PrimitiveGraphOptimizer | None = None
    #: Stored plan to replay (skips identify/profile/solve when valid).
    plan: "PartitionPlan | None" = None
    #: Engine-owned plan cache whose partition plans equal partitions reuse;
    #: ``None`` disables reuse.
    plan_cache: "PlanCache | None" = None
    #: This partition's view of the model's tuning-time accounting, whose
    #: counts travel with saved partition plans.
    tuning: "TuningTally | None" = None

    # --- artifacts (filled in by successive stages)
    pg: PrimitiveGraph | None = None
    fission_report: FissionReport | None = None
    optimizer_report: GraphOptimizerReport | None = None
    candidate_specs: Sequence[CandidateSpec] | None = None
    identifier_report: KernelIdentifierReport | None = None
    candidates: list[CandidateKernel] | None = None
    orchestration: OrchestrationResult | None = None
    executable: Executable | None = None
    result: PartitionResult | None = None
    #: Execution report of the assembled executable, when an
    #: :class:`~repro.engine.stages.ExecuteStage` ran (plain data).
    execution: "object | None" = None

    #: Name-free key of ``ctx.pg`` in the partition plan cache, set by the
    #: identify stage when the cache is on (plain data, picklable).
    partition_key: "PartitionKey | None" = None
    #: Profiler accounting carried back from a process-pool prologue worker
    #: (merged into the partition's stats by the finish task).
    worker_profiler_stats: "object | None" = None

    #: Wall-clock seconds per stage name, recorded by ``run_stages``.
    timings: dict[str, float] = field(default_factory=dict)

    #: Verification findings accumulated by the ``verify_level`` debug mode
    #: (:mod:`repro.analysis.verify`); plain data, picklable.
    diagnostics: list = field(default_factory=list)

    #: Fields that never cross a process boundary: collaborators bound to the
    #: engine's process (caches, locks, SQLite handles ride inside them).
    _UNPICKLABLE = (
        "fission",
        "optimizer",
        "graph_optimizer",
        "plan_cache",
        "tuning",
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._UNPICKLABLE:
            state[name] = None
        return state

    @property
    def replayed(self) -> bool:
        return bool(self.orchestration is not None and self.orchestration.extra.get("replayed"))

    @property
    def reused(self) -> bool:
        """Whether the partition plan cache answered this partition."""
        return bool(self.orchestration is not None and self.orchestration.extra.get("reused"))
