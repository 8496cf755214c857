"""Configuration of the Korch engine (and of the compatibility pipeline).

``KorchConfig`` describes *what* to optimize for — GPU, partitioning limits,
identifier pruning, solver settings — plus the orthogonal execution knobs
(cache directory, worker count) that change how fast an answer is computed
but never what the answer is.  ``fingerprint()`` captures exactly the
result-determining subset, which is what plan-cache keys are built from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from ..gpu.specs import GpuSpec, get_gpu
from ..orchestration import KernelIdentifierConfig
from ..partition import PartitionConfig
from ..transforms import GraphOptimizerConfig

__all__ = ["KorchEngineConfig", "KorchConfig"]


@dataclass
class KorchEngineConfig:
    """Execution knobs of the engine runtime (scheduler, executors, stores).

    Everything here changes *how* the engine computes — never *what* it
    computes — so none of it enters :meth:`KorchConfig.fingerprint` or any
    cache key.  Results are bit-identical across every setting combination.
    """

    #: Where stage tasks run: ``"thread"`` (default; shared grow-only thread
    #: pool), ``"process"`` (GIL-bound prologue work — fission, graph
    #: optimization, candidate enumeration — runs on a process pool), or
    #: ``"serial"`` (inline, no pool; what ``num_workers=1`` used to mean).
    executor: str = "thread"
    #: Process-pool workers for ``executor="process"``; 0 = one per CPU.
    process_workers: int = 0
    #: Multiprocessing start method for the process pool.  ``"spawn"`` is the
    #: safe default with a multi-threaded parent; ``"fork"`` starts faster on
    #: POSIX when no conflicting threads hold locks.
    process_start_method: str = "spawn"
    #: Hard cap on tasks admitted to executors at once, across every batch
    #: sharing the engine-wide scheduler (concurrent ``optimize_many`` calls
    #: and service request workers included).  ``None`` derives it from the
    #: resolved worker count; the live cap only ever grows, so a small batch
    #: never throttles a concurrent larger one.
    admission_cap: int | None = None
    #: Entry cap of the profile-cache snapshot :meth:`KorchEngine.warm_up`
    #: broadcasts into process-pool workers (newest entries win), so spawned
    #: workers answer graph-optimizer pricing from the parent's cache instead
    #: of re-deriving it; 0 disables the broadcast.  Pure speed knob: a
    #: snapshot hit returns byte-for-byte what the parent would have read.
    worker_snapshot_entries: int = 4096
    #: Process-wide cap on concurrently open cache stores (see
    #: :mod:`repro.engine.registry`); the LRU store beyond it is closed.
    max_open_stores: int = 32
    #: Opt-in verification debug mode (see :mod:`repro.analysis.verify`):
    #: ``"off"`` (default) — no checks; ``"plan"`` — statically verify every
    #: assembled kernel plan; ``"full"`` — additionally verify each fission
    #: result and every applied graph rewrite.  Verification never changes
    #: results (it only observes them, raising
    #: :class:`~repro.diagnostics.DiagnosticError` on violations), which is
    #: why the knob lives here and stays out of every cache key.
    verify_level: str = "off"


@dataclass
class KorchConfig:
    """Configuration of the full pipeline."""

    gpu: str | GpuSpec = "V100"
    enable_graph_optimizer: bool = True
    enable_tensorrt_backend: bool = False
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    identifier: KernelIdentifierConfig = field(default_factory=KernelIdentifierConfig)
    graph_optimizer: GraphOptimizerConfig = field(default_factory=GraphOptimizerConfig)
    solver_method: str = "auto"
    solver_time_limit_s: float = 1000.0
    #: Relative optimality gap accepted per subgraph BLP (0 = prove optimal).
    #: The default trades <2% of modeled latency for a large solver speedup.
    solver_mip_rel_gap: float = 0.02
    #: Evaluation core of the in-repo solvers: ``"bitset"`` (default) packs
    #: the ±1 incidence structure into machine-word masks, ``"reference"``
    #: keeps the original dict-of-sets scans.  Bit-identical answers either
    #: way (asserted in tests), so the knob stays out of :meth:`fingerprint`.
    solver_core: str = "bitset"
    #: Directory of the persistent profile/plan cache; ``None`` disables
    #: persistence (profiles are still memoized per process, as before).
    cache_dir: str | Path | None = None
    #: Store whole-model plans and name-free partition plans (in addition to
    #: kernel profiles) so repeated (graph, gpu, config) runs, and partitions
    #: equal to one solved before, skip enumeration + solving.  Without
    #: ``cache_dir`` only a long-lived ``KorchEngine`` keeps them (in memory).
    enable_plan_cache: bool = True
    #: Concurrent partition-optimization workers; 1 = serial (the default),
    #: 0 = one worker per CPU.  Results are independent of the worker count.
    num_workers: int = 1
    #: Per-namespace entry cap of the persistent cache (LRU-evicted).
    cache_max_entries: int = 200_000
    #: Runtime knobs of the engine (executors, admission, snapshots, registry);
    #: excluded from :meth:`fingerprint` — see :class:`KorchEngineConfig`.
    engine: KorchEngineConfig = field(default_factory=KorchEngineConfig)

    def resolve_gpu(self) -> GpuSpec:
        return self.gpu if isinstance(self.gpu, GpuSpec) else get_gpu(self.gpu)

    def resolve_num_workers(self, num_tasks: int) -> int:
        import os

        workers = self.num_workers if self.num_workers > 0 else (os.cpu_count() or 1)
        return max(1, min(workers, num_tasks))

    def fingerprint(self) -> dict:
        """The part of the config that determines optimization *results*.

        Cache and parallelism knobs are deliberately excluded: a plan
        computed serially without a cache is byte-identical to one computed
        by 8 workers with one, so they must share cache keys.
        """
        return {
            "enable_graph_optimizer": self.enable_graph_optimizer,
            "enable_tensorrt_backend": self.enable_tensorrt_backend,
            "partition": dataclasses.asdict(self.partition),
            "identifier": dataclasses.asdict(self.identifier),
            "graph_optimizer": dataclasses.asdict(self.graph_optimizer),
            "solver_method": self.solver_method,
            "solver_time_limit_s": self.solver_time_limit_s,
            "solver_mip_rel_gap": self.solver_mip_rel_gap,
        }

    def solver_config(self):
        """The :class:`repro.solver.SolverConfig` this pipeline solves with."""
        from ..solver import SolverConfig

        return SolverConfig(core=self.solver_core)
