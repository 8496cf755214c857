"""The long-lived Korch engine: many models, one set of shared state.

``KorchPipeline`` builds backends, profiler caches and a worker pool from
scratch for every model — fine for reproducing figures, wrong for a serving
system that amortizes tuning across requests.  :class:`KorchEngine` owns that
state for its whole lifetime:

* the **backend set** and GPU spec,
* the **persistent cache store** (or a private in-memory store when no
  ``cache_dir`` is configured, so profiles still flow between models),
* the **profile caches** feeding every partition's :class:`KernelProfiler`,
* **one worker pool**, onto which ``optimize_many`` interleaves partitions
  from different models.

``optimize(graph)`` runs one model through the staged flow
(:mod:`repro.engine.stages`); ``optimize_many([graphs], max_concurrency=...)``
schedules the union of all models' partitions onto the shared executors.
Results are bit-identical to serial per-model runs — profiles are
deterministic and the solver sees identical inputs — while structurally
identical kernels appearing in *different* models are profiled once,
surfaced as ``EngineStats.cross_model_profile_reuses``.

Concurrency is delegated to the pluggable scheduler/executor core
(:mod:`repro.engine.scheduler`).  Each partition becomes a three-task chain
— ``prep`` (fission + graph optimization), ``identify`` (plan replay,
partition-plan reuse or candidate enumeration), ``finish`` (profile +
solve + assemble) —
and the scheduler dispatches those chains with an admission cap and
per-model fairness.  Later stages carry lower priority values, so in-flight
partitions drain before new ones are admitted.  With
``KorchEngineConfig(executor="process")`` the GIL-bound prologue runs on a
process pool (:mod:`repro.engine.scheduler.worker`), which is what finally
parallelizes pure-Python candidate enumeration across cores.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

from ..backends import (
    KernelBackend,
    TuningTally,
    TuningTimeModel,
    TuningTimeReport,
    default_korch_backends,
)
from ..cache import (
    CacheStore,
    ModelPlan,
    PartitionPlan,
    PersistentProfileCache,
    PlanCache,
    backend_fingerprint,
    export_snapshot,
    plan_key,
)
from ..fission import FissionEngine
from ..gpu.profiler import KernelProfiler, ProfilerStats
from ..ir.graph import Graph
from ..ir.serialization import graph_to_dict
from ..metrics import MetricRegistry
from ..orchestration import KernelOrchestrationOptimizer
from ..partition import GraphPartitioner, Partition
from ..runtime.executable import ModelExecutable
from ..transforms import PrimitiveGraphOptimizer
from .config import KorchConfig
from .context import StageContext
from .registry import shared_store
from .result import CacheReport, KorchResult, PartitionResult
from .scheduler import (
    Dep,
    Executor,
    ProcessExecutor,
    Scheduler,
    SerialExecutor,
    Task,
    ThreadExecutor,
    run_partition_prologue,
)
from .scheduler.worker import PrologueResult, install_profile_snapshot
from .stages import (
    DEFAULT_STAGES,
    FissionStage,
    GraphOptStage,
    IdentifyStage,
    Stage,
    run_stages,
)

__all__ = ["EngineStats", "KorchEngine"]

#: Upper bound on reuse-tracking bookkeeping; correctness is unaffected when
#: it trips, only the reuse counter stops attributing very old entries.
_MAX_TRACKED_OWNERS = 1_000_000


@dataclass
class EngineStats:
    """Lifetime statistics of one :class:`KorchEngine`."""

    #: Models served (including plan-cache memory hits).
    models_optimized: int = 0
    #: Partition optimization tasks executed (not answered from memory).
    partitions_optimized: int = 0
    #: Partitions replayed from a stored plan instead of re-solved.
    partitions_replayed: int = 0
    #: ``optimize`` calls answered entirely from the in-process result tier.
    plan_memory_hits: int = 0
    #: Models whose every partition replayed from the durable plan store.
    plan_disk_hits: int = 0
    #: Profile-cache hits on entries first written while optimizing a
    #: *different* model on this engine — the cross-model amortization.
    cross_model_profile_reuses: int = 0
    #: Partitions answered from the partition plan cache (an equal
    #: partition's plan, reused) instead of enumerated, profiled and solved.
    identify_memo_hits: int = 0
    #: Merged profiler statistics across every model the engine optimized.
    profiler: ProfilerStats = field(default_factory=ProfilerStats)

    def as_dict(self) -> dict[str, int]:
        return {
            "models_optimized": self.models_optimized,
            "partitions_optimized": self.partitions_optimized,
            "partitions_replayed": self.partitions_replayed,
            "plan_memory_hits": self.plan_memory_hits,
            "plan_disk_hits": self.plan_disk_hits,
            "cross_model_profile_reuses": self.cross_model_profile_reuses,
            "identify_memo_hits": self.identify_memo_hits,
            **{f"profiler_{k}": v for k, v in self.profiler.as_dict().items()},
        }


def _rewrite_verifier(config: KorchConfig):
    """The per-rewrite check hook for ``verify_level="full"``, else ``None``.

    Module-level (and resolved from the config alone) so the process-pool
    prologue worker installs the identical hook from its shipped config.
    """
    if config.engine.verify_level != "full":
        return None
    from ..analysis.verify import checked_rewrite

    return checked_rewrite


class _ReuseTrackingCache:
    """Profile-cache wrapper attributing each entry to the engine run that
    first wrote it, so hits from a *different* run count as cross-model
    reuses.  Duck-types :class:`PersistentProfileCache` for the profiler."""

    def __init__(self, inner: PersistentProfileCache, engine: "KorchEngine", run_id: int) -> None:
        self._inner = inner
        self._engine = engine
        self._run_id = run_id

    def key(self, signature: tuple) -> str:
        return self._inner.key(signature)

    def get(self, signature: tuple):
        key = self._inner.key(signature)
        hit, profile, tuned = self._inner.get(signature, key=key)
        if hit:
            self._engine._note_profile_hit(key, self._run_id)
        return hit, profile, tuned

    def put(self, signature: tuple, profile, tuned: bool = True) -> None:
        key = self._inner.key(signature)
        self._engine._note_profile_write(key, self._run_id)
        self._inner.put(signature, profile, tuned=tuned, key=key)

    def for_backends(self, backends: Sequence) -> "_ReuseTrackingCache":
        return _ReuseTrackingCache(
            self._inner.for_backends(backends), self._engine, self._run_id
        )


@dataclass
class _ModelRun:
    """Book-keeping for one model inside ``optimize_many``."""

    graph: Graph
    run_id: int
    plan_cache_key: str | None = None
    stored_plan: ModelPlan | None = None
    partitions: list[Partition] = field(default_factory=list)
    #: Per-partition stored plans to replay (``None`` entries = cold).
    plans: list[PartitionPlan | None] = field(default_factory=list)
    tuning_model: TuningTimeModel = field(default_factory=TuningTimeModel)
    outcomes: list[tuple[PartitionResult, ProfilerStats]] = field(default_factory=list)
    result: KorchResult | None = None
    #: An earlier run in the same ``optimize_many`` call with the same plan
    #: key; this run copies its result instead of re-optimizing.
    duplicate_of: "_ModelRun | None" = None


class KorchEngine:
    """Long-lived, multi-model optimization engine over the staged flow.

    Use as a context manager (or call :meth:`close`) to release the worker
    pool and any privately-owned store::

        with KorchEngine(KorchConfig(gpu="A100")) as engine:
            results = engine.optimize_many([model_a, model_b], max_concurrency=4)

    ``share_profiles=False`` restores the per-model isolation of the old
    pipeline when no ``cache_dir`` is configured (used by the compatibility
    wrapper so existing behavior is preserved exactly).
    """

    #: Lifetime worker-pool size; per-call concurrency is bounded separately.
    _POOL_SIZE_CAP = 32

    def __init__(
        self,
        config: KorchConfig | None = None,
        backends: Sequence[KernelBackend] | None = None,
        share_profiles: bool = True,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.config = config or KorchConfig()
        if self.config.engine.executor not in ("serial", "thread", "process"):
            raise ValueError(
                f"unknown executor kind {self.config.engine.executor!r}; "
                "expected 'serial', 'thread' or 'process'"
            )
        self.spec = self.config.resolve_gpu()
        self.backends = list(
            backends
            if backends is not None
            else default_korch_backends(self.config.enable_tensorrt_backend)
        )
        self.partitioner = GraphPartitioner(self.config.partition)
        self.fission = FissionEngine()
        self.stats = EngineStats()
        #: Shared metric registry (service/scheduler/cache metrics land in
        #: the same export).  One engine per registry: the export-time
        #: collector writes engine-wide gauges by fixed names.
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._stage_hist = self.metrics.histogram(
            "korch_engine_stage_seconds",
            "Per-partition wall-clock seconds by engine stage",
            labelnames=("stage",),
        )
        self._kernel_hist = self.metrics.histogram(
            "korch_runtime_kernel_seconds",
            "Per-kernel wall-clock execution seconds by kernel library and planned backend",
            labelnames=("library", "backend"),
        )
        self._executions_total = self.metrics.counter(
            "korch_runtime_executions_total",
            "Assembled plans executed through the runtime, by model",
            labelnames=("model",),
        )
        self._verifications_total = self.metrics.counter(
            "korch_runtime_verifications_total",
            "Runtime verifications against the reference executor, by outcome",
            labelnames=("outcome",),
        )
        self.metrics.add_collector(self._collect_metrics)

        self._lock = threading.Lock()
        # Executor management has its own lock: creating/growing executors
        # must never contend with the stats lock that in-flight tasks take.
        self._executor_lock = threading.Lock()
        self._profile_owners: dict[str, int] = {}
        self._run_ids = itertools.count()
        self._serial_executor = SerialExecutor()
        self._thread_executor: ThreadExecutor | None = None
        self._process_executor: ProcessExecutor | None = None
        #: The engine-wide scheduler (thread/process modes): one long-lived
        #: instance spans every concurrent ``optimize_many`` call, so
        #: admission, priorities and per-model round-robin see the true
        #: global queue instead of per-call islands.
        self._scheduler: Scheduler | None = None
        self._warm_lock = threading.Lock()
        self._warmed = False
        self._owns_store = False
        self._closed = False

        self.store: CacheStore | None = None
        self.plan_cache: PlanCache | None = None
        self.profile_cache: PersistentProfileCache | None = None
        self._graph_opt_cache: PersistentProfileCache | None = None
        if self.config.cache_dir is not None:
            self.store, plan_cache = shared_store(
                self.config.cache_dir,
                self.config.cache_max_entries,
                self.config.engine.max_open_stores,
            )
            if self.config.enable_plan_cache:
                self.plan_cache = plan_cache
        elif share_profiles:
            # No durable directory: still share profiles (and plans) across
            # this engine's lifetime through a private in-memory store.
            self.store = CacheStore(None, max_entries=self.config.cache_max_entries)
            self._owns_store = True
            if self.config.enable_plan_cache:
                self.plan_cache = PlanCache(self.store)
        if self.store is not None:
            self.profile_cache = PersistentProfileCache(self.store, self.spec, self.backends)
            # The graph optimizer profiles singleton kernels with the default
            # backend set; give it a cache context keyed on that set.
            self._graph_opt_cache = PersistentProfileCache(
                self.store, self.spec, default_korch_backends()
            )

    # ------------------------------------------------------------------ api
    def optimize(self, graph: Graph) -> KorchResult:
        """Optimize one model end to end (serial unless ``num_workers`` > 1)."""
        return self.optimize_many([graph])[0]

    def optimize_many(
        self, graphs: Sequence[Graph], max_concurrency: int | None = None
    ) -> list[KorchResult]:
        """Optimize several models, interleaving their partitions on the pool.

        ``max_concurrency`` bounds concurrently-running partition tasks
        across *all* models (``None`` defers to ``config.num_workers``,
        0 = one per CPU).  Results are returned in input order and are
        bit-identical to optimizing each graph by itself.
        """
        if self._closed:
            raise RuntimeError("KorchEngine is closed")
        runs: list[_ModelRun] = []
        primary_by_key: dict[str, _ModelRun] = {}
        for graph in graphs:
            run = self._prepare(graph)
            if run.result is None and run.plan_cache_key is not None:
                primary = primary_by_key.get(run.plan_cache_key)
                if primary is not None:
                    # Identical graph earlier in this batch: optimize once,
                    # fan the result out (the serial equivalent would have
                    # answered the repeat from the memory tier).
                    run.duplicate_of = primary
                else:
                    primary_by_key[run.plan_cache_key] = run
            runs.append(run)

        pending = [run for run in runs if run.result is None and run.duplicate_of is None]
        num_partitions = sum(len(run.partitions) for run in pending)
        workers = self._resolve_workers(max_concurrency, num_partitions)
        if num_partitions:
            tasks, finish_keys = self._build_tasks(pending)
            scheduler = self._scheduler_for(workers)
            results = self._run_batch(scheduler, tasks)
            for run in pending:
                run.outcomes = [results[key] for key in finish_keys[run.run_id]]
        for run in pending:
            run.result = self._assemble(run, workers)
        for run in runs:
            if run.result is None and run.duplicate_of is not None:
                with self._lock:
                    self.stats.plan_memory_hits += 1
                run.result = dataclasses.replace(
                    run.duplicate_of.result,
                    cache=dataclasses.replace(
                        run.duplicate_of.result.cache, plan_cache="memory-hit"
                    ),
                )
        return [run.result for run in runs]

    def execute(
        self,
        result: KorchResult,
        feeds: dict | None = None,
        library=None,
        verify: bool = False,
        tolerance: float = 1e-4,
        measure: bool = False,
        warmup: int = 1,
        repeats: int = 3,
        measured_backend=None,
    ):
        """Run an optimized plan through the execution runtime.

        Walks ``result.executable`` kernel by kernel with
        :class:`~repro.runtime.executor.PlanExecutor`, feeding per-kernel
        wall-clock times into the engine's metrics.  ``verify=True`` checks
        the executed outputs against the reference executor;
        ``measure=True`` additionally times every kernel (``warmup`` +
        ``repeats`` trimmed-mean runs), ingests the timings into a
        :class:`~repro.backends.MeasuredBackend` (``measured_backend`` or a
        fresh one) and — when the engine has a cache store — writes them
        into the persistent profile cache under the measured backend's
        fingerprint, where a measured-backend engine re-ranks plans from
        them.  Returns the :class:`~repro.runtime.executor.ExecutionReport`
        (with ``.measurement``/``.measured_backend`` attached when
        measuring).
        """
        from ..backends.measured import MeasuredBackend
        from ..cache import PersistentProfileCache as _ProfileCache
        from ..runtime.executor import PlanExecutor
        from ..runtime.library import resolve_library

        lib = resolve_library(library)
        lib_name = getattr(lib, "name", type(lib).__name__)

        def on_kernel(execution) -> None:
            self._kernel_hist.labels(
                library=lib_name, backend=execution.backend
            ).observe(execution.wall_s)

        executor = PlanExecutor(result, library=lib, on_kernel=on_kernel)
        report = executor.run(feeds=feeds)
        self._executions_total.labels(model=result.graph.name).inc()
        if verify:
            report.verification = executor.verify(feeds=feeds, tolerance=tolerance)
            outcome = "pass" if report.verification.equivalent else "fail"
            self._verifications_total.labels(outcome=outcome).inc()
        if measure:
            measurement = executor.measure(feeds=feeds, warmup=warmup, repeats=repeats)
            backend = measured_backend if measured_backend is not None else MeasuredBackend()
            backend.ingest(measurement)
            if self.store is not None:
                cache = _ProfileCache(self.store, self.spec, [backend])
                backend.write_profiles(cache)
            report.measurement = measurement
            report.measured_backend = backend
        return report

    def close(self) -> None:
        """Release the scheduler, executors and any privately-owned store."""
        self._closed = True
        with self._executor_lock:
            scheduler, self._scheduler = self._scheduler, None
            thread_exec, self._thread_executor = self._thread_executor, None
            process_exec, self._process_executor = self._process_executor, None
        if scheduler is not None:
            # Queued tasks never start; in-flight ones settle before the
            # executors below are torn out from under them.
            scheduler.close(wait=True, cancel_pending=True)
        if thread_exec is not None:
            thread_exec.shutdown(wait=True)
        if process_exec is not None:
            process_exec.shutdown(wait=True)
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "KorchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ model prep
    def _prepare(self, graph: Graph) -> _ModelRun:
        run = _ModelRun(graph=graph, run_id=next(self._run_ids))
        with self._lock:
            self.stats.models_optimized += 1

        if self.plan_cache is not None:
            run.plan_cache_key = plan_key(
                graph_to_dict(graph),
                self.spec,
                backend_fingerprint(self.backends),
                self.config.fingerprint(),
            )
            memoized = self.plan_cache.get_result(run.plan_cache_key)
            if memoized is not None:
                with self._lock:
                    self.stats.plan_memory_hits += 1
                run.result = dataclasses.replace(
                    memoized,
                    cache=dataclasses.replace(memoized.cache, plan_cache="memory-hit"),
                )
                return run
            run.stored_plan = self.plan_cache.load(run.plan_cache_key)

        run.partitions = self.partitioner.partition(graph)
        if run.stored_plan is not None and len(run.stored_plan.partitions) != len(run.partitions):
            run.stored_plan = None  # stale partitioning; re-optimize from scratch

        # One tuning-time model per model run: structurally identical kernels
        # appearing in *different* partitions are tuned once, which is how
        # the paper's TVM database amortizes Table 2's tuning hours.
        run.plans = (
            list(run.stored_plan.partitions)
            if run.stored_plan is not None
            else [None] * len(run.partitions)
        )
        return run

    # ------------------------------------------------------------ partitions
    def _make_context(
        self,
        partition: Partition,
        plan: PartitionPlan | None,
        run: _ModelRun,
        with_graph_optimizer: bool = True,
    ) -> StageContext:
        """A stage context with fresh collaborators for one partition.

        Self-contained (fresh orchestration optimizer per context) so
        partitions from any model can run on concurrent workers; shared
        state is limited to the thread-safe caches.
        """
        tuning = TuningTally(run.tuning_model)
        profile_cache = (
            _ReuseTrackingCache(self.profile_cache, self, run.run_id)
            if self.profile_cache is not None
            else None
        )
        optimizer = KernelOrchestrationOptimizer(
            self.spec,
            backends=self.backends,
            identifier_config=self.config.identifier,
            solver_method=self.config.solver_method,
            solver_time_limit_s=self.config.solver_time_limit_s,
            solver_mip_rel_gap=self.config.solver_mip_rel_gap,
            solver_config=self.config.solver_config(),
            persistent_cache=profile_cache,
            tuning_model=tuning,
        )
        graph_optimizer = None
        if with_graph_optimizer and self.config.enable_graph_optimizer:
            # Fresh graph optimizer per partition task: its cost-proxy
            # profiler is not tuning-authoritative, and a fresh instance
            # keeps concurrent workers from sharing mutable profiler state.
            graph_opt_cache = (
                _ReuseTrackingCache(self._graph_opt_cache, self, run.run_id)
                if self._graph_opt_cache is not None
                else None
            )
            profiler = KernelProfiler(
                self.spec,
                persistent_cache=graph_opt_cache,
                tuning_authoritative=False,
            )
            graph_optimizer = PrimitiveGraphOptimizer(
                self.spec,
                config=self.config.graph_optimizer,
                profiler=profiler,
                verifier=_rewrite_verifier(self.config),
            )

        return StageContext(
            partition=partition,
            config=self.config,
            spec=self.spec,
            fission=self.fission,
            optimizer=optimizer,
            graph_optimizer=graph_optimizer,
            plan=plan,
            plan_cache=self.plan_cache,
            tuning=tuning,
        )

    def stages(self) -> Sequence[Stage]:
        """The stage sequence; override to instrument or replace stages."""
        return DEFAULT_STAGES

    def _stage_split(self) -> tuple[tuple[Stage, ...], tuple[Stage, ...], tuple[Stage, ...]]:
        """Split :meth:`stages` into (prologue, identify, epilogue) groups."""
        stages = tuple(self.stages())
        for position, stage in enumerate(stages):
            if stage.name == "identify":
                return stages[:position], stages[position : position + 1], stages[position + 1 :]
        return stages, (), ()

    # ------------------------------------------------------------ task graph
    def _uses_default_prologue(self) -> bool:
        """Whether :meth:`stages` still matches the flow the process worker
        hard-codes.  A subclass that replaced or extended the pre-profile
        stages falls back to parent-side execution, so the executor setting
        never changes *what* is computed — only where."""
        prologue, identify, _ = self._stage_split()
        return (
            len(prologue) == 2
            and type(prologue[0]) is FissionStage
            and type(prologue[1]) is GraphOptStage
            and len(identify) == 1
            and type(identify[0]) is IdentifyStage
        )

    def _build_tasks(self, pending: Sequence[_ModelRun]) -> tuple[list[Task], dict[int, list[str]]]:
        """The scheduler task graph: a prep → identify → finish chain per
        partition.  Later stages get lower priority values so partitions
        drain depth-first; ``model_id`` keeps dispatch fair across models."""
        use_process = (
            self.config.engine.executor == "process" and self._uses_default_prologue()
        )
        tasks: list[Task] = []
        finish_keys: dict[int, list[str]] = {}
        for run in pending:
            keys: list[str] = []
            for index, (partition, plan) in enumerate(zip(run.partitions, run.plans)):
                base = f"r{run.run_id}p{index}"
                prep_key, identify_key, finish_key = (
                    f"{base}:prep", f"{base}:identify", f"{base}:finish",
                )
                if use_process:
                    # The GIL-bound prologue ships to a process worker as a
                    # pure function of picklable inputs; enumeration is
                    # skipped when a stored plan makes replay likely.
                    tasks.append(Task(
                        key=prep_key,
                        fn=run_partition_prologue,
                        args=(partition, self.config, self.spec, plan is None),
                        kind="cpu",
                        model_id=run.run_id,
                        priority=2,
                    ))
                    tasks.append(Task(
                        key=identify_key,
                        fn=self._task_absorb_prologue,
                        args=(Dep(prep_key), partition, plan, run),
                        deps=(prep_key,),
                        model_id=run.run_id,
                        priority=1,
                    ))
                else:
                    tasks.append(Task(
                        key=prep_key,
                        fn=self._task_prologue,
                        args=(partition, plan, run),
                        model_id=run.run_id,
                        priority=2,
                    ))
                    tasks.append(Task(
                        key=identify_key,
                        fn=self._task_identify,
                        args=(Dep(prep_key),),
                        deps=(prep_key,),
                        model_id=run.run_id,
                        priority=1,
                    ))
                tasks.append(Task(
                    key=finish_key,
                    fn=self._task_finish,
                    args=(Dep(identify_key),),
                    deps=(identify_key,),
                    model_id=run.run_id,
                    priority=0,
                ))
                keys.append(finish_key)
            finish_keys[run.run_id] = keys
        return tasks, finish_keys

    def _task_prologue(
        self, partition: Partition, plan: PartitionPlan | None, run: _ModelRun
    ) -> StageContext:
        ctx = self._make_context(partition, plan, run)
        prologue, _, _ = self._stage_split()
        return run_stages(ctx, prologue, observe=self._observe_stage)

    def _task_identify(self, ctx: StageContext) -> StageContext:
        _, identify, _ = self._stage_split()
        ctx = run_stages(ctx, identify, observe=self._observe_stage)
        if ctx.reused:
            with self._lock:
                self.stats.identify_memo_hits += 1
        return ctx

    def _task_absorb_prologue(
        self,
        payload: PrologueResult,
        partition: Partition,
        plan: PartitionPlan | None,
        run: _ModelRun,
    ) -> StageContext:
        """Fold a process worker's prologue back into a parent-side context.

        The worker has no view of the engine's caches, so its profile-cache
        writes are replayed here (through the reuse-tracking wrapper, exactly
        as if a parent-side cost-proxy profiler had written them).
        """
        ctx = self._make_context(partition, plan, run, with_graph_optimizer=False)
        ctx.pg = payload.pg
        ctx.fission_report = payload.fission_report
        ctx.optimizer_report = payload.optimizer_report
        ctx.candidate_specs = payload.specs
        ctx.identifier_report = payload.report
        ctx.worker_profiler_stats = payload.profiler_stats
        for name, seconds in payload.timings.items():
            ctx.timings[name] = ctx.timings.get(name, 0.0) + seconds
            self._observe_stage(name, seconds)  # worker-side stage time
        if payload.cache_writes and self._graph_opt_cache is not None:
            tracked = _ReuseTrackingCache(self._graph_opt_cache, self, run.run_id)
            for signature, profile, tuned in payload.cache_writes:
                # Replay exactly what a parent-side cost-proxy profiler would
                # have done: consult the cache first, write only on a miss.
                # An unconditional put would demote entries the profile stage
                # already promoted to tuned=True, re-charging their tuning
                # time on the next model and skewing Table 2 accounting.
                hit, _, _ = tracked.get(signature)
                if not hit:
                    tracked.put(signature, profile, tuned=tuned)
        # Replay, partition-plan reuse and fallback enumeration (stale plan)
        # still happen here; otherwise the worker's specs pass through.
        return self._task_identify(ctx)

    def _task_finish(self, ctx: StageContext) -> tuple[PartitionResult, ProfilerStats]:
        _, _, epilogue = self._stage_split()
        ctx = run_stages(ctx, epilogue, observe=self._observe_stage)
        stats = ctx.optimizer.profiler_stats
        if ctx.graph_optimizer is not None:
            stats.merge(ctx.graph_optimizer.profiler.stats)
        if ctx.worker_profiler_stats is not None:
            stats.merge(ctx.worker_profiler_stats)
        return ctx.result, stats

    # -------------------------------------------------------------- assembly
    def _assemble(self, run: _ModelRun, num_workers: int) -> KorchResult:
        results = [outcome[0] for outcome in run.outcomes]
        cache = self._cache_report(run, results, num_workers)
        model_executable = ModelExecutable(run.graph.name, [r.executable for r in results])

        # A fully-replayed run never profiled the non-selected candidates, so
        # its own tuning model is nearly empty; report the cold run's stored
        # statistics instead, keeping Table 2 numbers stable warm or cold.
        tuning = run.tuning_model.report
        if cache.partitions_replayed == len(results) and run.stored_plan is not None:
            stored_tuning = (
                TuningTimeReport.from_payload(run.stored_plan.tuning)
                if run.stored_plan.tuning is not None
                else None
            )
            if stored_tuning is not None:
                tuning = stored_tuning

        result = KorchResult(
            graph=run.graph,
            spec=self.spec,
            partitions=results,
            executable=model_executable,
            tuning=tuning,
            cache=cache,
        )
        if run.plan_cache_key is not None:
            if cache.partitions_replayed < len(results):
                # Cold or partially-replayed run: (re)store the full plan.
                # Reused partitions count as cold here: the tuning-time
                # accounting already charged them what a cold solve would.
                plan = ModelPlan(
                    partitions=[PartitionPlan.of(r.orchestration) for r in results],
                    backends=backend_fingerprint(self.backends),
                )
                if cache.partitions_replayed == 0:
                    plan.tuning = run.tuning_model.report.as_payload()
                elif run.stored_plan is not None:
                    # Partial replay: this run's report is incomplete; keep
                    # whatever full-run report the stored plan carried.
                    plan.tuning = run.stored_plan.tuning
                self.plan_cache.save(run.plan_cache_key, plan)
            self.plan_cache.put_result(run.plan_cache_key, result)
        with self._lock:
            self.stats.partitions_optimized += len(results)
            self.stats.partitions_replayed += cache.partitions_replayed
            if cache.plan_cache == "disk-hit":
                self.stats.plan_disk_hits += 1
            self.stats.profiler.merge(cache.profiler)
        return result

    def _cache_report(
        self, run: _ModelRun, results: list[PartitionResult], num_workers: int
    ) -> CacheReport:
        profiler = ProfilerStats()
        for _, stats in run.outcomes:
            profiler.merge(stats)
        replayed = sum(1 for r in results if r.replayed)
        reused = sum(1 for r in results if r.reused)
        if self.plan_cache is None:
            status = "off"
        elif replayed == len(results) and (run.stored_plan is not None or not results):
            status = "disk-hit"
        else:
            status = "miss"
        return CacheReport(
            plan_cache=status,
            partitions_replayed=replayed,
            partitions_reused=reused,
            profiler=profiler,
            store=self.store.stats if self.store is not None else None,
            num_workers=num_workers,
        )

    # ------------------------------------------------------------- scheduling
    def _resolve_workers(self, max_concurrency: int | None, num_tasks: int) -> int:
        if max_concurrency is None:
            return self.config.resolve_num_workers(num_tasks)
        workers = max_concurrency if max_concurrency > 0 else (os.cpu_count() or 1)
        return max(1, min(workers, num_tasks))

    @property
    def scheduler(self) -> Scheduler | None:
        """The engine-wide scheduler (``None`` until first use, and always
        ``None`` in serial mode, which schedules inline per call)."""
        with self._executor_lock:
            return self._scheduler

    def _scheduler_for(self, workers: int) -> Scheduler:
        """The scheduler one ``optimize_many`` call submits its batch to.

        ``executor="serial"`` keeps the historical inline semantics: a fresh
        per-call scheduler over the serial executor, zero pool overhead, and
        execution on the calling thread.  Thread and process modes share
        **one engine-wide scheduler** across every concurrent call — service
        requests land in a single ready queue, so priorities and per-model
        round-robin arbitrate globally and the admission cap bounds true
        total in-flight work.  The cap and the thread pool only ever grow
        (never starving an already-admitted wide batch); process mode adds
        the ``"cpu"`` executor for prologue tasks and widens the cap so
        enumeration can use every process worker.
        """
        engine_cfg = self.config.engine
        if engine_cfg.executor == "serial":
            return Scheduler(
                {"default": self._serial_executor},
                admission_cap=engine_cfg.admission_cap,
                metrics=self.metrics,
            )
        use_process = engine_cfg.executor == "process"
        cap = engine_cfg.admission_cap if engine_cfg.admission_cap is not None else workers
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("KorchEngine is closed")
            if self._thread_executor is None:
                self._thread_executor = ThreadExecutor(
                    workers, cap=self._POOL_SIZE_CAP, thread_name_prefix="korch-engine"
                )
            else:
                self._thread_executor.ensure(workers)
            executors: dict[str, Executor] = {"default": self._thread_executor}
            if use_process:
                if self._process_executor is None:
                    self._process_executor = ProcessExecutor(
                        engine_cfg.process_workers, engine_cfg.process_start_method
                    )
                executors["cpu"] = self._process_executor
                if engine_cfg.admission_cap is None:
                    cap = max(cap, self._process_executor.workers)
            if self._scheduler is None:
                self._scheduler = Scheduler(
                    executors, admission_cap=cap, metrics=self.metrics
                )
            else:
                for kind, executor in executors.items():
                    self._scheduler.executors.setdefault(kind, executor)
            scheduler = self._scheduler
        scheduler.set_admission_cap(cap)
        return scheduler

    def _run_batch(self, scheduler: Scheduler, tasks: list[Task]) -> dict[str, object]:
        """Run one call's task batch on a (possibly shared) scheduler.

        Mirrors :meth:`Scheduler.run` — wait for every task, raise the first
        failure in submission order — but with batch-scoped cleanup instead
        of closing the scheduler: on the way out, this batch's queued tasks
        are cancelled, its in-flight ones are waited for (nothing races the
        raise), and its settled keys are retired so a long-lived scheduler
        stays bounded.  Other callers' batches are untouched — one failing
        request never poisons concurrent ones.
        """
        from concurrent.futures import CancelledError, wait as wait_futures

        keys = [task.key for task in tasks]
        futures = scheduler.submit(tasks)
        try:
            for future in futures.values():
                try:
                    future.result()
                except (CancelledError, Exception):
                    # Task failures re-raise in submission order below; the
                    # waiter's own KeyboardInterrupt/SystemExit propagate.
                    pass
            for task in tasks:
                future = futures[task.key]
                if future.cancelled():
                    raise CancelledError(f"task {task.key!r} was cancelled")
                error = future.exception()
                if error is not None:
                    raise error
            return {key: future.result() for key, future in futures.items()}
        finally:
            for key in keys:
                scheduler.cancel(key)  # queued-only; settled/running are no-ops
            wait_futures(list(futures.values()))
            scheduler.forget(keys)

    def request_key(self, graph: Graph) -> str:
        """Canonical identity of an optimization request on this engine.

        The plan-cache key: a content hash of the graph structure, GPU spec,
        backend set and the result-determining config subset
        (:meth:`KorchConfig.fingerprint`).  Two graphs with equal keys are
        guaranteed bit-identical results, which is what makes the key safe
        as the service tier's coalescing identity.  Available whether or not
        a plan cache is configured.
        """
        return plan_key(
            graph_to_dict(graph),
            self.spec,
            backend_fingerprint(self.backends),
            self.config.fingerprint(),
        )

    def warm_up(self, refresh: bool = False) -> bool:
        """Start the process pool's workers eagerly (no-op in thread mode),
        keeping worker spawn cost off the first request's critical path.

        When the engine has a cache store with profile entries, a snapshot
        of the newest ``worker_snapshot_entries`` of them rides along on the
        warm-up broadcast, so every worker starts with the parent's profile
        knowledge (see :class:`~repro.engine.scheduler.worker._SnapshotProfileCache`).

        Warms **exactly once** per engine no matter how many service threads
        call it concurrently: the first caller broadcasts, later callers wait
        for it and return ``False`` (the first returns ``True``).  Pass
        ``refresh=True`` after warming the cache to re-broadcast a fresh
        snapshot — cheap, and it replaces the previous one.
        """
        engine_cfg = self.config.engine
        if engine_cfg.executor != "process":
            return False
        with self._warm_lock:
            if self._warmed and not refresh:
                return False
            with self._executor_lock:
                if self._closed:
                    raise RuntimeError("KorchEngine is closed")
                if self._process_executor is None:
                    self._process_executor = ProcessExecutor(
                        engine_cfg.process_workers, engine_cfg.process_start_method
                    )
                executor = self._process_executor
            snapshot: dict[str, dict] = {}
            if self.store is not None and engine_cfg.worker_snapshot_entries > 0:
                snapshot = export_snapshot(self.store, engine_cfg.worker_snapshot_entries)
            if snapshot:
                executor.warm_up(install_profile_snapshot, (snapshot,))
            else:
                executor.warm_up()
            self._warmed = True
            return True

    # --------------------------------------------------------------- metrics
    def _observe_stage(self, name: str, seconds: float) -> None:
        self._stage_hist.labels(stage=name).observe(seconds)

    def _collect_metrics(self) -> None:
        """Export-time collector: snapshot engine statistics (plan, partition
        plan and profile hit counters) and the cache store's hit/miss/eviction
        accounting into gauges, so the hot paths stay uninstrumented."""
        with self._lock:
            stats = self.stats.as_dict()
        for name, value in stats.items():
            self.metrics.gauge(f"korch_engine_{name}").set(value)
        if self.store is not None:
            for name, value in self.store.stats.as_dict().items():
                self.metrics.gauge(f"korch_cache_store_{name}").set(value)
        if self.plan_cache is not None:
            self.metrics.gauge("korch_cache_plan_entries").set(len(self.plan_cache))
        if self.profile_cache is not None:
            self.metrics.gauge("korch_cache_profile_entries").set(len(self.profile_cache))

    # ------------------------------------------------------- reuse tracking
    def _note_profile_write(self, key: str, run_id: int) -> None:
        with self._lock:
            if len(self._profile_owners) < _MAX_TRACKED_OWNERS:
                self._profile_owners.setdefault(key, run_id)

    def _note_profile_hit(self, key: str, run_id: int) -> None:
        with self._lock:
            owner = self._profile_owners.get(key)
            if owner is not None and owner != run_id:
                self.stats.cross_model_profile_reuses += 1
