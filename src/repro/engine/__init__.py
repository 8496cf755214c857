"""The staged Korch engine (Figure 1, decomposed).

The monolithic pipeline is split into composable stages with a uniform
``run(ctx) -> ctx`` contract (:mod:`~repro.engine.stages`), threaded over a
per-partition :class:`~repro.engine.context.StageContext`, and driven by a
long-lived :class:`~repro.engine.engine.KorchEngine` that owns the backends,
profiler caches, persistent store and executors across many models.

Concurrency flows through the pluggable scheduler/executor core
(:mod:`~repro.engine.scheduler`): each partition is a prep → identify →
finish task chain, dispatched with admission control and per-model fairness
onto a serial, thread or process executor
(``KorchEngineConfig.executor``).  On top of the engine,
:class:`~repro.engine.service.KorchService` provides the async serving
front-end: prioritized queued ``submit`` with futures, graceful drain and
per-request statistics.

:mod:`repro.pipeline` keeps the old ``KorchPipeline``/``optimize_model``
API as thin wrappers over a short-lived engine.
"""

from .admission import AdmissionConfig, AdmissionController
from .config import KorchConfig, KorchEngineConfig
from .context import StageContext
from .engine import EngineStats, KorchEngine
from .registry import (
    MAX_OPEN_STORES,
    close_store,
    max_open_stores,
    open_stores,
    set_max_open_stores,
    shared_store,
)
from .result import STAGE_ORDER, CacheReport, KorchResult, PartitionResult
from .scheduler import (
    Dep,
    DependencyFailed,
    Executor,
    ProcessExecutor,
    Scheduler,
    SchedulerError,
    SerialExecutor,
    Task,
    TaskCancelled,
    TaskError,
    ThreadExecutor,
)
from .service import (
    KorchService,
    Priority,
    ServiceClosed,
    ServiceDeadlineExceeded,
    ServiceOverloaded,
    ServiceReport,
    ServiceRequest,
    ServiceStats,
)
from .stages import (
    DEFAULT_STAGES,
    AssembleStage,
    FissionStage,
    GraphOptStage,
    IdentifyStage,
    ProfileStage,
    SolveStage,
    Stage,
    run_stages,
)

__all__ = [
    "KorchConfig",
    "KorchEngineConfig",
    "StageContext",
    "EngineStats",
    "KorchEngine",
    "CacheReport",
    "KorchResult",
    "PartitionResult",
    "STAGE_ORDER",
    "Stage",
    "FissionStage",
    "GraphOptStage",
    "IdentifyStage",
    "ProfileStage",
    "SolveStage",
    "AssembleStage",
    "DEFAULT_STAGES",
    "run_stages",
    "Dep",
    "Task",
    "TaskError",
    "TaskCancelled",
    "DependencyFailed",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "Scheduler",
    "SchedulerError",
    "AdmissionConfig",
    "AdmissionController",
    "KorchService",
    "Priority",
    "ServiceClosed",
    "ServiceDeadlineExceeded",
    "ServiceOverloaded",
    "ServiceReport",
    "ServiceRequest",
    "ServiceStats",
    "shared_store",
    "open_stores",
    "close_store",
    "set_max_open_stores",
    "max_open_stores",
    "MAX_OPEN_STORES",
]
