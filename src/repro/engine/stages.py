"""The engine's composable stages.

Each stage implements the uniform contract ``run(ctx) -> ctx``: it reads the
artifacts earlier stages left on the :class:`~repro.engine.context.StageContext`
and writes its own.  ``run_stages`` executes a sequence of stages and records
per-stage wall-clock time into ``ctx.timings``, which surfaces as the
``stage_*_s`` keys of :meth:`repro.engine.result.KorchResult.summary`.

The default sequence reproduces the paper's Figure 1 flow for one partition:

``FissionStage``     operator fission → primitive graph
``GraphOptStage``    TASO-style primitive-graph substitutions (optional)
``IdentifyStage``    candidate enumeration + pruning (Algorithm 1, first half);
                     also the plan-replay shortcut — a valid stored plan, or
                     an equal partition's cached plan, fills
                     ``ctx.orchestration`` directly and the next two stages skip
``ProfileStage``     candidate pricing through the kernel profiler/caches
``SolveStage``       BLP solve + segmentation-cover guard → strategy
``AssembleStage``    executable generation → :class:`PartitionResult`

Stages are stateless; everything partition-specific lives on the context, so
one stage instance can serve concurrent partitions.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from ..cache import PartitionPlan, backend_fingerprint, partition_plan_key
from ..orchestration import KernelIdentifierReport
from ..runtime.executable import Executable
from .context import StageContext
from .result import PartitionResult

__all__ = [
    "Stage",
    "FissionStage",
    "GraphOptStage",
    "IdentifyStage",
    "ProfileStage",
    "SolveStage",
    "AssembleStage",
    "ExecuteStage",
    "DEFAULT_STAGES",
    "run_stages",
]


class Stage:
    """One step of the per-partition flow: ``run(ctx) -> ctx``."""

    name: str = "stage"

    def run(self, ctx: StageContext) -> StageContext:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FissionStage(Stage):
    """Operator fission: partition graph → primitive graph."""

    name = "fission"

    def run(self, ctx: StageContext) -> StageContext:
        ctx.pg, ctx.fission_report = ctx.fission.run(ctx.partition.graph)
        if ctx.config.engine.verify_level == "full":
            # Imported lazily: verification is opt-in debug tooling and the
            # default path must not load the analysis package.
            from ..analysis.verify import checked_fission

            checked_fission(ctx.partition.graph, ctx.pg)
        return ctx


class GraphOptStage(Stage):
    """Primitive-graph optimizer (TASO-style substitutions), when enabled."""

    name = "graph_opt"

    def run(self, ctx: StageContext) -> StageContext:
        if ctx.graph_optimizer is not None:
            ctx.pg, ctx.optimizer_report = ctx.graph_optimizer.optimize(ctx.pg)
        return ctx


class IdentifyStage(Stage):
    """Candidate-kernel enumeration — or plan replay when a stored plan fits.

    Replay belongs here because a valid plan *is* an identification result:
    it names exactly the kernels to build, making enumeration, profiling of
    non-selected candidates, and the BLP solve unnecessary.  Sources are
    tried in order:

    1. the model's stored plan for this partition (``ctx.plan``);
    2. the partition plan cache: a plan saved by any partition whose
       name-free key (:func:`repro.cache.partition_plan_key`) equals this
       one's, translated to this partition's names;
    3. cold enumeration (or the specs a process-pool prologue enumerated).

    Both replays re-validate and re-price every kernel; an invalid plan
    (stale shape, corrupted payload) falls through to the next source.
    """

    name = "identify"

    def run(self, ctx: StageContext) -> StageContext:
        if ctx.plan is not None:
            orchestration = ctx.optimizer.replay(ctx.pg, ctx.plan)
            if orchestration is not None:
                ctx.orchestration = orchestration
                return ctx
        if ctx.plan_cache is not None:
            ctx.partition_key = partition_plan_key(
                ctx.pg,
                ctx.spec,
                backend_fingerprint(ctx.optimizer.identifier.profiler.backends),
                ctx.config.fingerprint(),
            )
            plan = ctx.plan_cache.load_partition(ctx.partition_key)
            if plan is not None:
                orchestration = ctx.optimizer.replay(ctx.pg, plan, marker="reused")
                if orchestration is not None:
                    ctx.orchestration = orchestration
                    if ctx.tuning is not None and plan.tuning_records:
                        ctx.tuning.top_up(*plan.tuning_records)
                    return ctx
        if ctx.candidate_specs is None or ctx.identifier_report is None:
            report = KernelIdentifierReport()
            ctx.candidate_specs = ctx.optimizer.identifier.enumerate_specs(ctx.pg, report)
            ctx.identifier_report = report
        return ctx


class ProfileStage(Stage):
    """Price every candidate spec through the profiler and its caches."""

    name = "profile"

    def run(self, ctx: StageContext) -> StageContext:
        if ctx.orchestration is not None:  # replayed: nothing left to profile
            return ctx
        ctx.candidates = ctx.optimizer.identifier.profile_specs(
            ctx.pg, ctx.candidate_specs or [], ctx.identifier_report
        )
        return ctx


class SolveStage(Stage):
    """Solve the orchestration BLP (with the segmentation-cover guard), then
    save the solution to the partition plan cache for equal partitions."""

    name = "solve"

    def run(self, ctx: StageContext) -> StageContext:
        if ctx.orchestration is not None:  # replayed: already solved
            return ctx
        ctx.orchestration = ctx.optimizer.solve(
            ctx.pg, ctx.candidates or [], ctx.identifier_report
        )
        if ctx.partition_key is not None:
            plan = PartitionPlan.of(ctx.orchestration)
            if ctx.tuning is not None:
                plan.tuning_records = [ctx.tuning.records, ctx.tuning.vendor_records]
            ctx.plan_cache.save_partition(ctx.partition_key, plan)
        return ctx


class AssembleStage(Stage):
    """Stitch the selected kernels into an executable and final result."""

    name = "assemble"

    def run(self, ctx: StageContext) -> StageContext:
        if ctx.config.engine.verify_level in ("plan", "full"):
            self._verify_plan(ctx)
        ctx.executable = Executable.from_strategy(ctx.orchestration.strategy)
        ctx.result = PartitionResult(
            partition=ctx.partition,
            fission_report=ctx.fission_report,
            optimizer_report=ctx.optimizer_report,
            orchestration=ctx.orchestration,
            executable=ctx.executable,
            timings=ctx.timings,
            diagnostics=list(ctx.diagnostics),
        )
        return ctx

    @staticmethod
    def _verify_plan(ctx: StageContext) -> None:
        """Statically check the assembled strategy (``verify_level`` debug
        mode); ERROR findings raise, WARNING/INFO ride along on the result."""
        from ..diagnostics import DiagnosticError, errors
        from ..analysis.verify import verify_strategy

        strategy = ctx.orchestration.strategy
        if not strategy.pg.nodes:
            return
        found = verify_strategy(
            strategy.pg,
            strategy.kernels,
            location=f"{ctx.partition.graph.name}",
        )
        ctx.diagnostics.extend(found)
        bad = errors(found)
        if bad:
            raise DiagnosticError(
                f"plan verification failed for partition {ctx.partition.graph.name!r}",
                bad,
            )


class ExecuteStage(Stage):
    """Run the freshly assembled executable through the plan executor.

    Deliberately **not** part of :data:`DEFAULT_STAGES`: execution observes
    the plan (it runs and optionally verifies it) but never changes it, and
    keeping the default flow execution-free preserves the bit-identity
    guarantees the cache keys are built on.  Append it to a custom stage
    sequence — or use :meth:`repro.engine.engine.KorchEngine.execute` for
    whole-model execution with measurement and metrics.

    With ``verify=True`` (the default) a numerically divergent plan raises
    :class:`ExecutionVerificationError` instead of returning silently wrong
    tensors; the execution report is left on ``ctx.execution`` either way.
    """

    name = "execute"

    def __init__(
        self,
        library=None,
        verify: bool = True,
        tolerance: float = 1e-4,
    ) -> None:
        self.library = library
        self.verify = verify
        self.tolerance = tolerance

    def run(self, ctx: StageContext) -> StageContext:
        from ..runtime.executor import PlanExecutor

        executor = PlanExecutor.for_executable(
            ctx.partition.graph, ctx.executable, library=self.library
        )
        ctx.execution = executor.run()
        if self.verify:
            ctx.execution.verification = executor.verify(tolerance=self.tolerance)
            if not ctx.execution.verification.equivalent:
                raise ExecutionVerificationError(
                    f"executed plan for partition {ctx.partition.graph.name!r} diverges "
                    f"from the reference: max abs error "
                    f"{ctx.execution.verification.max_abs_error:.3e} > {self.tolerance}"
                )
        return ctx


class ExecutionVerificationError(RuntimeError):
    """An executed plan's outputs diverged from the reference executor."""


#: The Figure 1 flow; replace or extend to customize the engine.
DEFAULT_STAGES: tuple[Stage, ...] = (
    FissionStage(),
    GraphOptStage(),
    IdentifyStage(),
    ProfileStage(),
    SolveStage(),
    AssembleStage(),
)


def run_stages(
    ctx: StageContext,
    stages: Sequence[Stage] = DEFAULT_STAGES,
    observe: Callable[[str, float], None] | None = None,
) -> StageContext:
    """Run ``stages`` in order, recording per-stage wall-clock time.

    ``observe(stage_name, seconds)`` is called once per stage when given —
    the hook the engine uses to feed its per-stage latency histograms
    without the stages knowing about metrics.  It must stay ``None`` on
    process-pool workers (the prologue ships timings back instead).
    """
    for stage in stages:
        started = time.perf_counter()
        ctx = stage.run(ctx)
        elapsed = time.perf_counter() - started
        ctx.timings[stage.name] = ctx.timings.get(stage.name, 0.0) + elapsed
        if observe is not None:
            observe(stage.name, elapsed)
    return ctx
