"""Plan execution runtime: run an assembled :class:`KorchResult` for real.

The optimizer's output so far was *predicted*: an executable whose latency is
the sum of backend model estimates.  :class:`PlanExecutor` closes the loop and
is the one code path that runs a plan — it walks the assembled kernel graph
in dependency order, dispatches each kernel's primitive sequence to a
pluggable :class:`~repro.runtime.library.KernelLibrary` (numpy always; torch
when importable), manages intermediate tensor lifetimes (tensors are freed
after their last reader, with live/peak accounting), and verifies the
produced outputs against the independent operator-level reference executor
(:mod:`repro.runtime.reference`).

``PlanExecutor.measure`` shares that walk and only adds timing around each
dispatch (warmup + trimmed mean over repeats); it returns a
:class:`MeasurementReport`, the input of the measured-latency profiling
backend (:mod:`repro.backends.measured`) that feeds observed timings back
into the profile cache.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..gpu.features import KernelFeatures, extract_features
from ..gpu.profiler import KernelProfiler
from .executable import Executable, KernelLaunch, ModelExecutable
from .library import KernelLibrary, resolve_library
from .reference import ReferenceExecutor, source_values
from .verification import VerificationResult, compare_outputs

__all__ = [
    "KernelExecution",
    "ExecutionReport",
    "MeasuredKernel",
    "MeasurementReport",
    "PlanExecutor",
    "trimmed_mean",
]

#: Default numeric tolerance for executor-vs-reference equivalence: the same
#: bound the existing verification layer uses (max absolute error over every
#: graph output, float32 end to end).
DEFAULT_TOLERANCE = 1e-4


def trimmed_mean(samples: Sequence[float], trim: float = 0.2) -> float:
    """Mean of ``samples`` after dropping a ``trim`` fraction at each end.

    The standard robust reduction for wall-clock kernel timings: the slowest
    repeats carry scheduler noise, the fastest can ride a cache anomaly.
    Always keeps at least one sample.
    """
    if not samples:
        raise ValueError("trimmed_mean needs at least one sample")
    ordered = sorted(samples)
    drop = int(len(ordered) * trim)
    kept = ordered[drop : len(ordered) - drop] or [ordered[len(ordered) // 2]]
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class KernelExecution:
    """One kernel launch as it actually ran."""

    partition: int
    index: int
    node_names: tuple[str, ...]
    #: Backend the plan selected for this kernel (the latency model's pick).
    backend: str
    #: The profiler's latency estimate for this kernel.
    predicted_s: float
    #: Wall-clock seconds of the library dispatch for this launch.
    wall_s: float
    output_bytes: int


@dataclass
class ExecutionReport:
    """Everything one :meth:`PlanExecutor.run` produced."""

    model: str
    library: str
    #: Every partition's outputs — and every kernel output too when the run
    #: kept intermediates.
    outputs: dict[str, np.ndarray]
    kernels: list[KernelExecution]
    #: Peak bytes of live intermediate tensors (sources excluded) and bytes
    #: released by last-use freeing during the walk.
    peak_live_bytes: int
    freed_bytes: int
    verification: VerificationResult | None = None
    measurement: "MeasurementReport | None" = None
    #: The :class:`~repro.backends.measured.MeasuredBackend` the engine
    #: ingested this run's measurement into, when it measured.
    measured_backend: object | None = None

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def predicted_s(self) -> float:
        return sum(k.predicted_s for k in self.kernels)

    @property
    def wall_s(self) -> float:
        return sum(k.wall_s for k in self.kernels)

    def summary(self) -> dict:
        out = {
            "model": self.model,
            "library": self.library,
            "num_kernels": self.num_kernels,
            "predicted_ms": self.predicted_s * 1e3,
            "wall_ms": self.wall_s * 1e3,
            "peak_live_bytes": self.peak_live_bytes,
            "freed_bytes": self.freed_bytes,
        }
        if self.verification is not None:
            out["verified"] = self.verification.equivalent
            out["max_abs_error"] = self.verification.max_abs_error
        if self.measurement is not None:
            out["measured_ms"] = self.measurement.measured_s * 1e3
        return out


@dataclass(frozen=True)
class MeasuredKernel:
    """Measured latency of one planned kernel, with its cache identity."""

    partition: int
    index: int
    node_names: tuple[str, ...]
    #: Backend the analytic plan had selected (for comparison/reporting).
    planned_backend: str
    predicted_s: float
    measured_s: float
    repeats: int
    #: The profiler's structural kernel signature — the persistent profile
    #: cache key, so measured timings land exactly where estimates would.
    signature: tuple
    features: KernelFeatures


@dataclass
class MeasurementReport:
    """Per-kernel measured latencies of one plan execution."""

    model: str
    library: str
    warmup: int
    repeats: int
    kernels: list[MeasuredKernel] = field(default_factory=list)

    @property
    def measured_s(self) -> float:
        return sum(k.measured_s for k in self.kernels)

    @property
    def predicted_s(self) -> float:
        return sum(k.predicted_s for k in self.kernels)

    def summary(self) -> dict:
        return {
            "model": self.model,
            "library": self.library,
            "num_kernels": len(self.kernels),
            "warmup": self.warmup,
            "repeats": self.repeats,
            "predicted_ms": self.predicted_s * 1e3,
            "measured_ms": self.measured_s * 1e3,
        }


@dataclass(frozen=True)
class _ExecutableResult:
    """The minimal result surface :class:`PlanExecutor` reads: a graph to
    verify against and the executable's partition chain."""

    graph: object
    executable: ModelExecutable


class PlanExecutor:
    """Executes an assembled :class:`~repro.engine.result.KorchResult`.

    ``on_kernel(execution)`` is called after every launch of :meth:`run` —
    the hook the engine uses to feed its per-kernel latency histogram without
    the runtime depending on the metrics package.
    """

    def __init__(
        self,
        result,
        library: KernelLibrary | str | None = None,
        on_kernel: Callable[[KernelExecution], None] | None = None,
    ) -> None:
        self.result = result
        self.library = resolve_library(library)
        self.on_kernel = on_kernel

    @classmethod
    def for_executable(
        cls,
        graph,
        executable: "Executable | ModelExecutable",
        library: KernelLibrary | str | None = None,
        on_kernel: Callable[[KernelExecution], None] | None = None,
    ) -> "PlanExecutor":
        """An executor over a bare executable (one partition or a chained
        model) instead of a full :class:`KorchResult` — what
        :class:`~repro.engine.stages.ExecuteStage` uses per partition."""
        model = (
            executable
            if isinstance(executable, ModelExecutable)
            else ModelExecutable(graph.name, [executable])
        )
        return cls(_ExecutableResult(graph, model), library=library, on_kernel=on_kernel)

    # ------------------------------------------------------------------ run
    def run(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        keep_intermediates: bool = False,
    ) -> ExecutionReport:
        """Execute the plan once, timing every kernel dispatch.

        ``keep_intermediates=True`` frees nothing and also returns every
        tensor the walk materialized (partition boundaries and kernel
        outputs) in ``outputs``.
        """
        kernels: list[KernelExecution] = []

        def dispatch(position, pg, launch, nodes, inputs):
            started = time.perf_counter()
            produced = self.library.run_kernel(nodes, inputs, launch.outputs)
            execution = KernelExecution(
                partition=position,
                index=launch.index,
                node_names=launch.node_names,
                backend=launch.backend,
                predicted_s=launch.latency_s,
                wall_s=time.perf_counter() - started,
                output_bytes=sum(value.nbytes for value in produced.values()),
            )
            kernels.append(execution)
            if self.on_kernel is not None:
                self.on_kernel(execution)
            return produced

        outputs, peak, freed = self._walk(feeds, dispatch, keep_intermediates)
        return ExecutionReport(
            model=self.result.graph.name,
            library=self.library.name,
            outputs=outputs,
            kernels=kernels,
            peak_live_bytes=peak,
            freed_bytes=freed,
        )

    def _walk(
        self,
        feeds: Mapping[str, np.ndarray] | None,
        dispatch: Callable[..., dict[str, np.ndarray]],
        keep_intermediates: bool = False,
    ) -> tuple[dict[str, np.ndarray], int, int]:
        """The one plan walk: every partition in turn, its kernels in
        dependency order, each handed to ``dispatch(position, pg, launch,
        nodes, inputs)``, which returns the kernel's outputs.

        Partition boundary tensors flow through a shared memory dict.  A
        tensor is freed after its last reader unless it is a partition
        output; live bytes count materialized non-source tensors.  Returns
        ``(outputs, peak_live_bytes, freed_bytes)``.
        """
        memory: dict[str, np.ndarray] = dict(feeds or {})
        outputs: dict[str, np.ndarray] = {}
        peak = 0
        freed = 0
        for position, part in enumerate(self.result.executable.parts):
            pg = part.pg
            values = source_values(pg, memory)
            keep = set(pg.outputs)
            # Last-use refcounts: a tensor dies when no later launch reads it.
            reads = Counter(t for launch in part.launches for t in launch.inputs)
            live = 0
            for launch, nodes in self._dependency_order(part, values):
                produced = dispatch(
                    position, pg, launch, nodes, {t: values[t] for t in launch.inputs}
                )
                for name, value in produced.items():
                    if name not in values and not pg.is_source_tensor(name):
                        live += value.nbytes
                    values[name] = value
                peak = max(peak, live)
                if keep_intermediates:
                    continue
                for tensor in launch.inputs:
                    reads[tensor] -= 1
                    if (
                        reads[tensor] == 0
                        and tensor not in keep
                        and tensor in values
                        and not pg.is_source_tensor(tensor)
                    ):
                        freed += values[tensor].nbytes
                        live -= values[tensor].nbytes
                        del values[tensor]

            missing = [t for t in pg.outputs if t not in values]
            if missing:
                raise RuntimeError(f"plan execution did not produce outputs {missing}")
            part_outputs = {name: values[name] for name in pg.outputs}
            if keep_intermediates:
                part_outputs.update(
                    (name, value)
                    for name, value in values.items()
                    if not pg.is_source_tensor(name)
                )
            memory.update(part_outputs)
            outputs.update(part_outputs)
        return outputs, peak, freed

    @staticmethod
    def _dependency_order(
        part: Executable, sources: Mapping[str, np.ndarray]
    ) -> list[tuple[KernelLaunch, list]]:
        """The kernel launches in an input-available order, each with its
        primitive nodes.

        Independent of the stored launch sequence: a ready-set walk over the
        kernel-level dataflow (deterministic — first-ready in stored order),
        raising on a plan whose kernels can never all become ready.
        """
        nodes_by_name = {node.name: node for node in part.pg.nodes}
        pending = list(part.launches)
        available = set(sources)
        ordered: list[tuple[KernelLaunch, list]] = []
        while pending:
            ready_at = next(
                (
                    i
                    for i, launch in enumerate(pending)
                    if all(t in available for t in launch.inputs)
                ),
                None,
            )
            if ready_at is None:
                stuck = [launch.index for launch in pending]
                raise RuntimeError(
                    f"kernel graph has no executable order; launches {stuck} "
                    "wait on tensors nothing produces"
                )
            launch = pending.pop(ready_at)
            available.update(launch.outputs)
            ordered.append((launch, [nodes_by_name[n] for n in launch.node_names]))
        return ordered

    # --------------------------------------------------------------- verify
    def verify(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> VerificationResult:
        """Compare this executor's outputs against the operator-level
        reference on the original graph's outputs (synthesized inputs when
        no feeds are given — both sides synthesize identically by name).

        An output whose dtype differs from the one the graph declares for
        it counts as missing: the reference shares primitive code with the
        plan, so only the declaration catches a dtype drift in both."""
        graph = self.result.graph
        reference = ReferenceExecutor(graph).run(feeds)
        produced = self.run(feeds).outputs
        candidate = {
            name: produced[name]
            for name in graph.outputs
            if name in produced
            and produced[name].dtype == graph.tensor_type(name).dtype.to_numpy()
        }
        return compare_outputs(reference, candidate, tolerance)

    # -------------------------------------------------------------- measure
    def measure(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        warmup: int = 1,
        repeats: int = 5,
        trim: float = 0.2,
    ) -> MeasurementReport:
        """Time every kernel of the plan: ``warmup`` unrecorded runs, then a
        trimmed mean over ``repeats`` timed runs, each from the same
        materialized input tensors.  Returns per-kernel measured latencies
        keyed by the profiler's structural signature, ready to be fed into
        the profile cache through a measured backend."""
        if repeats < 1:
            raise ValueError("measure needs repeats >= 1")
        report = MeasurementReport(
            model=self.result.graph.name,
            library=self.library.name,
            warmup=warmup,
            repeats=repeats,
        )

        def dispatch(position, pg, launch, nodes, inputs):
            for _ in range(max(0, warmup)):
                self.library.run_kernel(nodes, inputs, launch.outputs)
            samples: list[float] = []
            for _ in range(repeats):
                started = time.perf_counter()
                produced = self.library.run_kernel(nodes, inputs, launch.outputs)
                samples.append(time.perf_counter() - started)
            report.kernels.append(
                MeasuredKernel(
                    partition=position,
                    index=launch.index,
                    node_names=launch.node_names,
                    planned_backend=launch.backend,
                    predicted_s=launch.latency_s,
                    measured_s=trimmed_mean(samples, trim),
                    repeats=repeats,
                    signature=KernelProfiler.kernel_signature(
                        pg, nodes, launch.inputs, launch.outputs
                    ),
                    features=extract_features(pg, nodes, launch.inputs, launch.outputs),
                )
            )
            return produced

        self._walk(feeds, dispatch)
        return report
