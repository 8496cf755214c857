"""Executable generator (§5.3).

Korch's executable generator stitches the selected kernels together in a
dependency-respecting order.  In this reproduction an :class:`Executable` is
plain data: the primitive graph and its sequence of kernel launches, each
naming the primitives it runs and the tensors it reads and writes.  The
predicted latency of the executable is the sum of the kernels' profiled
latencies, exactly the BLP objective (Equation 2).

A :class:`ModelExecutable` chains the per-partition executables of a whole
model.  Running either is the job of :class:`~repro.runtime.executor.PlanExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..orchestration.strategy import OrchestrationStrategy
from ..primitives.graph import PrimitiveGraph

__all__ = ["KernelLaunch", "Executable", "ModelExecutable"]


@dataclass(frozen=True)
class KernelLaunch:
    """One entry of an executable's launch sequence."""

    index: int
    node_names: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    backend: str
    latency_s: float


@dataclass
class Executable:
    """A compiled kernel execution plan for one primitive graph."""

    pg: PrimitiveGraph
    launches: list[KernelLaunch] = field(default_factory=list)

    @classmethod
    def from_strategy(cls, strategy: OrchestrationStrategy) -> "Executable":
        """Build an executable from an (ordered) orchestration strategy."""
        launches = [
            KernelLaunch(
                index=i,
                node_names=tuple(sorted(kernel.node_names)),
                inputs=tuple(kernel.external_inputs),
                outputs=tuple(kernel.outputs),
                backend=kernel.backend,
                latency_s=kernel.latency_s,
            )
            for i, kernel in enumerate(strategy.kernels)
        ]
        return cls(pg=strategy.pg, launches=launches)

    @property
    def num_kernels(self) -> int:
        return len(self.launches)

    @property
    def predicted_latency_s(self) -> float:
        return sum(launch.latency_s for launch in self.launches)

    @property
    def predicted_latency_ms(self) -> float:
        return self.predicted_latency_s * 1e3


@dataclass
class ModelExecutable:
    """Chained executables of a partitioned model."""

    name: str
    parts: list[Executable]

    @property
    def num_kernels(self) -> int:
        return sum(part.num_kernels for part in self.parts)

    @property
    def predicted_latency_s(self) -> float:
        return sum(part.predicted_latency_s for part in self.parts)

    @property
    def predicted_latency_ms(self) -> float:
        return self.predicted_latency_s * 1e3
