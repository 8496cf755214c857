"""Functional equivalence checking.

Korch's correctness argument is structural (fission rules and graph
transformations are semantics-preserving, kernels partition the primitive
graph); this reproduction additionally *checks* equivalence numerically: the
orchestrated executable, the primitive graph, and the original operator graph
must all agree on every graph output for the same (synthesized) inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..ir.graph import Graph
from ..primitives.graph import PrimitiveGraph
from .library import NumpyKernelLibrary
from .reference import ReferenceExecutor, source_values

__all__ = ["VerificationResult", "compare_outputs", "verify_primitive_graph"]

_DEFAULT_TOLERANCE = 1e-4


@dataclass
class VerificationResult:
    """Outcome of one equivalence check."""

    equivalent: bool
    max_abs_error: float
    per_output_error: dict[str, float]
    tolerance: float

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


def compare_outputs(
    reference: Mapping[str, np.ndarray],
    candidate: Mapping[str, np.ndarray],
    tolerance: float = _DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Elementwise max-abs-error comparison of two output dictionaries.

    Missing or shape-mismatched candidate tensors count as infinite error.
    The shared core of :func:`verify_primitive_graph` and
    :meth:`~repro.runtime.executor.PlanExecutor.verify`.
    """
    errors: dict[str, float] = {}
    for name, expected in reference.items():
        if name not in candidate:
            errors[name] = float("inf")
            continue
        got = candidate[name]
        if got.shape != expected.shape:
            errors[name] = float("inf")
            continue
        errors[name] = float(np.max(np.abs(np.asarray(got) - np.asarray(expected)))) if expected.size else 0.0
    worst = max(errors.values(), default=0.0)
    return VerificationResult(worst <= tolerance, worst, errors, tolerance)


def verify_primitive_graph(
    graph: Graph,
    pg: PrimitiveGraph,
    feeds: Mapping[str, np.ndarray] | None = None,
    tolerance: float = _DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check that operator fission (and any transformations) preserved
    semantics: the whole primitive graph runs as one numpy kernel."""
    reference = ReferenceExecutor(graph).run(feeds)
    candidate = NumpyKernelLibrary().run_kernel(pg.nodes, source_values(pg, feeds), pg.outputs)
    return compare_outputs(reference, candidate, tolerance)
