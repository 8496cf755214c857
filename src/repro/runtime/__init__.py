"""Runtime: reference execution, executables, plan execution, verification."""

from .executable import Executable, KernelLaunch, ModelExecutable
from .executor import (
    ExecutionReport,
    KernelExecution,
    MeasuredKernel,
    MeasurementReport,
    PlanExecutor,
    trimmed_mean,
)
from .library import (
    KernelLibrary,
    NumpyKernelLibrary,
    TorchKernelLibrary,
    available_libraries,
    get_library,
    resolve_library,
    torch_available,
)
from .reference import ReferenceExecutor, execute_graph, source_values, synthesize_tensor
from .verification import VerificationResult, compare_outputs, verify_primitive_graph

__all__ = [
    "ReferenceExecutor",
    "execute_graph",
    "source_values",
    "synthesize_tensor",
    "Executable",
    "KernelLaunch",
    "ModelExecutable",
    "PlanExecutor",
    "ExecutionReport",
    "KernelExecution",
    "MeasuredKernel",
    "MeasurementReport",
    "trimmed_mean",
    "KernelLibrary",
    "NumpyKernelLibrary",
    "TorchKernelLibrary",
    "available_libraries",
    "get_library",
    "resolve_library",
    "torch_available",
    "VerificationResult",
    "compare_outputs",
    "verify_primitive_graph",
]
