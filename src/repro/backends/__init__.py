"""Kernel generation backend models (cuBLAS, cuDNN, TVM, TensorRT, eager)."""

from .base import KernelBackend
from .cublas import CublasBackend, gemm_efficiency
from .cudnn import CudnnBackend, conv_efficiency
from .framework import FrameworkEagerBackend
from .measured import MEASURED_MODEL_VERSION, MeasuredBackend
from .tensorrt import TensorRTBackend
from .tuning_time import TuningTally, TuningTimeModel, TuningTimeReport
from .tvm_meta import TvmMetaScheduleBackend, codegen_bandwidth_efficiency

__all__ = [
    "KernelBackend",
    "CublasBackend",
    "CudnnBackend",
    "TvmMetaScheduleBackend",
    "TensorRTBackend",
    "FrameworkEagerBackend",
    "MeasuredBackend",
    "MEASURED_MODEL_VERSION",
    "TuningTimeModel",
    "TuningTimeReport",
    "TuningTally",
    "gemm_efficiency",
    "conv_efficiency",
    "codegen_bandwidth_efficiency",
    "default_korch_backends",
    "tensorrt_backends",
    "tvm_backends",
    "eager_backends",
]


def default_korch_backends(enable_tensorrt: bool = False) -> list[KernelBackend]:
    """Backend set Korch's kernel profiler consults (§5.2).

    Memory-intensive candidates go to TVM MetaSchedule, compute-intensive ones
    to cuBLAS/cuDNN.  The TensorRT backend is optional and disabled by
    default, mirroring the paper's artifact configuration (§A.6).
    """
    backends: list[KernelBackend] = [
        CublasBackend(),
        CudnnBackend(),
        TvmMetaScheduleBackend(),
    ]
    if enable_tensorrt:
        backends.append(TensorRTBackend())
    return backends


def tensorrt_backends() -> list[KernelBackend]:
    """Backends available to the TensorRT baseline (its own kernel library)."""
    return [TensorRTBackend(), CublasBackend(), CudnnBackend()]


def tvm_backends() -> list[KernelBackend]:
    """Backends available to the TVM baseline (auto-scheduled + vendor GEMM)."""
    return [TvmMetaScheduleBackend(), CublasBackend(), CudnnBackend()]


def eager_backends() -> list[KernelBackend]:
    """Backends available to the PyTorch-eager baseline."""
    return [FrameworkEagerBackend()]
