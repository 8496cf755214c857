"""Simulated GPU substrate: specs, roofline cost model, profiler."""

from .cost_model import CostBreakdown, parallelism_factor, roofline_latency
from .features import ConvShape, GemmShape, KernelFeatures, extract_features
from .profiler import KernelProfile, KernelProfiler
from .specs import A100, GPU_SPECS, H100, P100, V100, GpuSpec, get_gpu, gpu_generation_trends

__all__ = [
    "GpuSpec",
    "GPU_SPECS",
    "get_gpu",
    "gpu_generation_trends",
    "P100",
    "V100",
    "A100",
    "H100",
    "CostBreakdown",
    "roofline_latency",
    "parallelism_factor",
    "KernelFeatures",
    "GemmShape",
    "ConvShape",
    "extract_features",
    "KernelProfile",
    "KernelProfiler",
]
