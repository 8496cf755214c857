"""GPU specs, kernel features, roofline cost model, profiler."""

import pytest

from repro.backends import (
    CublasBackend,
    FrameworkEagerBackend,
    TensorRTBackend,
    TvmMetaScheduleBackend,
    default_korch_backends,
)
from repro.fission import FissionEngine
from repro.gpu import (
    A100,
    GPU_SPECS,
    H100,
    P100,
    V100,
    KernelProfiler,
    extract_features,
    get_gpu,
    gpu_generation_trends,
    parallelism_factor,
    roofline_latency,
)
from repro.ir import DataType, GraphBuilder, TensorType
from repro.primitives import MatMulPrimitive, PrimitiveGraph, ReducePrimitive


class TestSpecs:
    def test_lookup(self):
        assert get_gpu("v100") is V100
        assert get_gpu("A100") is A100
        with pytest.raises(KeyError):
            get_gpu("B200")

    def test_figure5_trends_monotone(self):
        """Figure 5: FLOPs grow faster than memory bandwidth across generations."""
        trends = gpu_generation_trends()
        assert trends["P100"] == {"mem_bw": 1.0, "fp32": 1.0, "fp16": 1.0}
        order = ["P100", "V100", "A100", "H100"]
        for metric in ("mem_bw", "fp32", "fp16"):
            values = [trends[g][metric] for g in order]
            assert values == sorted(values)
        # The compute/bandwidth ratio widens with every generation.
        ratios = [trends[g]["fp16"] / trends[g]["mem_bw"] for g in order]
        assert ratios == sorted(ratios)

    def test_peak_flops_by_dtype(self):
        assert A100.peak_flops(DataType.TF32) > A100.peak_flops(DataType.FLOAT32)
        assert V100.peak_flops(DataType.FLOAT16) > V100.peak_flops(DataType.FLOAT32)
        assert P100.ridge_intensity(DataType.FLOAT32) < H100.ridge_intensity(DataType.FLOAT32)

    def test_all_specs_sane(self):
        for spec in GPU_SPECS.values():
            assert spec.mem_bandwidth_bytes > 1e11
            assert spec.kernel_launch_s > 0
            assert spec.saturation_elements > 0


def _softmax_pg():
    b = GraphBuilder("softmax")
    x = b.input("x", (64, 1024))
    b.output(b.softmax(x, axis=-1))
    pg, _ = FissionEngine().run(b.build())
    return pg


class TestFeatures:
    def test_softmax_kernel_features(self):
        pg = _softmax_pg()
        nodes = list(pg.nodes)
        ins, outs = pg.subset_io(nodes)
        features = extract_features(pg, nodes, ins, outs)
        assert features.num_primitives == 4
        assert features.num_reduce == 1
        assert features.is_memory_bound
        # Fusing the reduction with its consumers costs a second pass.
        assert features.multipass_bytes == 2 * 64 * 1024 * 4
        assert features.traffic_bytes > features.input_bytes + features.output_bytes

    def test_unfused_reduce_has_no_multipass(self):
        pg = _softmax_pg()
        reduce_node = next(n for n in pg.nodes if isinstance(n.prim, ReducePrimitive))
        ins, outs = pg.subset_io([reduce_node])
        features = extract_features(pg, [reduce_node], ins, outs)
        assert features.multipass_bytes == 0

    def test_gemm_features(self):
        pg = PrimitiveGraph("gemm")
        a = pg.add_input("a", TensorType((256, 64)))
        w = pg.add_param("w", TensorType((64, 512)))
        node = pg.add_node(MatMulPrimitive(), [a, w])
        pg.add_output(node.output)
        features = extract_features(pg, [node], [a, w], [node.output])
        assert not features.is_memory_bound
        assert len(features.gemms) == 1
        gemm = features.gemms[0]
        assert (gemm.m, gemm.n, gemm.k) == (256, 512, 64)
        assert features.linear_flops == 2 * 256 * 512 * 64
        assert gemm.aspect_ratio == 8.0

    def test_resize_heterogeneity(self):
        from repro.models import build_segformer_decoder_subgraph

        pg, _ = FissionEngine().run(build_segformer_decoder_subgraph(batch=1))
        nodes = list(pg.nodes)
        ins, outs = pg.subset_io(nodes)
        features = extract_features(pg, nodes, ins, outs)
        assert len(set(features.resize_factors)) == 3
        assert features.branch_heterogeneity >= 2


class TestCostModel:
    def test_roofline_memory_bound(self):
        pg = _softmax_pg()
        nodes = list(pg.nodes)
        features = extract_features(pg, nodes, *pg.subset_io(nodes))
        breakdown = roofline_latency(features, V100, 0.8, 0.6)
        assert breakdown.bound == "memory"
        assert breakdown.latency_s > V100.kernel_launch_s
        assert breakdown.latency_us == pytest.approx(breakdown.latency_s * 1e6)

    def test_higher_bandwidth_gpu_is_faster(self):
        pg = _softmax_pg()
        nodes = list(pg.nodes)
        features = extract_features(pg, nodes, *pg.subset_io(nodes))
        assert (
            roofline_latency(features, A100, 0.8, 0.6).latency_s
            < roofline_latency(features, V100, 0.8, 0.6).latency_s
        )

    def test_parallelism_factor_bounds(self):
        pg = _softmax_pg()
        nodes = list(pg.nodes)
        features = extract_features(pg, nodes, *pg.subset_io(nodes))
        assert 0.1 <= parallelism_factor(features, V100) <= 1.0

    def test_efficiency_clamped(self):
        pg = _softmax_pg()
        nodes = list(pg.nodes)
        features = extract_features(pg, nodes, *pg.subset_io(nodes))
        breakdown = roofline_latency(features, V100, 5.0, 5.0)
        assert breakdown.bandwidth_efficiency <= 1.0


class TestBackends:
    def _gemm_features(self, m, n, k):
        pg = PrimitiveGraph("g")
        a = pg.add_input("a", TensorType((m, k)))
        w = pg.add_param("w", TensorType((k, n)))
        node = pg.add_node(MatMulPrimitive(), [a, w])
        pg.add_output(node.output)
        return extract_features(pg, [node], [a, w], [node.output])

    def test_cublas_rejects_memory_kernels(self):
        pg = _softmax_pg()
        nodes = list(pg.nodes)
        features = extract_features(pg, nodes, *pg.subset_io(nodes))
        assert CublasBackend().estimate(features, V100) is None
        assert TvmMetaScheduleBackend().estimate(features, V100) is not None

    def test_extreme_aspect_ratio_gemm_is_slower(self):
        """The Figure 8 effect: a 1024:1 GEMM runs far below peak."""
        square = self._gemm_features(512, 512, 512)
        skewed = self._gemm_features(16384, 16, 16)
        square_eff = CublasBackend().estimate(square, V100).compute_efficiency
        skewed_eff = CublasBackend().estimate(skewed, V100).compute_efficiency
        assert skewed_eff < 0.5 * square_eff

    def test_tvm_heterogeneity_penalty_grows_with_working_set(self):
        from repro.models import build_segformer_decoder_subgraph

        backend = TvmMetaScheduleBackend()
        latencies = {}
        for batch in (1, 16):
            pg, _ = FissionEngine().run(build_segformer_decoder_subgraph(batch=batch))
            nodes = list(pg.nodes)
            features = extract_features(pg, nodes, *pg.subset_io(nodes))
            latencies[batch] = backend.estimate(features, V100)
        eff1 = latencies[1].bandwidth_efficiency
        eff16 = latencies[16].bandwidth_efficiency
        assert eff16 < eff1  # the fused kernel degrades as the working set grows

    def test_tensorrt_rejects_heterogeneous_fusion(self):
        from repro.models import build_segformer_decoder_subgraph

        pg, _ = FissionEngine().run(build_segformer_decoder_subgraph(batch=1))
        nodes = list(pg.nodes)
        features = extract_features(pg, nodes, *pg.subset_io(nodes))
        assert TensorRTBackend().estimate(features, V100) is None
        assert FrameworkEagerBackend().estimate(features, V100) is not None

    def test_cudnn_conv_efficiency_channels(self):
        from repro.gpu.features import ConvShape
        from repro.backends import conv_efficiency

        wide = ConvShape(1, 256, 256, 3, 3, 56, 56)
        narrow = ConvShape(1, 3, 16, 3, 3, 224, 224)
        assert conv_efficiency(wide) > conv_efficiency(narrow)
        depthwise = ConvShape(1, 64, 64, 3, 3, 56, 56, groups=64)
        assert conv_efficiency(depthwise) < conv_efficiency(wide)

    def test_default_backend_sets(self):
        names = [b.name for b in default_korch_backends()]
        assert "TensorRT" not in names
        names_trt = [b.name for b in default_korch_backends(enable_tensorrt=True)]
        assert "TensorRT" in names_trt


class TestProfilerAndExecutor:
    def test_profiler_picks_vendor_backend_for_gemm(self, attention_pg, v100):
        profiler = KernelProfiler(v100)
        matmul = next(n for n in attention_pg.nodes if n.is_linear)
        ins, outs = attention_pg.subset_io([matmul])
        profile = profiler.profile(attention_pg, [matmul], ins, outs)
        assert profile.backend == "cuBLAS"

    def test_profiler_cache_and_tuning_dedup(self, attention_pg, v100):
        profiler = KernelProfiler(v100)
        matmuls = [n for n in attention_pg.nodes if n.is_linear]
        for node in matmuls:
            ins, outs = attention_pg.subset_io([node])
            profiler.profile(attention_pg, [node], ins, outs)
        report = profiler.tuning_model.report
        assert report.num_candidates >= 1
        assert report.num_profiled <= report.num_candidates
