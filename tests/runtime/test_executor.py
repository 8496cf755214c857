"""Plan execution runtime: kernel libraries, the executor, measured profiling.

Covers the executor end to end: per-primitive kernel dispatch through the
library layer, full-plan equivalence against the operator-level reference on
the case-study blocks, intermediate lifetime accounting, the measured-latency
backend's profile-cache round trip (including the model-version
non-collision guarantee against analytic entries), and re-ranking — injected
timings that invert the analytic order change the solved plan.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.backends import (
    MEASURED_MODEL_VERSION,
    MeasuredBackend,
    default_korch_backends,
)
from repro.backends.measured import features_key
from repro.cache import PersistentProfileCache, backend_fingerprint
from repro.engine import KorchEngine
from repro.engine.config import KorchConfig
from repro.engine.stages import ExecuteStage, ExecutionVerificationError
from repro.fission import FissionEngine
from repro.ir import GraphBuilder, TensorType
from repro.runtime import (
    PlanExecutor,
    ReferenceExecutor,
    available_libraries,
    get_library,
    resolve_library,
    source_values,
    synthesize_tensor,
    torch_available,
    trimmed_mean,
)
from repro.runtime.cli import _model_builders
from repro.runtime.executable import Executable, KernelLaunch
from repro.runtime.library import NumpyKernelLibrary

CASE_BLOCKS = ["candy_block", "efficientvit_block", "segformer_attention", "segformer_decoder"]


def small_graph(name="exec_small"):
    """A small graph with branching reuse (exercises lifetime refcounts)."""
    b = GraphBuilder(name)
    x = b.input("x", (2, 4, 8))
    left = b.exp(b.relu(x))
    right = b.sigmoid(x)
    joined = b.add(left, right)
    b.output(b.reduce_sum(joined, axes=(-1,), keepdims=True))
    return b.build()


@pytest.fixture(scope="module")
def engine():
    with KorchEngine(KorchConfig(gpu="V100")) as eng:
        yield eng


@pytest.fixture(scope="module")
def small_result(engine):
    return engine.optimize(small_graph())


# ------------------------------------------------------------- trimmed mean
class TestTrimmedMean:
    def test_plain_mean_when_nothing_trimmed(self):
        assert trimmed_mean([1.0, 2.0, 3.0], trim=0.0) == pytest.approx(2.0)

    def test_drops_extremes(self):
        # 20% of 5 samples = 1 dropped at each end.
        assert trimmed_mean([100.0, 1.0, 2.0, 3.0, 0.0], trim=0.2) == pytest.approx(2.0)

    def test_single_sample(self):
        assert trimmed_mean([7.0]) == 7.0

    def test_heavy_trim_keeps_median(self):
        assert trimmed_mean([1.0, 2.0, 9.0], trim=0.5) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            trimmed_mean([])


# ---------------------------------------------------------------- libraries
class TestKernelLibrary:
    def test_numpy_library_runs_primitive_chain(self, attention_graph, attention_pg):
        """Demand-driven dispatch resolves the intra-kernel dataflow."""
        lib = NumpyKernelLibrary()
        pg = attention_pg
        # One kernel spanning the whole primitive graph.
        out = lib.run_kernel(list(pg.nodes), source_values(pg), list(pg.outputs))
        expected = ReferenceExecutor(attention_graph).run()
        for name in pg.outputs:
            np.testing.assert_allclose(out[name], expected[name], atol=1e-5)

    def test_kernel_subset_from_external_inputs(self, attention_pg):
        lib = NumpyKernelLibrary()
        pg = attention_pg
        exp_node = next(n for n in pg.nodes if n.prim.op == "Exp")
        sum_node = next(n for n in pg.nodes if n.prim.op == "Sum")
        every = [node.output for node in pg.nodes]
        full = lib.run_kernel(list(pg.nodes), source_values(pg), every)
        inputs = {exp_node.inputs[0]: full[exp_node.inputs[0]]}
        outputs = lib.run_kernel([exp_node, sum_node], inputs, [sum_node.output])
        np.testing.assert_array_equal(outputs[sum_node.output], full[sum_node.output])

    def test_missing_tensor_raises_key_error(self, attention_pg):
        lib = NumpyKernelLibrary()
        exp_node = next(n for n in attention_pg.nodes if n.prim.op == "Exp")
        for node in (attention_pg.nodes[-1], exp_node):
            with pytest.raises(KeyError):
                lib.run_kernel([node], {}, [node.output])

    def test_intermediates_freed_on_return(self):
        """No reference cycle keeps a kernel's intermediates alive: with the
        cycle collector off, they die as soon as ``run_kernel`` returns."""
        b = GraphBuilder("leak")
        x = b.input("x", (4, 8))
        b.output(b.exp(b.relu(x)))
        pg, _ = FissionEngine().run(b.build())
        produced: dict[str, weakref.ref] = {}

        class Recording(NumpyKernelLibrary):
            def compute_node(self, node, inputs):
                value = super().compute_node(node, inputs)
                produced[node.output] = weakref.ref(value)
                return value

        enabled = gc.isenabled()
        gc.disable()
        try:
            out = Recording().run_kernel(pg.nodes, source_values(pg), pg.outputs)
            intermediates = [name for name in produced if name not in pg.outputs]
            assert intermediates
            for name in intermediates:
                assert produced[name]() is None, f"intermediate {name} outlived its kernel"
            assert all(produced[name]() is not None for name in pg.outputs)
            del out
        finally:
            if enabled:
                gc.enable()

    def test_synthesize_tensor_deterministic(self):
        t = TensorType((3, 4))
        a = synthesize_tensor("weight", t)
        b = synthesize_tensor("weight", t)
        np.testing.assert_array_equal(a, b)
        assert synthesize_tensor("other", t).shape == (3, 4)
        assert (synthesize_tensor("bn_running_var", t) > 0).all()

    def test_registry(self):
        table = available_libraries()
        assert table["numpy"] is True
        assert isinstance(get_library("numpy"), NumpyKernelLibrary)
        with pytest.raises(KeyError):
            get_library("tvm")
        lib = NumpyKernelLibrary()
        assert resolve_library(lib) is lib
        assert isinstance(resolve_library(None), NumpyKernelLibrary)
        assert isinstance(resolve_library("numpy"), NumpyKernelLibrary)

    def test_torch_library_gated(self):
        from repro.runtime.library import TorchKernelLibrary

        if not torch_available():
            with pytest.raises(RuntimeError):
                TorchKernelLibrary()
            return
        lib = TorchKernelLibrary()  # pragma: no cover - torch environments
        value = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert np.array_equal(lib.from_device(lib.to_device(value)), value)


# ----------------------------------------------------------------- executor
class TestPlanExecutor:
    def test_outputs_match_whole_graph_kernel(self, small_result):
        """Kernel-by-kernel execution is bit-identical to running each
        partition's primitive graph as one kernel."""
        report = PlanExecutor(small_result).run()
        lib = NumpyKernelLibrary()
        plain: dict = {}
        for part in small_result.executable.parts:
            pg = part.pg
            plain.update(lib.run_kernel(pg.nodes, source_values(pg, plain), pg.outputs))
        assert set(report.outputs) >= set(small_result.graph.outputs)
        for name in small_result.graph.outputs:
            np.testing.assert_array_equal(report.outputs[name], plain[name])

    def test_verify_against_reference(self, small_result):
        result = PlanExecutor(small_result).verify()
        assert result.equivalent, f"max abs error {result.max_abs_error:.3e}"

    def test_per_kernel_records_and_hook(self, small_result):
        seen = []
        report = PlanExecutor(small_result, on_kernel=seen.append).run()
        assert report.num_kernels == len(seen) == len(report.kernels)
        assert report.num_kernels == small_result.num_kernels
        for execution in report.kernels:
            assert execution.wall_s >= 0.0
            assert execution.predicted_s > 0.0
            assert execution.backend
            assert execution.output_bytes > 0

    def test_lifetime_accounting(self, small_result):
        freeing = PlanExecutor(small_result).run()
        keeping = PlanExecutor(small_result).run(keep_intermediates=True)
        # Keeping every intermediate can only raise the peak, and the
        # freeing run must actually release the dead intermediates.
        assert keeping.freed_bytes == 0
        assert freeing.peak_live_bytes <= keeping.peak_live_bytes
        if small_result.num_kernels > 1:
            assert freeing.freed_bytes > 0

    def test_feeds_flow_through(self, small_result):
        rng = np.random.default_rng(7)
        feeds = {"x": rng.standard_normal((2, 4, 8)).astype(np.float32)}
        report = PlanExecutor(small_result).run(feeds=feeds)
        verification = PlanExecutor(small_result).verify(feeds=feeds)
        assert verification.equivalent
        assert set(small_result.graph.outputs) <= set(report.outputs)

    @pytest.mark.parametrize("name", CASE_BLOCKS)
    def test_case_blocks_equivalent(self, engine, name):
        result = engine.optimize(_model_builders()[name]())
        verification = PlanExecutor(result).verify()
        assert verification.equivalent, (
            f"{name}: executed plan diverges, max abs error "
            f"{verification.max_abs_error:.3e}"
        )

    @pytest.mark.parametrize("name", CASE_BLOCKS)
    def test_case_blocks_tensors_match_declared_types(self, engine, name):
        result = engine.optimize(_model_builders()[name]())
        report = PlanExecutor(result).run(keep_intermediates=True)
        for part in result.executable.parts:
            pg = part.pg
            produced = [t for launch in part.launches for t in launch.outputs]
            assert set(produced) <= set(report.outputs)
            for tensor in produced:
                declared = pg.tensor_type(tensor)
                value = report.outputs[tensor]
                assert value.dtype == declared.dtype.to_numpy(), (name, tensor, value.dtype)
                assert value.shape == tuple(declared.shape), (name, tensor, value.shape)

    def test_verify_rejects_undeclared_dtype(self, small_result):
        class Widening(NumpyKernelLibrary):
            name = "widening"

            def compute_node(self, node, inputs):
                return np.asarray(super().compute_node(node, inputs), dtype=np.float64)

        verification = PlanExecutor(small_result, library=Widening()).verify()
        assert not verification.equivalent

    def test_unexecutable_plan_raises(self, small_result):
        part = small_result.executable.parts[0]
        bad_launch = KernelLaunch(
            index=0,
            node_names=part.launches[0].node_names,
            inputs=("tensor_from_nowhere",),
            outputs=part.launches[0].outputs,
            backend="cublas",
            latency_s=1e-6,
        )
        bad = Executable(pg=part.pg, launches=[bad_launch])
        executor = PlanExecutor.for_executable(small_result.graph, bad)
        with pytest.raises(RuntimeError, match="no executable order"):
            executor.run()


# ------------------------------------------------------------- ExecuteStage
class TestExecuteStage:
    def test_runs_and_verifies(self, small_result):
        class Ctx:
            pass

        from repro.partition import GraphPartitioner

        ctx = Ctx()
        ctx.partition = GraphPartitioner().partition(small_result.graph)[0]
        ctx.executable = small_result.executable.parts[0]
        stage = ExecuteStage()
        assert stage.name == "execute"
        stage.run(ctx)
        assert ctx.execution.verification.equivalent
        assert ctx.execution.num_kernels >= 1

    def test_not_in_default_stages(self):
        from repro.engine.stages import DEFAULT_STAGES

        assert not any(isinstance(stage, ExecuteStage) for stage in DEFAULT_STAGES)

    def test_divergence_raises(self, small_result, monkeypatch):
        from repro.partition import GraphPartitioner

        class Ctx:
            pass

        ctx = Ctx()
        ctx.partition = GraphPartitioner().partition(small_result.graph)[0]
        ctx.executable = small_result.executable.parts[0]

        class LyingLibrary(NumpyKernelLibrary):
            name = "lying"

            def compute_node(self, node, inputs):
                return super().compute_node(node, inputs) + 1.0

        with pytest.raises(ExecutionVerificationError):
            ExecuteStage(library=LyingLibrary()).run(ctx)


# ------------------------------------------------------------ engine.execute
class TestEngineExecute:
    def test_execute_with_metrics(self, engine, small_result):
        report = engine.execute(small_result, verify=True)
        assert report.verification.equivalent
        export = engine.metrics.as_dict()
        assert any("korch_runtime_kernel_seconds" in name for name in export)
        assert any("korch_runtime_executions_total" in name for name in export)
        assert any("korch_runtime_verifications_total" in name for name in export)

    def test_execute_measure_attaches_backend(self, engine, small_result):
        report = engine.execute(small_result, measure=True, warmup=0, repeats=2)
        assert report.measurement is not None
        assert len(report.measurement.kernels) == report.num_kernels
        assert report.measured_backend.num_measurements >= 1
        for kernel in report.measurement.kernels:
            assert kernel.measured_s > 0.0
            assert kernel.repeats == 2

    def test_measure_rejects_zero_repeats(self, small_result):
        with pytest.raises(ValueError):
            PlanExecutor(small_result).measure(repeats=0)


# -------------------------------------------------------- measured profiling
class TestMeasuredBackend:
    def test_model_version_never_collides_with_analytic(self):
        measured = backend_fingerprint([MeasuredBackend()])
        analytic = backend_fingerprint(default_korch_backends(True))
        assert MEASURED_MODEL_VERSION == MeasuredBackend.MODEL_VERSION
        assert not set(measured) & set(analytic)

    def test_cache_round_trip(self, engine, small_result):
        measurement = PlanExecutor(small_result).measure(warmup=0, repeats=2)
        backend = MeasuredBackend()
        assert backend.ingest(measurement) == len(measurement.kernels)

        store = engine.store
        measured_cache = PersistentProfileCache(store, engine.spec, [backend])
        written = backend.write_profiles(measured_cache)
        assert written == backend.num_measurements

        # A fresh cache context over the same store and the same backend
        # answers every measured signature; the analytic context keys the
        # same signatures differently, so the measured writes can never
        # shadow (or be shadowed by) the analytic entries the optimization
        # already stored for these exact kernels.
        fresh = PersistentProfileCache(store, engine.spec, [MeasuredBackend()])
        analytic = PersistentProfileCache(store, engine.spec, default_korch_backends())
        for kernel in measurement.kernels:
            assert fresh.key(kernel.signature) != analytic.key(kernel.signature)
            hit, profile, tuned = fresh.get(kernel.signature)
            assert hit and tuned
            assert profile.backend == "measured"
            assert profile.latency_s == pytest.approx(kernel.measured_s)
            analytic_hit, analytic_profile, _ = analytic.get(kernel.signature)
            if analytic_hit:  # the analytic entry survived untouched
                assert analytic_profile.backend != "measured"

    def test_estimate_answers_from_table_then_fallback(self, small_result):
        measurement = PlanExecutor(small_result).measure(warmup=0, repeats=1)
        kernel = measurement.kernels[0]
        backend = MeasuredBackend(fallback=default_korch_backends())
        spec = KorchConfig(gpu="V100").resolve_gpu()

        missing = backend_estimate = backend.estimate(kernel.features, spec)
        assert missing is not None  # fallback answers before any recording
        backend.record(kernel.signature, kernel.features, 0.123)
        assert backend.supports(kernel.features)
        hit = backend.estimate(kernel.features, spec)
        assert hit.latency_s == pytest.approx(0.123)
        assert hit.latency_s != backend_estimate.latency_s
        assert backend.tuning_time_s(kernel.features) == 0.0

    def test_without_fallback_rejects_unmeasured(self, small_result):
        measurement = PlanExecutor(small_result).measure(warmup=0, repeats=1)
        kernel = measurement.kernels[0]
        backend = MeasuredBackend()
        spec = KorchConfig(gpu="V100").resolve_gpu()
        assert not backend.supports(kernel.features)
        assert backend.estimate(kernel.features, spec) is None

    def test_features_key_is_stable_and_hashable(self, small_result):
        measurement = PlanExecutor(small_result).measure(warmup=0, repeats=1)
        for kernel in measurement.kernels:
            key = features_key(kernel.features)
            assert hash(key) == hash(features_key(kernel.features))


# ------------------------------------------------------------------ re-rank
class TestMeasuredReranking:
    def test_injected_timings_change_plan(self):
        """Huge injected latencies on the analytic winners flip the solve."""
        graph = small_graph("rerank_small")
        with KorchEngine(KorchConfig(gpu="V100")) as analytic_engine:
            analytic_result = analytic_engine.optimize(graph)
            measurement = PlanExecutor(analytic_result).measure(warmup=0, repeats=1)

        backend = MeasuredBackend(fallback=default_korch_backends())
        for kernel in measurement.kernels:
            # The analytic plan's kernels become prohibitively slow; every
            # alternative still prices analytically through the fallback.
            backend.record(kernel.signature, kernel.features, 10.0)

        with KorchEngine(KorchConfig(gpu="V100"), backends=[backend]) as engine:
            reranked = engine.optimize(graph)

        def plan_shape(result):
            return sorted(
                tuple(launch.node_names)
                for part in result.executable.parts
                for launch in part.launches
            )

        assert plan_shape(reranked) != plan_shape(analytic_result)

    def test_measured_engine_answers_from_persistent_profiles(self, tmp_path):
        """The full loop: measure → persist → a measured-backend engine
        re-solves with profile lookups served by the persisted entries."""
        graph = small_graph("persist_small")
        cache_dir = tmp_path / "cache"
        with KorchEngine(KorchConfig(gpu="V100", cache_dir=str(cache_dir))) as eng:
            result = eng.optimize(graph)
            report = eng.execute(result, measure=True, warmup=0, repeats=1)
            assert report.measured_backend.num_measurements >= 1

        # Same store, measured fingerprint: the profiler consults the
        # persistent cache before calling estimate, so the measured entries
        # are authoritative for the kernels the plan executed.
        backend = MeasuredBackend(fallback=default_korch_backends())
        with KorchEngine(
            KorchConfig(gpu="V100", cache_dir=str(cache_dir)), backends=[backend]
        ) as eng:
            cache = PersistentProfileCache(eng.store, eng.spec, [backend])
            for kernel in report.measurement.kernels:
                hit, profile, _ = cache.get(kernel.signature)
                assert hit
                assert profile.backend == "measured"
            reranked = eng.optimize(graph)
        assert reranked.num_kernels >= 1
