"""Partitioner, runtime executables, verification and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.fission import FissionEngine
from repro.gpu import V100
from repro.ir import GraphBuilder
from repro.orchestration import KernelOrchestrationOptimizer
from repro.partition import GraphPartitioner, PartitionConfig, partition_graph
from repro.pipeline import KorchConfig, KorchPipeline, optimize_model
from repro.runtime import (
    Executable,
    PlanExecutor,
    ReferenceExecutor,
    verify_primitive_graph,
)
from repro.transforms import PrimitiveGraphOptimizer


def _deep_graph(depth: int = 24):
    b = GraphBuilder("deep")
    x = b.input("x", (1, 8, 16, 16))
    y = x
    for index in range(depth):
        if index % 4 == 0:
            y = b.conv2d(y, 8, 3, name=f"conv{index}")
        elif index % 4 == 1:
            y = b.relu(y)
        elif index % 4 == 2:
            y = b.sigmoid(y)
        else:
            y = b.add(y, x) if b.shape(y) == b.shape(x) else b.exp(y)
    b.output(y)
    return b.build()


class TestPartitioner:
    def test_partitions_cover_and_respect_limits(self):
        graph = _deep_graph()
        config = PartitionConfig(max_operators=6, hard_limit=8)
        partitions = GraphPartitioner(config).partition(graph)
        names = [name for p in partitions for name in p.node_names]
        assert sorted(names) == sorted(n.name for n in graph.nodes)
        assert all(p.num_operators <= config.hard_limit for p in partitions)
        assert len(partitions) >= graph.num_nodes // config.hard_limit

    def test_partition_graphs_are_valid(self):
        graph = _deep_graph()
        for partition in partition_graph(graph, max_operators=6):
            partition.graph.topological_order()
            assert partition.boundary_outputs

    def test_concatenated_execution_matches_reference(self):
        graph = _deep_graph(12)
        reference = ReferenceExecutor(graph).run()
        memory = {}
        for partition in partition_graph(graph, max_operators=5):
            outputs = ReferenceExecutor(partition.graph).run(memory)
            memory.update(outputs)
        for name, expected in reference.items():
            np.testing.assert_allclose(memory[name], expected, atol=1e-4)

    def test_small_graph_single_partition(self, attention_graph):
        partitions = partition_graph(attention_graph, max_operators=10)
        assert len(partitions) == 1


class TestTransforms:
    def test_simplify_and_matmul_transforms_preserve_semantics(self, attention_graph, v100):
        pg, _ = FissionEngine().run(attention_graph)
        optimized, report = PrimitiveGraphOptimizer(v100).optimize(pg)
        optimized.validate()
        assert report.final_cost_s <= report.initial_cost_s + 1e-12
        result = verify_primitive_graph(attention_graph, optimized)
        assert result.equivalent, result.per_output_error

    def test_reduce_to_matmul_applied_on_softmax_matmul(self, attention_graph, v100):
        """Figure 2b: the softmax reduction can be turned into a MatMul."""
        from repro.transforms import ReduceSumToMatMul

        pg, _ = FissionEngine().run(attention_graph)
        sites = ReduceSumToMatMul().find_sites(pg)
        assert sites
        rewritten = ReduceSumToMatMul().apply(pg, sites[0])
        assert sum(1 for n in rewritten.nodes if n.is_linear) == sum(
            1 for n in pg.nodes if n.is_linear
        ) + 1
        assert verify_primitive_graph(attention_graph, rewritten).equivalent

    def test_identity_elimination(self, v100):
        from repro.transforms import IdentityElimination

        b = GraphBuilder("idg")
        x = b.input("x", (4, 4))
        y = b.op("Identity", b.relu(x))
        b.output(b.exp(y))
        graph = b.build()
        pg, _ = FissionEngine().run(graph)
        transform = IdentityElimination()
        sites = transform.find_sites(pg)
        assert sites
        rewritten = transform.apply(pg, sites[0])
        assert len(rewritten.nodes) == len(pg.nodes) - 1
        assert verify_primitive_graph(graph, rewritten).equivalent


class TestRuntime:
    def test_executable_matches_reference(self, attention_graph, v100):
        pg, _ = FissionEngine().run(attention_graph)
        strategy = KernelOrchestrationOptimizer(v100).optimize(pg).strategy
        executable = Executable.from_strategy(strategy)
        assert executable.num_kernels == strategy.num_kernels
        assert executable.predicted_latency_s == pytest.approx(strategy.total_latency_s)
        executor = PlanExecutor.for_executable(attention_graph, executable)
        result = executor.verify()
        assert result.equivalent, result.per_output_error
        assert executor.run().peak_live_bytes > 0

    def test_executable_with_feeds(self, candy_block_graph, v100):
        pg, _ = FissionEngine().run(candy_block_graph)
        strategy = KernelOrchestrationOptimizer(v100).optimize(pg).strategy
        executable = Executable.from_strategy(strategy)
        feeds = {"x": np.random.default_rng(0).normal(size=(1, 8, 16, 16)).astype(np.float32)}
        reference = ReferenceExecutor(candy_block_graph).run(feeds)
        outputs = PlanExecutor.for_executable(candy_block_graph, executable).run(feeds).outputs
        for name, expected in reference.items():
            np.testing.assert_allclose(outputs[name], expected, atol=1e-4)

    def test_verification_detects_mismatch(self, candy_block_graph):
        b = GraphBuilder("other")
        x = b.input("x", (1, 8, 16, 16))
        b.output(b.relu(x))
        wrong_pg, _ = FissionEngine().run(b.build())
        # Compare candy block against an unrelated primitive graph: outputs differ.
        result = verify_primitive_graph(candy_block_graph, wrong_pg)
        assert not result.equivalent


class TestPipeline:
    def test_end_to_end_small_model(self, v100):
        graph = _deep_graph(16)
        config = KorchConfig(gpu="V100", partition=PartitionConfig(max_operators=6))
        result = KorchPipeline(config).optimize(graph)
        assert result.latency_ms > 0
        assert result.num_kernels <= result.num_primitives
        assert len(result.partitions) >= 2
        verification = PlanExecutor(result).verify()
        assert verification.equivalent, verification.per_output_error
        summary = result.summary()
        assert summary["model"] == "deep" and summary["gpu"] == "V100"

    def test_pipeline_beats_unfused_baseline(self, v100):
        from repro.baselines import UnfusedBaseline

        graph = _deep_graph(16)
        result = optimize_model(graph, gpu="V100")
        unfused = UnfusedBaseline(v100).run(graph)
        assert result.latency_s < unfused.total_latency_s

    def test_graph_optimizer_toggle(self, attention_graph):
        fast = optimize_model(attention_graph, gpu="V100", enable_graph_optimizer=False)
        optimized = optimize_model(attention_graph, gpu="V100", enable_graph_optimizer=True)
        assert optimized.latency_s <= fast.latency_s * 1.05

    def test_a100_faster_than_v100(self, attention_graph):
        v100_result = optimize_model(attention_graph, gpu="V100")
        a100_result = optimize_model(attention_graph, gpu="A100")
        assert a100_result.latency_s < v100_result.latency_s

    def test_tuning_report_populated(self, candy_block_graph):
        result = optimize_model(candy_block_graph, gpu="V100")
        assert result.tuning.num_candidates > 0
        assert result.tuning.total_seconds > 0


class TestAnalysis:
    def test_model_stats_and_tables(self, candy_block_graph):
        from repro.analysis import ComparisonRow, ModelStats, comparison_table, format_table

        result = optimize_model(candy_block_graph, gpu="V100")
        stats = ModelStats.from_result(result)
        assert stats.num_candidate_kernels >= stats.num_selected_kernels
        row = ComparisonRow("candy_block", "V100", {"Korch": 1.0, "TensorRT": 1.4})
        assert row.speedup_of("Korch", "TensorRT") == pytest.approx(1.4)
        table = comparison_table([row])
        assert table[0]["TensorRT"] == pytest.approx(1.4)
        text = format_table([stats.as_row()])
        assert "candidate" in text
