"""Engine executor modes and partition-plan reuse across models.

The contracts: every executor mode ("serial", "thread", "process") returns
bit-identical strategies for the same graph, and a partition equal to one
solved before reuses its plan from the partition plan cache (counted in
``EngineStats.identify_memo_hits``) without changing any result.
"""

from __future__ import annotations

import pytest

from repro.engine import KorchConfig, KorchEngine, KorchEngineConfig
from repro.ir import GraphBuilder


def attention_model(name: str, heads: int = 4):
    b = GraphBuilder(name)
    x = b.input("x", (1, heads, 32, 16))
    w = b.param("w", (1, heads, 16, 32))
    v = b.param("v", (1, heads, 32, 16))
    b.output(b.matmul(b.softmax(b.matmul(x, w), axis=-1), v))
    return b.build()


def strategy_fingerprint(result):
    return [
        [
            (sorted(k.node_names), list(k.external_inputs), list(k.outputs),
             k.latency_s, k.backend)
            for k in part.orchestration.strategy.kernels
        ]
        for part in result.partitions
    ]


class TestExecutorModes:
    def reference(self):
        with KorchEngine(KorchConfig(gpu="V100")) as engine:
            return engine.optimize(attention_model("modes"))

    def test_serial_mode_matches_thread_mode(self):
        reference = self.reference()
        config = KorchConfig(gpu="V100", engine=KorchEngineConfig(executor="serial"))
        with KorchEngine(config) as engine:
            result = engine.optimize(attention_model("modes"))
        assert strategy_fingerprint(result) == strategy_fingerprint(reference)
        assert result.latency_s == reference.latency_s

    def test_process_mode_bit_identical_to_thread_mode(self):
        """The acid test of the process executor: shipping the prologue to a
        worker process changes wall-clock, never results."""
        reference = self.reference()
        config = KorchConfig(
            gpu="V100",
            num_workers=2,
            engine=KorchEngineConfig(executor="process", process_workers=1),
        )
        with KorchEngine(config) as engine:
            engine.warm_up()
            result = engine.optimize(attention_model("modes"))
            summary = result.summary()
        assert strategy_fingerprint(result) == strategy_fingerprint(reference)
        assert result.latency_s == reference.latency_s
        # The worker's prologue timings made it back into the summary.
        assert summary["stage_fission_s"] >= 0.0
        assert summary["stage_identify_s"] > 0.0

    def test_process_mode_replays_plans_from_memory_tier(self):
        config = KorchConfig(
            gpu="V100",
            engine=KorchEngineConfig(executor="process", process_workers=1),
        )
        with KorchEngine(config) as engine:
            first = engine.optimize(attention_model("replayed"))
            second = engine.optimize(attention_model("replayed"))
        assert second.cache.plan_cache == "memory-hit"
        assert second.latency_s == first.latency_s

    def test_process_mode_replays_stored_plans_from_disk(self, tmp_path):
        """With a stored plan, the worker skips enumeration and the parent
        replays — the warm path must stay warm in process mode."""
        from repro.engine import registry

        def config():
            return KorchConfig(
                gpu="V100",
                cache_dir=tmp_path,
                engine=KorchEngineConfig(executor="process", process_workers=1),
            )

        with KorchEngine(config()) as engine:
            cold = engine.optimize(attention_model("disk_replay"))
        registry.close_store(tmp_path)  # simulate a fresh serving process
        with KorchEngine(config()) as engine:
            warm = engine.optimize(attention_model("disk_replay"))
        assert warm.cache.plan_cache == "disk-hit"
        assert warm.cache.partitions_replayed == len(warm.partitions)
        assert warm.latency_s == cold.latency_s
        assert strategy_fingerprint(warm) == strategy_fingerprint(cold)

    def test_process_mode_preserves_tuning_accounting_across_models(self):
        """Regression: replaying worker cache writes used to demote
        tuned=True entries, re-charging tuning time on the next model."""
        def run(executor):
            config = KorchConfig(
                gpu="V100",
                engine=KorchEngineConfig(executor=executor, process_workers=1),
            )
            with KorchEngine(config) as engine:
                engine.optimize(attention_model("tuning_a"))
                second = engine.optimize(attention_model("tuning_b"))
            return second

        thread_second = run("thread")
        process_second = run("process")
        assert process_second.tuning.total_seconds == thread_second.tuning.total_seconds
        assert process_second.tuning.num_candidates == thread_second.tuning.num_candidates
        assert strategy_fingerprint(process_second) == strategy_fingerprint(thread_second)

    def test_process_mode_honors_overridden_stages(self):
        """Regression: a subclass's extra pre-identify stage must still run
        in process mode (the engine falls back to parent-side prologues
        instead of silently skipping the custom stage)."""
        from repro.engine import DEFAULT_STAGES, Stage

        calls: list[str] = []

        class MarkerStage(Stage):
            name = "marker"

            def run(self, ctx):
                calls.append(ctx.partition.graph.name)
                return ctx

        class CustomEngine(KorchEngine):
            def stages(self):
                return (MarkerStage(), *DEFAULT_STAGES)

        config = KorchConfig(
            gpu="V100",
            engine=KorchEngineConfig(executor="process", process_workers=1),
        )
        reference = self.reference()
        with CustomEngine(config) as engine:
            result = engine.optimize(attention_model("modes"))
        assert calls, "custom stage was skipped in process mode"
        assert strategy_fingerprint(result) == strategy_fingerprint(reference)

    def test_invalid_executor_kind_rejected(self):
        config = KorchConfig(gpu="V100", engine=KorchEngineConfig(executor="quantum"))
        with pytest.raises(ValueError, match="executor"):
            KorchEngine(config)


class TestPartitionPlanReuse:
    def test_twin_models_reuse_partition_plans(self):
        """A renamed twin is a new model (no model-plan hit) whose every
        partition equals one of the first twin's."""
        with KorchEngine(KorchConfig(gpu="V100")) as engine:
            first = engine.optimize(attention_model("twin_a"))
            second = engine.optimize(attention_model("twin_b"))
            hits = engine.stats.identify_memo_hits
            assert hits == len(second.partitions) > 0
            assert engine.stats.as_dict()["identify_memo_hits"] == hits
        assert first.cache.partitions_reused == 0
        assert second.cache.partitions_reused == len(second.partitions)
        assert second.cache.plan_cache == "miss"
        assert second.cache.partitions_replayed == 0
        assert strategy_fingerprint(second) == strategy_fingerprint(first)
        assert second.latency_s == first.latency_s

    def test_reuse_off_without_plan_cache(self):
        config = KorchConfig(gpu="V100", enable_plan_cache=False)
        with KorchEngine(config) as engine:
            engine.optimize(attention_model("twin_a"))
            second = engine.optimize(attention_model("twin_b"))
            assert engine.stats.identify_memo_hits == 0
        assert second.cache.partitions_reused == 0
