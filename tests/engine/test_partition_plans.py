"""The partition plan cache: a name-free key and reuse of equal partitions.

Contracts: the key ignores every node and tensor name but sees everything a
plan depends on; a partition whose key was solved before reuses that plan
with results bit-identical to solving it again; a bad stored plan falls back
to a cold solve.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import default_korch_backends
from repro.cache import PartitionPlan, backend_fingerprint, partition_plan_key
from repro.engine import KorchConfig, KorchEngine, KorchEngineConfig, registry
from repro.fission import FissionEngine
from repro.gpu import get_gpu
from repro.ir import DataType, GraphBuilder
from repro.orchestration import KernelIdentifierConfig
from repro.partition import PartitionConfig
from repro.primitives.graph import PrimitiveGraph

PARTITION_PLANS = "partition-plans"


def attention_model(name="attention", shape=(1, 4, 32, 16), axis=-1, dtype=None):
    b = GraphBuilder(name)
    x = b.input("x", shape, dtype)
    w = b.param("w", (shape[0], shape[1], shape[3], shape[2]), dtype)
    b.output(b.matmul(b.softmax(b.matmul(x, w), axis=axis), x))
    return b.build()


def repeated_blocks(name="blocks", blocks=8):
    """Equal attention-style blocks; one partition each under BLOCK_PARTITIONS."""
    b = GraphBuilder(name)
    y = b.input("x", (1, 4, 32, 16))
    for i in range(blocks):
        w = b.param(f"w{i}", (1, 4, 16, 16))
        y = b.relu(b.add(b.softmax(b.matmul(y, w), axis=-1), y))
    b.output(y)
    return b.build()


BLOCK_PARTITIONS = PartitionConfig(max_operators=4, hard_limit=4, lookback_window=0)


def primitive_graph(graph):
    return FissionEngine().run(graph)[0]


def renamed(pg: PrimitiveGraph, prefix: str) -> PrimitiveGraph:
    """``pg`` with every node and tensor name prefixed."""
    out = PrimitiveGraph(prefix + pg.name)
    for name, ttype in pg.tensors.items():
        if name in pg.constants:
            out.add_constant(prefix + name, pg.constants[name])
        elif name in pg.params:
            out.add_param(prefix + name, ttype)
        elif name in pg.inputs:
            out.add_input(prefix + name, ttype)
    for node in pg.nodes:
        out.add_node(
            node.prim,
            [prefix + t for t in node.inputs],
            output=prefix + node.output,
            name=prefix + node.name,
        )
    for name in pg.outputs:
        out.add_output(prefix + name)
    return out


def key_of(pg, config=None, gpu="V100"):
    config = config or KorchConfig()
    return partition_plan_key(
        pg,
        get_gpu(gpu),
        backend_fingerprint(default_korch_backends()),
        config.fingerprint(),
    )


def strategy_fingerprint(result):
    return [
        [
            (sorted(k.node_names), list(k.external_inputs), list(k.outputs),
             k.latency_s, k.backend)
            for k in part.orchestration.strategy.kernels
        ]
        for part in result.partitions
    ]


def tuning_totals(report):
    """Tuning statistics that do not depend on partition timing.

    Concurrent partitions split repeated kernels between
    ``num_deduplicated`` and ``num_cache_hits`` depending on which one
    profiled first; their sum, and everything else, is fixed.
    """
    return (
        report.num_candidates,
        report.num_profiled,
        report.num_vendor_candidates,
        report.num_deduplicated + report.num_cache_hits,
        report.total_seconds,
        report.per_backend_seconds,
    )


class TestPartitionPlanKey:
    def test_invariant_when_every_name_changes(self):
        pg = primitive_graph(attention_model())
        other = renamed(pg, "other_")
        assert {n.name for n in pg.nodes}.isdisjoint(n.name for n in other.nodes)
        assert set(pg.tensors).isdisjoint(other.tensors)
        assert key_of(other).digest == key_of(pg).digest

    @pytest.mark.parametrize(
        "variant",
        [
            dict(graph=attention_model(shape=(1, 4, 32, 8))),
            dict(graph=attention_model(dtype=DataType.FLOAT16)),
            dict(graph=attention_model(axis=-2)),
            dict(config=KorchConfig(identifier=KernelIdentifierConfig(max_kernel_size=3))),
            dict(gpu="A100"),
        ],
        ids=["shape", "dtype", "primitive-attribute", "identifier-config", "gpu"],
    )
    def test_changes_with_what_the_plan_depends_on(self, variant):
        base = key_of(primitive_graph(attention_model()))
        graph = variant.get("graph", attention_model())
        changed = key_of(primitive_graph(graph), variant.get("config"), variant.get("gpu", "V100"))
        assert changed.digest != base.digest

    def test_solver_core_shares_keys(self):
        """``solver_core`` is a speed knob: it resolves into the solver
        config but stays out of the fingerprint every plan key embeds."""
        reference = KorchConfig(solver_core="reference")
        assert reference.solver_config().core == "reference"
        assert reference.fingerprint() == KorchConfig().fingerprint()

    def test_positional_names_round_trip(self):
        with KorchEngine(KorchConfig(gpu="V100")) as engine:
            result = engine.optimize(attention_model())
        orchestration = result.partitions[0].orchestration
        pg = orchestration.strategy.pg  # keyed after graph optimization
        key = key_of(pg)
        plan = PartitionPlan.of(orchestration)
        positional = key.to_positional(plan)
        names = {n for k in positional.kernels for n in k.node_names + k.outputs}
        assert names and all(n[0] in "nt" and n[1:].isdigit() for n in names)
        assert key.from_positional(positional) == plan
        other = key_of(renamed(pg, "r_"))
        assert other.from_positional(positional).kernels[0].node_names == [
            "r_" + n for n in plan.kernels[0].node_names
        ]


class TestPartitionPlanReuse:
    def run(self, graph, **options):
        config = KorchConfig(gpu="V100", partition=BLOCK_PARTITIONS, **options)
        with KorchEngine(config) as engine:
            return engine.optimize(graph), engine.stats

    def test_repeated_blocks_identical_with_and_without_reuse(self):
        reused, stats = self.run(repeated_blocks())
        assert len(reused.partitions) == 8
        assert reused.cache.partitions_reused == stats.identify_memo_hits == 7
        assert reused.summary()["partitions_reused"] == 7
        cold, _ = self.run(repeated_blocks(), enable_plan_cache=False)
        parallel, _ = self.run(repeated_blocks(), num_workers=4)
        assert cold.cache.partitions_reused == 0
        assert cold.tuning == reused.tuning  # serial: even the hit split agrees
        for other in (cold, parallel):
            assert strategy_fingerprint(other) == strategy_fingerprint(reused)
            assert other.latency_s == reused.latency_s
            assert other.num_candidate_kernels == reused.num_candidate_kernels
            assert tuning_totals(other.tuning) == tuning_totals(reused.tuning)

    def test_process_executor_reuses_after_the_worker_prologue(self):
        reference, _ = self.run(repeated_blocks(blocks=3), enable_plan_cache=False)
        result, stats = self.run(
            repeated_blocks(blocks=3),
            engine=KorchEngineConfig(executor="process", process_workers=1),
        )
        assert stats.identify_memo_hits == result.cache.partitions_reused == 2
        assert strategy_fingerprint(result) == strategy_fingerprint(reference)

    def test_cold_run_with_hits_is_not_a_replay(self, tmp_path):
        """Reused partitions leave the cold-run accounting alone: the model
        plan is stored with the cold tuning report, which a restarted
        process reports again on its disk hit."""
        cold, _ = self.run(repeated_blocks(blocks=4), cache_dir=tmp_path)
        assert cold.cache.plan_cache == "miss"
        assert cold.cache.partitions_replayed == 0
        assert cold.cache.partitions_reused == 3
        registry.close_store(tmp_path)  # a fresh serving process
        warm, _ = self.run(repeated_blocks(blocks=4), cache_dir=tmp_path)
        assert warm.cache.plan_cache == "disk-hit"
        assert warm.cache.partitions_reused == 0
        assert warm.tuning == cold.tuning
        assert strategy_fingerprint(warm) == strategy_fingerprint(cold)
        registry.close_store(tmp_path)

    @pytest.mark.parametrize("damage", ["undecodable", "truncated", "unknown-names"])
    def test_bad_stored_partition_plan_falls_back_to_cold(self, damage):
        with KorchEngine(KorchConfig(gpu="V100")) as engine:
            first = engine.optimize(attention_model("twin_a"))
            for key, raw in engine.store.items(PARTITION_PLANS):
                payload = json.loads(raw)
                kernels = payload["plan"]["kernels"]
                if damage == "undecodable":
                    engine.store.put(PARTITION_PLANS, key, "{not json")
                    continue
                if damage == "truncated":
                    payload["plan"]["kernels"] = kernels[1:]
                else:
                    kernels[0]["nodes"] = ["n999"]
                engine.store.put_json(PARTITION_PLANS, key, payload)
            second = engine.optimize(attention_model("twin_b"))
            assert engine.stats.identify_memo_hits == 0
        assert second.cache.partitions_reused == 0
        assert strategy_fingerprint(second) == strategy_fingerprint(first)
