"""Operator fission: rules, engine behaviour, and numerical equivalence."""

import numpy as np
import pytest

from repro.fission import FISSION_RULES, FissionEngine, apply_operator_fission, register_fission_rule
from repro.ir import GraphBuilder
from repro.primitives import PrimitiveCategory
from repro.runtime import NumpyKernelLibrary, ReferenceExecutor, source_values


def _assert_equivalent(graph, tolerance=1e-4):
    """Fission output must match the operator-level reference executor."""
    pg, _ = FissionEngine().run(graph)
    reference = ReferenceExecutor(graph).run()
    candidate = NumpyKernelLibrary().run_kernel(pg.nodes, source_values(pg), pg.outputs)
    for name, expected in reference.items():
        np.testing.assert_allclose(candidate[name], expected, atol=tolerance, rtol=1e-3)
    return pg


class TestFissionRules:
    def test_softmax_rule_structure(self):
        """Figure 3: Softmax -> Exp, ReduceSum, Broadcast, Div."""
        b = GraphBuilder("g")
        x = b.input("x", (2, 8))
        b.output(b.softmax(x, axis=-1))
        pg = apply_operator_fission(b.build())
        ops = [n.prim.op for n in pg.topological_order()]
        assert ops == ["Exp", "Sum", "Broadcast", "Div"]
        assert all(n.source_op for n in pg.nodes)

    def test_instance_norm_rule_structure(self):
        """Figure 12b: Sub, ReduceMean, Mul, ReduceMean, Add, Sqrt, Div (+affine)."""
        b = GraphBuilder("g")
        x = b.input("x", (1, 4, 6, 6))
        b.output(b.instance_norm(x))
        pg = apply_operator_fission(b.build())
        histogram = pg.category_histogram()
        assert histogram["reduce"] == 2
        assert histogram["elementwise"] >= 6

    def test_split_becomes_slices(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 8))
        parts = b.split(x, 2, axis=1)
        b.output(*parts)
        pg = apply_operator_fission(b.build())
        assert all(n.prim.op == "Slice" for n in pg.nodes)
        assert len(pg.nodes) == 2

    def test_conv_keeps_single_linear_primitive(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        b.output(b.conv2d(x, 4, 3))
        pg = apply_operator_fission(b.build())
        assert len(pg.nodes) == 1
        assert pg.nodes[0].category is PrimitiveCategory.LINEAR

    def test_gelu_expansion(self):
        b = GraphBuilder("g")
        x = b.input("x", (4, 4))
        b.output(b.gelu(x))
        pg = apply_operator_fission(b.build())
        assert {n.prim.op for n in pg.nodes} == {"Mul", "Erf", "Add"}

    def test_topk_becomes_opaque(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 10))
        values, indices = b.node("TopK", [x], {"k": 3, "axis": -1}, num_outputs=2)
        b.output(values, indices)
        pg = apply_operator_fission(b.build())
        assert all(n.category is PrimitiveCategory.OPAQUE for n in pg.nodes)
        assert len(pg.nodes) == 2

    def test_every_registered_op_without_rule_errors(self):
        engine = FissionEngine(rules={})
        b = GraphBuilder("g")
        x = b.input("x", (2,))
        b.output(b.relu(x))
        with pytest.raises(KeyError):
            engine.run(b.build())

    def test_duplicate_rule_registration_rejected(self):
        with pytest.raises(ValueError):
            register_fission_rule("Relu", lambda ctx: None)

    def test_rule_coverage_for_registry(self):
        """Every operator used by the model zoo has a fission rule."""
        needed = {
            "Conv", "ConvTranspose", "MatMul", "Gemm", "Add", "Mul", "Relu", "LeakyRelu",
            "Sigmoid", "Silu", "Mish", "HardSwish", "Gelu", "Softmax", "LayerNormalization",
            "InstanceNormalization", "BatchNormalization", "MaxPool", "AveragePool",
            "GlobalAveragePool", "Transpose", "Reshape", "Concat", "Split", "Slice", "Pad",
            "Resize", "ReduceSum", "ReduceMean", "ReduceMax",
        }
        assert needed <= set(FISSION_RULES)


class TestFissionReport:
    def test_report_counts(self, attention_graph):
        pg, report = FissionEngine().run(attention_graph)
        assert report.num_operators == attention_graph.num_nodes
        assert report.num_primitives == len(pg.nodes)
        assert report.expansion_ratio > 1.0
        assert report.expanded_operators["Softmax"] == 4

    def test_source_op_tracking(self, candy_block_pg):
        instance_norm_prims = [n for n in candy_block_pg.nodes if "instance" in n.source_op.lower()]
        assert len(instance_norm_prims) >= 9


class TestFissionEquivalence:
    """Numerical equivalence of fission on representative operator mixes."""

    def test_attention(self, attention_graph):
        _assert_equivalent(attention_graph)

    def test_candy_block(self, candy_block_graph):
        _assert_equivalent(candy_block_graph)

    def test_normalizations(self):
        b = GraphBuilder("norms")
        x = b.input("x", (2, 6, 10))
        y = b.layer_norm(x)
        y = b.gelu(y)
        img = b.input("img", (1, 4, 8, 8))
        z = b.batch_norm(img)
        z = b.hard_swish(z)
        b.output(y, z)
        _assert_equivalent(b.build())

    def test_cnn_block(self):
        b = GraphBuilder("cnn")
        x = b.input("x", (1, 3, 16, 16))
        y = b.conv2d(x, 8, 3, stride=2)
        y = b.batch_norm(y)
        y = b.silu(y)
        y = b.max_pool(y, 2, 2)
        y = b.resize(y, 2.0)
        b.output(y)
        _assert_equivalent(b.build())

    def test_layout_mix(self):
        b = GraphBuilder("layout")
        x = b.input("x", (2, 4, 6))
        a, c = b.split(x, 2, axis=1)
        y = b.concat([b.transpose(a, (0, 2, 1)), b.transpose(c, (0, 2, 1))], axis=2)
        y = b.reshape(y, (2, 24))
        y = b.pad(y, (0, 0, 0, 4))
        y = b.reduce_max(y, axes=(1,), keepdims=True)
        b.output(y)
        _assert_equivalent(b.build())

    def test_mish_silu_chain(self):
        b = GraphBuilder("acts")
        x = b.input("x", (3, 7))
        b.output(b.mish(b.silu(b.leaky_relu(x, 0.2))))
        _assert_equivalent(b.build())

    def test_gemm_with_transposes(self):
        b = GraphBuilder("gemm")
        a = b.input("a", (6, 4))
        w = b.param("w", (8, 6))
        bias = b.param("bias", (8,))
        b.output(b.node("Gemm", [a, w, bias], {"trans_a": True, "trans_b": True})[0])
        _assert_equivalent(b.build())
