"""Operator-level reference executor.

Executes a computation graph directly, operator by operator, with numpy.
This is intentionally *independent* of the fission rules and the plan
executor so it can serve as the ground truth when verifying that operator
fission, primitive-graph transformations and kernel orchestration preserve
the model's semantics.

Weights are never materialized in graphs; :func:`synthesize_tensor`
fabricates deterministic pseudo-random data per tensor name, and
:func:`source_values` is the one place an operator or primitive graph's
sources get their values — so the reference and the plan executor see
identical parameters and their results can be compared exactly.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Mapping

import numpy as np
from scipy import special

from ..ir.graph import Graph, Node
from ..ir.tensor_type import TensorType

__all__ = ["ReferenceExecutor", "execute_graph", "source_values", "synthesize_tensor"]

_OpFn = Callable[[Node, list[np.ndarray]], list[np.ndarray]]
_OPS: dict[str, _OpFn] = {}


def _register(*names: str) -> Callable[[_OpFn], _OpFn]:
    def decorator(fn: _OpFn) -> _OpFn:
        for name in names:
            # korch-lint: ignore[conc/global-mutation] import-time registration only
            _OPS[name] = fn
        return fn

    return decorator


def synthesize_tensor(name: str, ttype: TensorType, scale: float = 0.1) -> np.ndarray:
    """Deterministic pseudo-random data for a named tensor.

    The seed derives from the tensor name only, so every executor produces the
    same values for the same parameter.  Values are small (±3·scale) to keep
    exponentials and normalizations numerically tame.  Tensors whose name
    marks them as variance statistics (``"var"`` in the name, e.g. BatchNorm's
    running variance) are made strictly positive, matching real checkpoints.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(ttype.num_elements).astype(ttype.dtype.to_numpy())
    data = data * scale
    if "var" in name.lower():
        data = np.abs(data) + scale
    return data.reshape(ttype.shape)


def source_values(graph, feeds: Mapping[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Values of every source of ``graph`` (an operator or a primitive
    graph): fed or synthesized inputs and params, literal constants."""
    feeds = feeds or {}
    values: dict[str, np.ndarray] = {}
    for name in graph.inputs:
        if name in feeds:
            values[name] = np.asarray(feeds[name])
        else:
            values[name] = synthesize_tensor(name, graph.tensor_type(name))
    for name, ttype in graph.params.items():
        values[name] = feeds[name] if name in feeds else synthesize_tensor(name, ttype)
    values.update(graph.constants)
    return values


class ReferenceExecutor:
    """Executes operator graphs with numpy semantics matching ONNX."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def run(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        keep_intermediates: bool = False,
    ) -> dict[str, np.ndarray]:
        """Execute the graph; inputs not present in ``feeds`` are synthesized."""
        values = source_values(self.graph, feeds)
        for node in self.graph.topological_order():
            fn = _OPS.get(node.op_type)
            if fn is None:
                raise NotImplementedError(f"no reference implementation for {node.op_type!r}")
            outputs = fn(node, [values[t] for t in node.inputs])
            for tensor, value in zip(node.outputs, outputs):
                values[tensor] = value

        if keep_intermediates:
            return values
        return {name: values[name] for name in self.graph.outputs}


def execute_graph(graph: Graph, feeds: Mapping[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Convenience wrapper: run ``graph`` and return its outputs."""
    return ReferenceExecutor(graph).run(feeds)


# --------------------------------------------------------------------------- elementwise
_BINARY = {
    "Add": np.add,
    "Sub": np.subtract,
    "Mul": np.multiply,
    "Div": np.divide,
    "Pow": np.power,
    "Maximum": np.maximum,
    "Minimum": np.minimum,
}


@_register("Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum")
def _binary(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [_BINARY[node.op_type](inputs[0], inputs[1])]


@_register("Relu")
def _relu(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.maximum(inputs[0], 0)]


@_register("LeakyRelu")
def _leaky_relu(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    alpha = float(node.attr("alpha", 0.1))
    x = inputs[0]
    return [np.where(x >= 0, x, alpha * x)]


@_register("Sigmoid")
def _sigmoid(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [special.expit(inputs[0])]


@_register("Tanh")
def _tanh(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.tanh(inputs[0])]


@_register("Exp")
def _exp(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.exp(inputs[0])]


@_register("Log")
def _log(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.log(inputs[0])]


@_register("Sqrt")
def _sqrt(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.sqrt(inputs[0])]


@_register("Erf")
def _erf(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [special.erf(inputs[0])]


@_register("Neg")
def _neg(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [-inputs[0]]


@_register("Reciprocal")
def _reciprocal(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.reciprocal(inputs[0])]


@_register("Identity")
def _identity(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [inputs[0]]


@_register("Softplus")
def _softplus(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.logaddexp(inputs[0], 0.0)]


@_register("Clip")
def _clip(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.clip(inputs[0], float(node.attr("min", 0.0)), float(node.attr("max", 6.0)))]


@_register("Gelu")
def _gelu(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    return [0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0)))]


@_register("Silu")
def _silu(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    return [x * special.expit(x)]


@_register("Mish")
def _mish(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    return [x * np.tanh(np.logaddexp(x, 0.0))]


@_register("HardSwish")
def _hard_swish(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    return [x * np.clip(x + 3.0, 0.0, 6.0) / 6.0]


@_register("Softmax")
def _softmax(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    axis = int(node.attr("axis", -1))
    # Match the paper's fission rule (Figure 3): plain exp / sum(exp), no
    # max-subtraction.  Inputs are synthesized small so this is stable.
    e = np.exp(x)
    return [e / np.sum(e, axis=axis, keepdims=True)]


# ----------------------------------------------------------------- normalizations
@_register("LayerNormalization")
def _layer_norm(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    axis = int(node.attr("axis", -1))
    eps = float(node.attr("epsilon", 1e-5))
    mean = x.mean(axis=axis, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axis, keepdims=True)
    normalized = (x - mean) / np.sqrt(var + eps)
    if len(inputs) >= 3:
        normalized = normalized * inputs[1] + inputs[2]
    return [normalized]


@_register("InstanceNormalization")
def _instance_norm(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    eps = float(node.attr("epsilon", 1e-5))
    axes = tuple(range(2, x.ndim))
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    normalized = (x - mean) / np.sqrt(var + eps)
    if len(inputs) >= 3:
        shape = [1, -1] + [1] * (x.ndim - 2)
        normalized = normalized * inputs[1].reshape(shape) + inputs[2].reshape(shape)
    return [normalized]


@_register("GroupNormalization")
def _group_norm(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    eps = float(node.attr("epsilon", 1e-5))
    groups = int(node.attr("num_groups", 32))
    n, c = x.shape[:2]
    grouped = x.reshape((n, groups, c // groups) + x.shape[2:])
    axes = tuple(range(2, grouped.ndim))
    mean = grouped.mean(axis=axes, keepdims=True)
    var = ((grouped - mean) ** 2).mean(axis=axes, keepdims=True)
    normalized = ((grouped - mean) / np.sqrt(var + eps)).reshape(x.shape)
    if len(inputs) >= 3:
        shape = [1, -1] + [1] * (x.ndim - 2)
        normalized = normalized * inputs[1].reshape(shape) + inputs[2].reshape(shape)
    return [normalized]


@_register("BatchNormalization")
def _batch_norm(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x, scale, bias, mean, var = inputs[:5]
    eps = float(node.attr("epsilon", 1e-5))
    shape = [1, -1] + [1] * (x.ndim - 2)
    normalized = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
    return [normalized * scale.reshape(shape) + bias.reshape(shape)]


# ----------------------------------------------------------------- reductions / pooling
@_register("ReduceSum", "ReduceMean", "ReduceMax")
def _reduce(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    axes = tuple(node.attr("axes") or (-1,))
    keepdims = bool(node.attr("keepdims", True))
    if node.op_type == "ReduceSum":
        return [np.sum(x, axis=axes, keepdims=keepdims)]
    if node.op_type == "ReduceMean":
        return [np.mean(x, axis=axes, keepdims=keepdims)]
    return [np.max(x, axis=axes, keepdims=keepdims)]


@_register("GlobalAveragePool")
def _global_average_pool(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    return [x.mean(axis=tuple(range(2, x.ndim)), keepdims=True)]


@_register("MaxPool", "AveragePool")
def _pool(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    kh, kw = node.attr("kernel_shape")
    sh, sw = node.attr("strides")
    pads = tuple(node.attr("pads") or (0, 0, 0, 0))
    pad_value = -np.inf if node.op_type == "MaxPool" else 0.0
    x = np.pad(
        x, ((0, 0), (0, 0), (pads[0], pads[2]), (pads[1], pads[3])), constant_values=pad_value
    )
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            window = x[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
            out[:, :, i, j] = window.max(axis=(2, 3)) if node.op_type == "MaxPool" else window.mean(axis=(2, 3))
    return [out]


# --------------------------------------------------------------------- layout
@_register("Transpose")
def _transpose(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    perm = tuple(node.attr("perm") or tuple(reversed(range(inputs[0].ndim))))
    return [np.transpose(inputs[0], perm)]


@_register("Reshape", "Expand")
def _reshape(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    shape = list(node.attr("shape"))
    if node.op_type == "Reshape":
        return [np.reshape(inputs[0], shape)]
    return [np.broadcast_to(inputs[0], np.broadcast_shapes(inputs[0].shape, tuple(shape))).copy()]


@_register("Flatten")
def _flatten(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    axis = int(node.attr("axis", 1))
    x = inputs[0]
    lead = int(np.prod(x.shape[:axis])) if axis else 1
    return [x.reshape(lead, -1)]


@_register("Squeeze")
def _squeeze(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    axes = tuple(node.attr("axes") or ())
    return [np.squeeze(inputs[0], axis=axes or None)]


@_register("Unsqueeze")
def _unsqueeze(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    for axis in sorted(node.attr("axes")):
        x = np.expand_dims(x, axis)
    return [x]


@_register("Split")
def _split(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    axis = int(node.attr("axis", 0))
    sizes = tuple(node.attr("split") or ())
    if not sizes:
        return list(np.split(x, len(node.outputs), axis=axis))
    indices = np.cumsum(sizes)[:-1]
    return list(np.split(x, indices, axis=axis))


@_register("Concat")
def _concat(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.concatenate(inputs, axis=int(node.attr("axis", 0)))]


@_register("Slice")
def _slice(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    starts = tuple(node.attr("starts"))
    ends = tuple(node.attr("ends"))
    axes = tuple(node.attr("axes") or range(len(starts)))
    steps = tuple(node.attr("steps") or (1,) * len(starts))
    index: list[slice] = [slice(None)] * x.ndim
    for start, end, axis, step in zip(starts, ends, axes, steps):
        index[axis] = slice(start, end, step)
    return [x[tuple(index)]]


@_register("Pad")
def _pad(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    pads = tuple(node.attr("pads"))
    pad_width = [(pads[i], pads[i + x.ndim]) for i in range(x.ndim)]
    return [np.pad(x, pad_width, constant_values=float(node.attr("value", 0.0)))]


@_register("Resize")
def _resize(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    # Reuse the layout primitive's implementation for exact agreement.
    from ..primitives.layout import LayoutPrimitive

    x = inputs[0]
    sizes = tuple(node.attr("sizes") or ())
    if not sizes:
        scales = tuple(node.attr("scales"))
        sizes = tuple(int(round(d * s)) for d, s in zip(x.shape, scales))
    prim = LayoutPrimitive("Resize", sizes=sizes, mode=str(node.attr("mode", "nearest")))
    return [prim.compute([x])]


# -------------------------------------------------------------------- compute
@_register("Conv")
def _conv(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    from ..primitives.linear import ConvPrimitive

    prim = ConvPrimitive(
        strides=tuple(node.attr("strides")),
        pads=tuple(node.attr("pads") or (0, 0, 0, 0)),
        dilations=tuple(node.attr("dilations", (1, 1))),
        group=int(node.attr("group", 1)),
    )
    return [prim.compute(inputs)]


@_register("ConvTranspose")
def _conv_transpose(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    from ..primitives.linear import ConvTransposePrimitive

    prim = ConvTransposePrimitive(
        strides=tuple(node.attr("strides")),
        pads=tuple(node.attr("pads") or (0, 0, 0, 0)),
        output_padding=tuple(node.attr("output_padding", (0, 0))),
        group=int(node.attr("group", 1)),
    )
    return [prim.compute(inputs)]


@_register("MatMul")
def _matmul(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    return [np.matmul(inputs[0], inputs[1])]


@_register("Gemm")
def _gemm(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    a, b = inputs[0], inputs[1]
    if bool(node.attr("trans_a", False)):
        a = a.T
    if bool(node.attr("trans_b", False)):
        b = b.T
    out = a @ b
    if len(inputs) >= 3:
        out = out + inputs[2]
    return [out]


@_register("TopK")
def _topk(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    x = inputs[0]
    k = int(node.attr("k", 1))
    axis = int(node.attr("axis", -1))
    order = np.argsort(x, axis=axis)
    top = np.take(order, range(-1, -k - 1, -1), axis=axis)
    values = np.take_along_axis(x, top, axis=axis)
    return [values, top.astype(np.int64)]
