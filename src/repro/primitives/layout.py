"""Layout transformation primitives.

A layout transformation moves data without arithmetic: the output at position
x is the input at position L(x) for a one-to-one mapping L.  Transpose,
Reshape, Slice, Pad, Concat and Resize all fall in this category; Split is
decomposed by the fission engine into one Slice per output so that every
primitive keeps a single output tensor (footnote 1 of the paper).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..ir.tensor_type import TensorType
from .base import Primitive, PrimitiveCategory

__all__ = ["LayoutPrimitive", "LAYOUT_OPS"]

LAYOUT_OPS = ("Transpose", "Reshape", "Slice", "Pad", "Concat", "Resize")


def _normalize_axis(axis: int, rank: int) -> int:
    if axis < 0:
        axis += rank
    if not 0 <= axis < rank:
        raise ValueError(f"axis {axis} out of range for rank {rank}")
    return axis


class LayoutPrimitive(Primitive):
    """Data movement primitive with zero arithmetic cost.

    Supported ops and their attributes:

    ``Transpose``
        ``perm`` — dimension permutation.
    ``Reshape``
        ``shape`` — static target shape (no ``-1`` wildcards at this level).
    ``Slice``
        ``starts``, ``ends``, ``axes``, ``steps`` — static strided slice.
    ``Pad``
        ``pads`` (begin..., end...), ``value`` — constant padding.
    ``Concat``
        ``axis`` — concatenation axis; the only multi-input layout primitive.
    ``Resize``
        ``scales`` or ``sizes``, ``mode`` ∈ {nearest, bilinear} — spatial
        up-sampling used by Segformer's MLP decoder.
    """

    category = PrimitiveCategory.LAYOUT

    def __init__(self, op: str, **attrs) -> None:
        if op not in LAYOUT_OPS:
            raise ValueError(f"unknown layout op {op!r}; known: {LAYOUT_OPS}")
        super().__init__(op, **attrs)

    # ------------------------------------------------------------ inference
    def infer_type(self, input_types: Sequence[TensorType]) -> TensorType:
        if self.op == "Concat":
            return self._infer_concat(input_types)
        (x,) = input_types
        if self.op == "Transpose":
            return x.transpose(self.attr("perm"))
        if self.op == "Reshape":
            shape = tuple(self.attr("shape"))
            if math.prod(shape) != x.num_elements:
                raise ValueError(f"Reshape: cannot reshape {x.shape} to {shape}")
            return x.with_shape(shape)
        if self.op == "Slice":
            return self._infer_slice(x)
        if self.op == "Pad":
            pads = self.attr("pads")
            shape = [d + pads[i] + pads[i + x.rank] for i, d in enumerate(x.shape)]
            return x.with_shape(shape)
        # Resize
        sizes = tuple(self.attr("sizes") or ())
        if sizes:
            return x.with_shape(sizes)
        scales = tuple(self.attr("scales"))
        return x.with_shape(tuple(int(round(d * s)) for d, s in zip(x.shape, scales)))

    def _infer_concat(self, input_types: Sequence[TensorType]) -> TensorType:
        axis = _normalize_axis(self.attr("axis", 0), input_types[0].rank)
        shape = list(input_types[0].shape)
        shape[axis] = sum(t.shape[axis] for t in input_types)
        return input_types[0].with_shape(shape)

    def _infer_slice(self, x: TensorType) -> TensorType:
        starts = tuple(self.attr("starts"))
        ends = tuple(self.attr("ends"))
        axes = tuple(self.attr("axes") or range(len(starts)))
        steps = tuple(self.attr("steps") or (1,) * len(starts))
        shape = list(x.shape)
        for start, end, axis, step in zip(starts, ends, axes, steps):
            axis = _normalize_axis(axis, x.rank)
            dim = x.shape[axis]
            start = min(max(start + dim if start < 0 else start, 0), dim)
            end = min(max(end + dim if end < 0 else end, 0), dim)
            shape[axis] = max(0, -(-(end - start) // step))
        return x.with_shape(shape)

    # ------------------------------------------------------------ execution
    def compute(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if self.op == "Concat":
            axis = _normalize_axis(self.attr("axis", 0), inputs[0].ndim)
            return np.concatenate(list(inputs), axis=axis)
        (x,) = inputs
        if self.op == "Transpose":
            return np.transpose(x, self.attr("perm"))
        if self.op == "Reshape":
            return np.reshape(x, tuple(self.attr("shape")))
        if self.op == "Slice":
            return self._compute_slice(x)
        if self.op == "Pad":
            pads = self.attr("pads")
            rank = x.ndim
            pad_width = [(pads[i], pads[i + rank]) for i in range(rank)]
            return np.pad(x, pad_width, constant_values=float(self.attr("value", 0.0)))
        return self._compute_resize(x)

    def _compute_slice(self, x: np.ndarray) -> np.ndarray:
        starts = tuple(self.attr("starts"))
        ends = tuple(self.attr("ends"))
        axes = tuple(self.attr("axes") or range(len(starts)))
        steps = tuple(self.attr("steps") or (1,) * len(starts))
        index: list[slice] = [slice(None)] * x.ndim
        for start, end, axis, step in zip(starts, ends, axes, steps):
            axis = _normalize_axis(axis, x.ndim)
            index[axis] = slice(start, end, step)
        return x[tuple(index)]

    def _compute_resize(self, x: np.ndarray) -> np.ndarray:
        target = self.infer_type([TensorType(x.shape)]).shape
        mode = self.attr("mode", "nearest")
        dtype = x.dtype
        # Interpolation weights in the input's float type, so float32 stays
        # float32 instead of promoting through float64 positions.
        weight_dtype = np.result_type(dtype, np.float32)
        out = x
        for axis, (src, dst) in enumerate(zip(x.shape, target)):
            if src == dst:
                continue
            if mode == "nearest":
                idx = np.minimum((np.arange(dst) * src / dst).astype(np.int64), src - 1)
                out = np.take(out, idx, axis=axis)
            else:  # bilinear along this axis
                pos = (np.arange(dst) + 0.5) * src / dst - 0.5
                low = np.clip(np.floor(pos).astype(np.int64), 0, src - 1)
                high = np.clip(low + 1, 0, src - 1)
                frac = np.clip(pos - low, 0.0, 1.0)
                shape = [1] * out.ndim
                shape[axis] = dst
                frac = frac.reshape(shape).astype(weight_dtype)
                out = np.take(out, low, axis=axis) * (1 - frac) + np.take(out, high, axis=axis) * frac
        return out.astype(dtype, copy=False)

    def flops(self, input_types: Sequence[TensorType], output_type: TensorType) -> int:
        # Pure data movement; bilinear resize does interpolation arithmetic.
        if self.op == "Resize" and self.attr("mode", "nearest") != "nearest":
            return 3 * output_type.num_elements
        return 0
