"""Pluggable kernel libraries for the plan executor.

A :class:`KernelLibrary` turns one kernel launch — a set of primitive nodes
with external input values — into output tensors.  The executor stays
library-agnostic: it walks the kernel graph in dependency order and hands
each kernel to the library, which resolves the *intra*-kernel dataflow by
demand-driven op dispatch (the shape of HGL-proto's ``sageir/executor.py``:
each requested output pulls its producer, which pulls its own inputs,
memoized).

Two libraries ship:

* :class:`NumpyKernelLibrary` — always available; dispatches every primitive
  to its numpy reference semantics (:meth:`repro.primitives.base.Primitive.compute`).
* :class:`TorchKernelLibrary` — available only when ``torch`` imports;
  dispatches the common primitive ops onto torch functional kernels and
  round-trips anything unmapped (convolutions, opaque ops) through the numpy
  reference, so it is numerically exact wherever it runs.

``get_library("numpy")`` / ``available_libraries()`` are the registry the
CLI and the engine resolve names through.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..primitives.graph import PrimitiveNode

__all__ = [
    "KernelLibrary",
    "NumpyKernelLibrary",
    "TorchKernelLibrary",
    "torch_available",
    "available_libraries",
    "get_library",
    "resolve_library",
]

try:  # torch is an optional dependency; every use is gated on this flag.
    import torch  # type: ignore

    _HAS_TORCH = True
except Exception:  # pragma: no cover - environment-dependent
    torch = None  # type: ignore[assignment]
    _HAS_TORCH = False


def torch_available() -> bool:
    """Whether the optional torch kernel library can be constructed."""
    return _HAS_TORCH


class KernelLibrary:
    """Executes one kernel's primitive sequence from its external inputs."""

    name: str = "library"

    def run_kernel(
        self,
        nodes: Sequence[PrimitiveNode],
        input_values: Mapping[str, np.ndarray],
        outputs: Sequence[str],
    ) -> dict[str, np.ndarray]:
        """Run the kernel; returns exactly the requested output tensors.

        The intra-kernel dataflow is resolved by demand-driven dispatch: each
        output pulls the node that produces it, which pulls its own input
        tensors (external values or other in-kernel nodes), each computed
        once.  The pull runs on an explicit stack rather than a recursive
        closure, so no reference cycle keeps the kernel's intermediates
        alive past its return and deep kernels cannot exhaust the recursion
        limit; the nodes come from an acyclic primitive graph.  Raises
        ``KeyError`` when a needed tensor is neither an external input nor
        produced inside the kernel.
        """
        producers = {node.output: node for node in nodes}
        values: dict[str, Any] = {
            name: self.to_device(value) for name, value in input_values.items()
        }
        for output in outputs:
            pending = [output]
            while pending:
                name = pending[-1]
                if name in values:
                    pending.pop()
                    continue
                node = producers.get(name)
                if node is None:
                    raise KeyError(
                        f"kernel needs tensor {name!r} but it is neither an external "
                        f"input nor produced by the kernel's nodes"
                    )
                missing = [t for t in node.inputs if t not in values]
                if missing:
                    pending.extend(reversed(missing))
                    continue
                values[name] = self.compute_node(node, [values[t] for t in node.inputs])
                pending.pop()
        return {name: self.from_device(values[name]) for name in outputs}

    # ------------------------------------------------------------- dispatch
    def compute_node(self, node: PrimitiveNode, inputs: Sequence[Any]) -> Any:
        """Execute one primitive on library-native tensors."""
        raise NotImplementedError

    def to_device(self, value: np.ndarray) -> Any:
        """Convert an external numpy input into the library's tensor type."""
        return value

    def from_device(self, value: Any) -> np.ndarray:
        """Convert a library-native tensor back to numpy at kernel exit."""
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class NumpyKernelLibrary(KernelLibrary):
    """The always-available reference library: primitives run their numpy
    semantics directly, so executor outputs are bit-identical to running
    the primitive graph node by node on the same inputs."""

    name = "numpy"

    def compute_node(self, node: PrimitiveNode, inputs: Sequence[Any]) -> Any:
        return node.prim.compute(inputs)


class TorchKernelLibrary(KernelLibrary):
    """Torch-backed kernels behind an optional import.

    Tensors cross the kernel boundary as numpy arrays (what the executor's
    memory holds) and live as torch tensors inside the kernel.  Primitives
    without a torch mapping fall back to their numpy reference semantics
    with a conversion round-trip — slower, never wrong.
    """

    name = "torch"

    def __init__(self, device: str = "cpu") -> None:
        if not _HAS_TORCH:
            raise RuntimeError(
                "TorchKernelLibrary requires torch, which is not importable; "
                "use NumpyKernelLibrary instead"
            )
        self.device = torch.device(device)

    def to_device(self, value: np.ndarray) -> Any:
        return torch.from_numpy(np.ascontiguousarray(value)).to(self.device)

    def from_device(self, value: Any) -> np.ndarray:
        if isinstance(value, torch.Tensor):
            return value.detach().cpu().numpy()
        return np.asarray(value)

    def compute_node(self, node: PrimitiveNode, inputs: Sequence[Any]) -> Any:
        prim = node.prim
        handler = self._handler(prim.category.value, prim.op)
        if handler is not None:
            return handler(self, prim, inputs)
        # Unmapped primitive (convolutions, window reductions, opaque ops):
        # round-trip through the numpy reference semantics.
        arrays = [self.from_device(t) for t in inputs]
        return self.to_device(prim.compute(arrays))

    # ----------------------------------------------------------- handlers
    def _handler(self, category: str, op: str):
        return _TORCH_HANDLERS.get((category, op))


def _torch_unary(fn):
    return lambda lib, prim, inputs: fn(inputs[0])


def _torch_binary(fn):
    return lambda lib, prim, inputs: fn(inputs[0], inputs[1])


def _torch_reduce(prim, x, fn):
    axes = prim.attr("axes")
    dims = tuple(axes) if axes is not None else tuple(range(x.dim()))
    return fn(x, dims, bool(prim.attr("keepdims")))


_TORCH_HANDLERS: dict = {}
if _HAS_TORCH:  # pragma: no cover - exercised only where torch is installed
    _TORCH_HANDLERS.update(
        {
            ("elementwise", "Exp"): _torch_unary(torch.exp),
            ("elementwise", "Log"): _torch_unary(torch.log),
            ("elementwise", "Sqrt"): _torch_unary(torch.sqrt),
            ("elementwise", "Erf"): _torch_unary(torch.erf),
            ("elementwise", "Neg"): _torch_unary(torch.neg),
            ("elementwise", "Reciprocal"): _torch_unary(torch.reciprocal),
            ("elementwise", "Relu"): _torch_unary(torch.relu),
            ("elementwise", "Sigmoid"): _torch_unary(torch.sigmoid),
            ("elementwise", "Tanh"): _torch_unary(torch.tanh),
            ("elementwise", "Identity"): _torch_unary(lambda x: x),
            ("elementwise", "Softplus"): _torch_unary(
                torch.nn.functional.softplus
            ),
            ("elementwise", "LeakyRelu"): lambda lib, prim, inputs: (
                torch.nn.functional.leaky_relu(
                    inputs[0], float(prim.attr("alpha", 0.01))
                )
            ),
            ("elementwise", "Clip"): lambda lib, prim, inputs: torch.clamp(
                inputs[0],
                float(prim.attr("minimum")),
                float(prim.attr("maximum")),
            ),
            ("elementwise", "Add"): _torch_binary(torch.add),
            ("elementwise", "Sub"): _torch_binary(torch.sub),
            ("elementwise", "Mul"): _torch_binary(torch.mul),
            ("elementwise", "Div"): _torch_binary(torch.div),
            ("elementwise", "Pow"): _torch_binary(torch.pow),
            ("elementwise", "Maximum"): _torch_binary(torch.maximum),
            ("elementwise", "Minimum"): _torch_binary(torch.minimum),
            ("linear", "MatMul"): _torch_binary(torch.matmul),
            ("reduce", "Sum"): lambda lib, prim, inputs: _torch_reduce(
                prim, inputs[0], lambda x, d, k: torch.sum(x, dim=d, keepdim=k)
            ),
            ("reduce", "Mean"): lambda lib, prim, inputs: _torch_reduce(
                prim, inputs[0], lambda x, d, k: torch.mean(x, dim=d, keepdim=k)
            ),
            ("reduce", "Max"): lambda lib, prim, inputs: _torch_reduce(
                prim, inputs[0], lambda x, d, k: torch.amax(x, dim=d, keepdim=k)
            ),
            ("layout", "Transpose"): lambda lib, prim, inputs: inputs[0].permute(
                tuple(prim.attr("perm"))
            ),
            ("layout", "Reshape"): lambda lib, prim, inputs: inputs[0].reshape(
                tuple(prim.attr("shape"))
            ),
        }
    )


def available_libraries() -> dict[str, bool]:
    """``{library name: constructible}`` for every known kernel library."""
    return {"numpy": True, "torch": _HAS_TORCH}


def get_library(name: str) -> KernelLibrary:
    """Construct a kernel library by name (``"numpy"`` or ``"torch"``)."""
    normalized = name.lower()
    if normalized == "numpy":
        return NumpyKernelLibrary()
    if normalized == "torch":
        return TorchKernelLibrary()
    raise KeyError(f"unknown kernel library {name!r}; known: {sorted(available_libraries())}")


def resolve_library(library: "KernelLibrary | str | None") -> KernelLibrary:
    """``None`` → numpy; a name → :func:`get_library`; an instance passes
    through.  The single resolution point the executor, the engine and the
    CLI all share."""
    if library is None:
        return NumpyKernelLibrary()
    if isinstance(library, str):
        return get_library(library)
    return library
