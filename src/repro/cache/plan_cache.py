"""Persistent plan cache: remembers the *outcome* of the whole pipeline.

A plan records, for every partition of a model, exactly which kernels the BLP
selected — each kernel as its primitive-node names, external inputs and
output tensors — plus the solver metadata.  Keyed on the full (operator
graph, GPU, backend set, config) identity, a stored plan lets a warm
``optimize_model`` skip the two expensive pipeline stages entirely: candidate
enumeration + profiling (Algorithm 1) and the per-partition BLP solve.  The
warm run replays the stored selection against the deterministically
re-derived primitive graph and re-prices each selected kernel through the
(persistent) profile cache, reproducing the cold strategy bit for bit.

Two tiers:

* an in-process memory tier mapping plan key -> the full
  :class:`~repro.pipeline.KorchResult`, for repeated ``optimize_model`` calls
  in one process, and
* the durable store tier holding the replayable JSON plan.

Replay is strictly validated (node names, tensors and partition count must
match the regenerated primitive graphs); any mismatch — a stale plan after a
code change, a corrupted payload — falls back to the cold path for that
partition and the plan is rewritten.

A second namespace holds **partition plans** under a name-free key
(:func:`partition_plan_key`).  DNNs repeat blocks, so many partitions pose
the same BLP under different tensor names; the key renames every node and
tensor by first use, and plans are stored in those positional names.  A
partition whose key was solved before — earlier in the model, in another
model, or in an earlier process — replays the stored selection translated to
its own names instead of enumerating, profiling and solving again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .keys import gpu_fingerprint, stable_hash
from .store import CacheStore

__all__ = [
    "KernelPlan",
    "PartitionPlan",
    "ModelPlan",
    "PartitionKey",
    "partition_plan_key",
    "PlanCache",
]

_NAMESPACE = "orchestration-plans"
#: Namespace of the name-free partition plans.
PARTITION_NAMESPACE = "partition-plans"
#: Payload format version; bump when the plan encoding changes.
_PAYLOAD_VERSION = 1


@dataclass
class KernelPlan:
    """One selected kernel, by name — enough to rebuild it from the graph."""

    node_names: list[str]
    external_inputs: list[str]
    outputs: list[str]

    def to_payload(self) -> dict[str, Any]:
        return {
            "nodes": list(self.node_names),
            "inputs": list(self.external_inputs),
            "outputs": list(self.outputs),
        }

    @staticmethod
    def from_payload(data: dict[str, Any]) -> "KernelPlan":
        return KernelPlan(
            node_names=[str(n) for n in data["nodes"]],
            external_inputs=[str(t) for t in data["inputs"]],
            outputs=[str(t) for t in data["outputs"]],
        )


@dataclass
class PartitionPlan:
    """The solved strategy of one partition, in execution order."""

    kernels: list[KernelPlan]
    objective_s: float
    solver_status: str
    solver_method: str
    num_candidates: int = 0
    #: ``[records, vendor records]`` the cold solve made into the model's
    #: tuning-time accounting (:class:`repro.backends.TuningTally`).  Set on
    #: partition plans only: a reusing partition charges the same counts, so
    #: Table 2 statistics do not depend on whether a partition was reused.
    tuning_records: list[int] | None = None

    @staticmethod
    def of(orchestration) -> "PartitionPlan":
        """The replayable plan of a solved (or replayed) orchestration."""
        strategy = orchestration.strategy
        return PartitionPlan(
            kernels=[
                KernelPlan(
                    node_names=sorted(kernel.node_names),
                    external_inputs=list(kernel.external_inputs),
                    outputs=list(kernel.outputs),
                )
                for kernel in strategy.kernels
            ],
            objective_s=strategy.objective_s,
            solver_status=strategy.solver_status,
            solver_method=strategy.solver_method,
            num_candidates=orchestration.num_candidates,
        )

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "kernels": [k.to_payload() for k in self.kernels],
            "objective_s": self.objective_s,
            "solver_status": self.solver_status,
            "solver_method": self.solver_method,
            "num_candidates": self.num_candidates,
        }
        if self.tuning_records is not None:
            payload["tuning_records"] = list(self.tuning_records)
        return payload

    @staticmethod
    def from_payload(data: dict[str, Any]) -> "PartitionPlan":
        records = data.get("tuning_records")
        return PartitionPlan(
            kernels=[KernelPlan.from_payload(k) for k in data["kernels"]],
            objective_s=float(data["objective_s"]),
            solver_status=str(data["solver_status"]),
            solver_method=str(data["solver_method"]),
            num_candidates=int(data.get("num_candidates", 0)),
            tuning_records=[int(r) for r in records] if records is not None else None,
        )

    def renamed(self, nodes: dict[str, str], tensors: dict[str, str]) -> "PartitionPlan":
        """This plan with every node and tensor name mapped through ``nodes``
        and ``tensors``; a name missing from either raises ``KeyError``."""
        return PartitionPlan(
            kernels=[
                KernelPlan(
                    node_names=[nodes[n] for n in k.node_names],
                    external_inputs=[tensors[t] for t in k.external_inputs],
                    outputs=[tensors[t] for t in k.outputs],
                )
                for k in self.kernels
            ],
            objective_s=self.objective_s,
            solver_status=self.solver_status,
            solver_method=self.solver_method,
            num_candidates=self.num_candidates,
            tuning_records=self.tuning_records,
        )


@dataclass
class ModelPlan:
    """Per-partition plans for one (graph, gpu, config) triple."""

    partitions: list[PartitionPlan] = field(default_factory=list)
    #: The cold run's model-level tuning report
    #: (:meth:`repro.backends.TuningTimeReport.as_payload`), so a fully
    #: replayed run reports the same Table 2 statistics as the run that
    #: computed the plan.  ``None`` on plans stored before this field existed.
    tuning: dict[str, Any] | None = None
    #: Backend fingerprint the plan was computed under.  Redundant with the
    #: *key* (which embeds it), but recorded in the payload so maintenance
    #: tooling can recognize plans whose keys became unreachable after a
    #: backend ``MODEL_VERSION`` bump (``python -m repro.cache gc``).
    backends: list[str] | None = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "v": _PAYLOAD_VERSION,
            "partitions": [p.to_payload() for p in self.partitions],
        }
        if self.tuning is not None:
            payload["tuning"] = self.tuning
        if self.backends is not None:
            payload["backends"] = list(self.backends)
        return payload

    @staticmethod
    def from_payload(data: dict[str, Any]) -> "ModelPlan | None":
        try:
            if data.get("v") != _PAYLOAD_VERSION:
                return None
            tuning = data.get("tuning")
            backends = data.get("backends")
            return ModelPlan(
                partitions=[PartitionPlan.from_payload(p) for p in data["partitions"]],
                tuning=tuning if isinstance(tuning, dict) else None,
                backends=[str(b) for b in backends] if isinstance(backends, list) else None,
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass(frozen=True)
class PartitionKey:
    """Name-free identity of one partition's orchestration problem.

    ``nodes`` and ``tensors`` list the keyed graph's names by first-use
    position: stored plans use ``n<i>``/``t<i>`` in their place, so a plan
    saved by one partition translates to the names of any partition with the
    same ``digest``.  ``backends`` is the keyed backend fingerprint.
    """

    digest: str
    nodes: tuple[str, ...]
    tensors: tuple[str, ...]
    backends: tuple[str, ...]

    def to_positional(self, plan: PartitionPlan) -> PartitionPlan:
        return plan.renamed(
            {name: f"n{i}" for i, name in enumerate(self.nodes)},
            {name: f"t{i}" for i, name in enumerate(self.tensors)},
        )

    def from_positional(self, plan: PartitionPlan) -> PartitionPlan:
        return plan.renamed(
            {f"n{i}": name for i, name in enumerate(self.nodes)},
            {f"t{i}": name for i, name in enumerate(self.tensors)},
        )


def _tensor_kind(pg, name: str) -> str:
    if name in pg.constants:
        return "constant"
    if name in pg.params:
        return "param"
    if name in pg.inputs:
        return "input"
    return "intermediate"


def partition_plan_key(
    pg, spec, backend_names: Sequence[str], config_fingerprint: dict
) -> PartitionKey:
    """Key a (post-graph-optimization) primitive graph without its names.

    Tensors are numbered by first use — walking the nodes in graph order,
    inputs before output, then the graph outputs — and nodes by position.
    The hash covers each node's primitive signature and wiring in those
    numbers, each tensor's kind, shape and dtype, and the graph outputs,
    together with the GPU, the backend set and the result-determining
    config (:meth:`repro.engine.KorchConfig.fingerprint`).  Two partitions
    with equal digests pose the same BLP up to renaming.
    """
    positions: dict[str, int] = {}

    def position(tensor: str) -> int:
        return positions.setdefault(tensor, len(positions))

    nodes = [
        (node.prim.signature(), [position(t) for t in node.inputs], position(node.output))
        for node in pg.nodes
    ]
    outputs = [position(t) for t in pg.outputs]
    tensors = [
        (_tensor_kind(pg, name), pg.tensors[name].shape, pg.tensors[name].dtype.value)
        for name in positions
    ]
    digest = stable_hash(
        {
            "kind": "partition-plan",
            "nodes": nodes,
            "outputs": outputs,
            "tensors": tensors,
            "gpu": gpu_fingerprint(spec),
            "backends": list(backend_names),
            "config": config_fingerprint,
        }
    )
    return PartitionKey(
        digest, tuple(node.name for node in pg.nodes), tuple(positions), tuple(backend_names)
    )


class PlanCache:
    """Two-tier (memory + store) cache of model optimization plans, plus the
    name-free partition plans."""

    #: Memory-tier cap.  Full ``KorchResult`` objects are heavy (graphs,
    #: strategies, executables), so unlike the store tier this is small;
    #: evicted entries fall back to the disk-replay path.
    MAX_MEMORY_RESULTS = 32

    def __init__(self, store: CacheStore) -> None:
        self.store = store
        self._memory: dict[str, Any] = {}

    # -------------------------------------------------------- memory tier
    def get_result(self, key: str) -> Any | None:
        """In-process tier: the full KorchResult of an earlier optimize()."""
        result = self._memory.get(key)
        if result is not None:
            self._memory[key] = self._memory.pop(key)  # LRU touch
        return result

    def put_result(self, key: str, result: Any) -> None:
        self._memory.pop(key, None)
        self._memory[key] = result
        while len(self._memory) > self.MAX_MEMORY_RESULTS:
            self._memory.pop(next(iter(self._memory)))

    # --------------------------------------------------------- store tier
    def load(self, key: str) -> ModelPlan | None:
        """Replayable plan from the durable store, or ``None``."""
        payload = self.store.get_json(_NAMESPACE, key)
        if not isinstance(payload, dict):
            return None
        return ModelPlan.from_payload(payload)

    def save(self, key: str, plan: ModelPlan) -> None:
        self.store.put_json(_NAMESPACE, key, plan.to_payload())

    # ----------------------------------------------------- partition plans
    def load_partition(self, key: PartitionKey) -> PartitionPlan | None:
        """The stored plan of an equal partition in ``key``'s names, or
        ``None`` (absent, or a payload that does not decode)."""
        payload = self.store.get_json(PARTITION_NAMESPACE, key.digest)
        if not isinstance(payload, dict) or payload.get("v") != _PAYLOAD_VERSION:
            return None
        try:
            return key.from_positional(PartitionPlan.from_payload(payload["plan"]))
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def save_partition(self, key: PartitionKey, plan: PartitionPlan) -> None:
        """Store ``plan`` (in ``key``'s names) positionally, recording the
        backend set for ``python -m repro.cache gc`` as model plans do."""
        self.store.put_json(
            PARTITION_NAMESPACE,
            key.digest,
            {
                "v": _PAYLOAD_VERSION,
                "plan": key.to_positional(plan).to_payload(),
                "backends": list(key.backends),
            },
        )

    def __len__(self) -> int:
        return self.store.count(_NAMESPACE)
