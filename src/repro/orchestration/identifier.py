"""Kernel identifier: Algorithm 1 of the paper.

Enumerates execution states with a DFS, derives every convex primitive set
from pairs of states (Theorem 1), attaches possible output sets, profiles
each candidate with the kernel profiler, and returns the surviving candidate
kernels.  Candidates the profiler rejects (no backend can generate them) are
dropped, mirroring the profiler returning ∞ in the paper.

Pruning heuristics (§6.5): a maximum primitive count per kernel, at most one
linear-transformation primitive per kernel, opaque primitives only as
singleton kernels, and (optionally) weak connectivity of the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..backends import FrameworkEagerBackend, KernelBackend
from ..gpu.profiler import KernelProfiler
from ..gpu.specs import GpuSpec
from ..primitives.graph import PrimitiveGraph, PrimitiveNode
from .bitgraph import BitGraph, convex_masks, mask_sort_key, state_masks
from .execution_state import connected_components, convex_subgraphs_from_states, enumerate_execution_states
from .kernel import CandidateKernel

__all__ = [
    "CandidateSpec",
    "KernelIdentifierConfig",
    "KernelIdentifierReport",
    "KernelIdentifier",
    "enumerate_candidate_specs",
    "enumerate_candidate_specs_reference",
    "spec_key",
]


@dataclass
class KernelIdentifierConfig:
    """Tunable limits of the kernel identifier."""

    #: Maximum primitives one kernel may contain (candidates above are pruned).
    max_kernel_size: int = 10
    #: Maximum linear-transformation primitives per kernel.
    max_linear_per_kernel: int = 1
    #: Hard cap on the execution-state enumeration.
    max_states: int = 20000
    #: Hard cap on the number of profiled candidates (safety valve).
    max_candidates: int = 50000
    #: Require candidate primitive sets to be weakly connected.
    require_connected: bool = True
    #: Also emit one multi-output candidate per convex set (in addition to the
    #: single-output candidates); §8 notes single-output is the paper's
    #: implementation and multi-output its natural extension.
    allow_multi_output: bool = True
    #: Drop candidates that are dominated by a cheaper candidate with the same
    #: external inputs and the same output set: the BLP constraints only see a
    #: kernel's I/O tensors, so replacing a dominated kernel by its dominator
    #: never affects feasibility and cannot increase the objective.
    prune_dominated: bool = True
    #: Maximum primitives per kernel for the segmentation-cover fallback (the
    #: DP over the topological order that guards time-limited BLP solves).
    #: Larger than ``max_kernel_size`` on purpose: vendor libraries fuse long
    #: operator chains into one kernel, and the fallback must be able to
    #: express those covers without paying the exponential enumeration cost.
    cover_max_kernel_size: int = 16
    #: Enable the segmentation-cover fallback in the orchestration optimizer.
    enable_segment_cover: bool = True


@dataclass(frozen=True)
class CandidateSpec:
    """One enumerated candidate kernel, before profiling.

    The identification stage (enumeration + pruning, the combinatorial part
    of Algorithm 1) emits these; the profiling stage prices them.  Keeping
    the two apart lets the engine time and test them independently.
    """

    node_names: frozenset[str]
    outputs: tuple[str, ...]


@dataclass
class KernelIdentifierReport:
    """Statistics of one identification run (feeds Table 2)."""

    num_execution_states: int = 0
    num_convex_sets: int = 0
    num_candidates_considered: int = 0
    num_candidates_profiled: int = 0
    num_candidates_rejected: int = 0
    num_candidates: int = 0
    pruned_by_size: int = 0
    pruned_by_linear: int = 0
    pruned_by_connectivity: int = 0
    pruned_by_dominance: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class KernelIdentifier:
    """Identifies and profiles all candidate kernels of a primitive graph."""

    def __init__(
        self,
        spec: GpuSpec,
        backends: Sequence[KernelBackend] | None = None,
        config: KernelIdentifierConfig | None = None,
        profiler: KernelProfiler | None = None,
        persistent_cache=None,
        tuning_model=None,
    ) -> None:
        self.spec = spec
        self.config = config or KernelIdentifierConfig()
        self.profiler = profiler or KernelProfiler(
            spec, backends, tuning_model, persistent_cache=persistent_cache
        )
        fallback_backends = [FrameworkEagerBackend()]
        fallback_cache = (
            persistent_cache.for_backends(fallback_backends) if persistent_cache is not None else None
        )
        self._fallback_profiler = KernelProfiler(
            spec, fallback_backends, self.profiler.tuning_model, persistent_cache=fallback_cache
        )

    @property
    def profiler_stats(self):
        """Merged cache/estimate statistics of both profilers."""
        from ..gpu.profiler import ProfilerStats

        merged = ProfilerStats()
        merged.merge(self.profiler.stats)
        merged.merge(self._fallback_profiler.stats)
        return merged

    def build_kernel(
        self,
        pg: PrimitiveGraph,
        node_names: Sequence[str],
        outputs: Sequence[str],
        index: int,
    ) -> CandidateKernel | None:
        """Profile one *specific* kernel (used when replaying a cached plan).

        Unlike :meth:`identify`, no enumeration happens: the caller already
        knows the node set and output set.  Returns ``None`` when the node
        names do not exist in ``pg`` or no backend supports the kernel —
        replay treats that as a stale plan.
        """
        nodes_by_name = {node.name: node for node in pg.nodes}
        if any(name not in nodes_by_name for name in node_names):
            return None
        if any(pg.producer(tensor) is None for tensor in outputs):
            return None
        return self._profile_candidate(pg, frozenset(node_names), list(outputs), nodes_by_name, index)

    # ------------------------------------------------------------------ api
    def identify(self, pg: PrimitiveGraph) -> tuple[list[CandidateKernel], KernelIdentifierReport]:
        """Run Algorithm 1 on ``pg``: enumerate candidate specs, then profile."""
        report = KernelIdentifierReport()
        specs = self.enumerate_specs(pg, report)
        return self.profile_specs(pg, specs, report), report

    def enumerate_specs(
        self, pg: PrimitiveGraph, report: KernelIdentifierReport
    ) -> list[CandidateSpec]:
        """Enumeration half of Algorithm 1; see :func:`enumerate_candidate_specs`."""
        return enumerate_candidate_specs(pg, self.config, report)

    def profile_specs(
        self,
        pg: PrimitiveGraph,
        specs: Sequence[CandidateSpec],
        report: KernelIdentifierReport,
    ) -> list[CandidateKernel]:
        """Profiling half of Algorithm 1: price each spec, drop the
        unsupported ones, keep at most ``max_candidates`` survivors."""
        nodes_by_name = {node.name: node for node in pg.nodes}
        candidates: list[CandidateKernel] = []
        for spec in specs:
            if len(candidates) >= self.config.max_candidates:
                break
            report.num_candidates_considered += 1
            candidate = self._profile_candidate(
                pg, spec.node_names, list(spec.outputs), nodes_by_name, len(candidates)
            )
            report.num_candidates_profiled += 1
            if candidate is None:
                report.num_candidates_rejected += 1
                continue
            candidates.append(candidate)

        if self.config.prune_dominated:
            candidates = self._prune_dominated(candidates, report)
        report.num_candidates = len(candidates)
        return candidates

    @staticmethod
    def _prune_dominated(
        candidates: list[CandidateKernel], report: KernelIdentifierReport
    ) -> list[CandidateKernel]:
        """Keep only the cheapest candidate per (external inputs, outputs) pair."""
        best: dict[tuple, CandidateKernel] = {}
        for candidate in candidates:
            key = (frozenset(candidate.external_inputs), frozenset(candidate.outputs))
            incumbent = best.get(key)
            if incumbent is None or candidate.latency_s < incumbent.latency_s:
                best[key] = candidate
        surviving = sorted(best.values(), key=lambda c: c.index)
        report.pruned_by_dominance = len(candidates) - len(surviving)
        for position, candidate in enumerate(surviving):
            candidate.index = position
        return surviving

    # ------------------------------------------------------------- internals
    def _profile_candidate(
        self,
        pg: PrimitiveGraph,
        node_names: frozenset[str],
        outputs: list[str],
        nodes_by_name: dict[str, PrimitiveNode],
        index: int,
    ) -> CandidateKernel | None:
        order = {node.name: position for position, node in enumerate(pg.topological_order())}
        nodes = sorted((nodes_by_name[name] for name in node_names), key=lambda n: order[n.name])
        external_inputs, _ = pg.subset_io(nodes)
        profile = self.profiler.profile(pg, nodes, external_inputs, outputs)
        if profile is None and len(nodes) == 1:
            # Opaque or otherwise unsupported singleton: fall back to the
            # framework's own kernel so the BLP always has a feasible cover.
            profile = self._fallback_profiler.profile(pg, nodes, external_inputs, outputs)
        if profile is None:
            return None
        return CandidateKernel(
            index=index,
            node_names=node_names,
            nodes=nodes,
            external_inputs=list(external_inputs),
            outputs=list(outputs),
            profile=profile,
            source_ops=frozenset(node.source_op for node in nodes if node.source_op),
        )


# ---------------------------------------------------------------- enumeration
#
# The enumeration half of Algorithm 1 lives at module level, as a pure
# function of picklable inputs (PrimitiveGraph + KernelIdentifierConfig).
# That is what lets the engine's scheduler ship the GIL-bound enumeration to
# a process-pool worker: no profiler, backends, caches or locks ride along.


def spec_key(spec: CandidateSpec) -> tuple[frozenset[str], tuple[str, ...]]:
    """Canonical identity of a candidate spec — the dedup key of the
    enumeration."""
    return (spec.node_names, tuple(sorted(spec.outputs)))


def enumerate_candidate_specs(
    pg: PrimitiveGraph,
    config: KernelIdentifierConfig,
    report: KernelIdentifierReport,
) -> list[CandidateSpec]:
    """Enumeration half of Algorithm 1, on the bit-packed graph view.

    Emits exactly the spec list of :func:`enumerate_candidate_specs_reference`
    — same specs, same order, same report counters — with the set algebra
    running on :class:`~repro.orchestration.bitgraph.BitGraph` masks instead
    of frozensets (the cold-run hot path; see the bitgraph module docstring
    for why the orders coincide).
    """
    bg = BitGraph(pg)
    states = state_masks(bg, max_states=config.max_states)
    report.num_execution_states = len(states)

    convex = convex_masks(states, max_size=config.max_kernel_size)
    # Singletons are always candidates, even if the state-pair enumeration
    # was truncated: they are the fallback that keeps the BLP feasible.
    for bit in range(bg.num_nodes):
        convex.add(1 << bit)
    report.num_convex_sets = len(convex)

    specs: list[CandidateSpec] = []
    seen: set[tuple[int, tuple[str, ...]]] = set()
    output_tensor = bg.output_tensor
    for node_mask in sorted(convex, key=mask_sort_key):
        if len(specs) >= config.max_candidates:
            break
        if _prune_node_mask(bg, node_mask, config, report):
            continue
        required = bg.required_output_bits(node_mask)
        if not required:
            continue
        # Variants mirror _candidate_variants: one single-output candidate
        # per required output (restricted to its in-set ancestors), plus the
        # optional all-outputs candidate.
        variants: list[tuple[int, tuple[str, ...]]] = []
        emitted_full = False
        for bit in required:
            restricted = bg.ancestors_within(bit, node_mask)
            variants.append((restricted, (output_tensor[bit],)))
            if restricted == node_mask and len(required) == 1:
                emitted_full = True
        if config.allow_multi_output and len(required) > 1 and not emitted_full:
            variants.append((node_mask, tuple(output_tensor[bit] for bit in required)))
        for exec_mask, outputs in variants:
            key = (exec_mask, tuple(sorted(outputs)))
            if key in seen:
                continue
            seen.add(key)
            specs.append(CandidateSpec(bg.names_of(exec_mask), outputs))
            if len(specs) >= config.max_candidates:
                break
    return specs


def _prune_node_mask(
    bg: BitGraph,
    node_mask: int,
    config: KernelIdentifierConfig,
    report: KernelIdentifierReport,
) -> bool:
    """Mask twin of :func:`_prune_node_set` — same checks, same counters
    (including the historical quirk of counting opaque prunes as linear)."""
    size = node_mask.bit_count()
    if size > config.max_kernel_size:
        report.pruned_by_size += 1
        return True
    if (node_mask & bg.linear_mask).bit_count() > config.max_linear_per_kernel:
        report.pruned_by_linear += 1
        return True
    if node_mask & bg.opaque_mask and size > 1:
        report.pruned_by_linear += 1
        return True
    if config.require_connected and size > 1 and not bg.is_connected(node_mask):
        report.pruned_by_connectivity += 1
        return True
    return False


def enumerate_candidate_specs_reference(
    pg: PrimitiveGraph,
    config: KernelIdentifierConfig,
    report: KernelIdentifierReport,
) -> list[CandidateSpec]:
    """The original frozenset enumeration (specification of record).

    Deterministic in ``(pg structure, config)``; reads no tensor shapes or
    dtypes, so equal structures yield equal spec lists.  Enumeration stops at
    ``max_candidates`` specs, so a tight cap bounds this stage too.  (When
    the cap binds *and* profiling rejects some specs, the surviving set can
    be slightly smaller than the legacy interleaved flow's — both are
    arbitrary truncations under a safety valve that defaults to 50k.)
    """
    states = enumerate_execution_states(pg, max_states=config.max_states)
    report.num_execution_states = len(states)

    convex_sets = convex_subgraphs_from_states(states, max_size=config.max_kernel_size)
    # Singletons are always candidates, even if the state-pair enumeration
    # was truncated: they are the fallback that keeps the BLP feasible.
    for node in pg.nodes:
        convex_sets.add(frozenset({node.name}))
    report.num_convex_sets = len(convex_sets)

    nodes_by_name = {node.name: node for node in pg.nodes}
    specs: list[CandidateSpec] = []
    seen: set[tuple[frozenset[str], tuple[str, ...]]] = set()
    for node_set in sorted(convex_sets, key=lambda s: (len(s), sorted(s))):
        if len(specs) >= config.max_candidates:
            break
        if _prune_node_set(pg, node_set, nodes_by_name, config, report):
            continue
        for exec_names, outputs in _candidate_variants(pg, node_set, nodes_by_name, config):
            key = (exec_names, tuple(sorted(outputs)))
            if key in seen:
                continue
            seen.add(key)
            specs.append(CandidateSpec(exec_names, tuple(outputs)))
            if len(specs) >= config.max_candidates:
                break
    return specs


def _prune_node_set(
    pg: PrimitiveGraph,
    node_set: frozenset[str],
    nodes_by_name: dict[str, PrimitiveNode],
    config: KernelIdentifierConfig,
    report: KernelIdentifierReport,
) -> bool:
    """Apply the §6.5 pruning heuristics; returns True when pruned."""
    if len(node_set) > config.max_kernel_size:
        report.pruned_by_size += 1
        return True
    members = [nodes_by_name[name] for name in node_set]
    num_linear = sum(1 for node in members if node.is_linear)
    if num_linear > config.max_linear_per_kernel:
        report.pruned_by_linear += 1
        return True
    has_opaque = any(node.prim.category.value == "opaque" for node in members)
    if has_opaque and len(node_set) > 1:
        report.pruned_by_linear += 1
        return True
    if config.require_connected and len(node_set) > 1:
        if len(connected_components(pg, node_set)) > 1:
            report.pruned_by_connectivity += 1
            return True
    return False


def _candidate_variants(
    pg: PrimitiveGraph,
    node_set: frozenset[str],
    nodes_by_name: dict[str, PrimitiveNode],
    config: KernelIdentifierConfig,
):
    """Yield (execution set, output tensors) variants for a convex set.

    Possible outputs (Definition 3) are the members with a consumer
    outside the set, plus graph-output producers.  One single-output
    candidate is emitted per possible output (restricted to that output's
    ancestors inside the set, which is the part of the set the kernel
    actually needs), plus — optionally — one candidate materializing all
    required outputs at once.
    """
    members = [nodes_by_name[name] for name in node_set]
    _, required_outputs = pg.subset_io(members)
    if not required_outputs:
        return

    ancestors_cache: dict[str, set[str]] = {}

    def ancestors_within(target: PrimitiveNode) -> frozenset[str]:
        if target.name not in ancestors_cache:
            result: set[str] = {target.name}
            stack = [target]
            while stack:
                current = stack.pop()
                for pred in pg.predecessors(current):
                    if pred.name in node_set and pred.name not in result:
                        result.add(pred.name)
                        stack.append(pred)
            ancestors_cache[target.name] = result
        return frozenset(ancestors_cache[target.name])

    emitted_full = False
    for tensor in required_outputs:
        producer = pg.producer(tensor)
        if producer is None or producer.name not in node_set:
            continue
        restricted = ancestors_within(producer)
        yield restricted, [tensor]
        if restricted == node_set and len(required_outputs) == 1:
            emitted_full = True

    if config.allow_multi_output and len(required_outputs) > 1 and not emitted_full:
        yield frozenset(node_set), list(required_outputs)
