"""BitGraph packing and the bitset-native enumeration's bit-identity."""

import pytest

from repro.fission import FissionEngine
from repro.ir import GraphBuilder
from repro.models import build_candy_block, build_efficientvit_attention_block
from repro.orchestration import KernelIdentifierConfig, KernelIdentifierReport
from repro.orchestration.bitgraph import (
    BitGraph,
    convex_masks,
    iter_bits,
    mask_sort_key,
    state_masks,
)
from repro.orchestration.identifier import (
    enumerate_candidate_specs,
    enumerate_candidate_specs_reference,
    spec_key,
)


def diamond_graph():
    b = GraphBuilder("diamond")
    x = b.input("x", (4, 8))
    left = b.relu(x)
    right = b.sigmoid(x)
    b.output(b.add(left, right))
    return b.build()


def primitive_graph(graph):
    pg, _ = FissionEngine().run(graph)
    return pg


class TestBitGraph:
    def test_mask_roundtrip(self):
        bg = BitGraph(primitive_graph(diamond_graph()))
        names = set(bg.names[:2])
        assert bg.names_of(bg.mask_of(names)) == frozenset(names)
        assert bg.mask_of([]) == 0
        assert bg.names_of(bg.full_mask) == frozenset(bg.names)

    def test_sort_key_matches_reference_order(self):
        bg = BitGraph(primitive_graph(diamond_graph()))
        masks = [bg.mask_of([name]) for name in bg.names] + [bg.full_mask]
        by_mask = sorted(masks, key=mask_sort_key)
        by_names = sorted(
            masks, key=lambda m: (m.bit_count(), sorted(bg.names_of(m)))
        )
        assert by_mask == by_names

    def test_connectivity(self):
        pg = primitive_graph(diamond_graph())
        bg = BitGraph(pg)
        assert bg.is_connected(bg.full_mask)
        assert bg.is_connected(0)
        # Two branch nodes with no edge between them are disconnected.
        disconnected = next(
            (
                (1 << i) | (1 << j)
                for i in range(bg.num_nodes)
                for j in range(i + 1, bg.num_nodes)
                if not bg.adj_mask[i] & (1 << j)
            ),
            None,
        )
        assert disconnected is not None
        assert not bg.is_connected(disconnected)

    def test_required_outputs_match_subset_io(self):
        pg = primitive_graph(diamond_graph())
        bg = BitGraph(pg)
        for mask in range(1, 1 << min(bg.num_nodes, 8)):
            names = bg.names_of(mask)
            nodes = [node for node in pg.nodes if node.name in names]
            _, outputs = pg.subset_io(nodes)
            assert [bg.output_tensor[bit] for bit in bg.required_output_bits(mask)] == outputs

    def test_state_masks_are_downward_closed(self):
        bg = BitGraph(primitive_graph(diamond_graph()))
        states = state_masks(bg, max_states=10_000)
        assert 0 in states
        for state in states:
            for bit in iter_bits(state):
                assert bg.pred_mask[bit] & ~state == 0

    def test_state_overflow_falls_back_to_prefixes(self):
        bg = BitGraph(primitive_graph(diamond_graph()))
        states = state_masks(bg, max_states=2)
        assert len(states) == bg.num_nodes + 1  # prefixes incl. empty
        assert states[-1] == bg.full_mask

    def test_convex_masks_respect_max_size(self):
        bg = BitGraph(primitive_graph(diamond_graph()))
        states = state_masks(bg, max_states=10_000)
        small = convex_masks(states, max_size=1)
        assert small and all(mask.bit_count() == 1 for mask in small)
        unbounded = convex_masks(states, max_size=None)
        assert small <= unbounded


class TestEnumerationBitIdentity:
    @pytest.mark.parametrize(
        "build",
        [diamond_graph, build_candy_block, build_efficientvit_attention_block],
        ids=["diamond", "candy_block", "efficientvit_block"],
    )
    def test_specs_and_report_match_reference(self, build):
        pg = primitive_graph(build())
        config = KernelIdentifierConfig(max_kernel_size=8)
        fast_report = KernelIdentifierReport()
        slow_report = KernelIdentifierReport()
        fast = enumerate_candidate_specs(pg, config, fast_report)
        slow = enumerate_candidate_specs_reference(pg, config, slow_report)
        assert [spec_key(s) for s in fast] == [spec_key(s) for s in slow]
        assert [s.outputs for s in fast] == [s.outputs for s in slow]
        assert fast_report.num_execution_states == slow_report.num_execution_states
        assert fast_report.num_convex_sets == slow_report.num_convex_sets
        assert fast_report.num_candidates_considered == slow_report.num_candidates_considered
        assert fast_report.pruned_by_size == slow_report.pruned_by_size
        assert fast_report.pruned_by_linear == slow_report.pruned_by_linear
        assert fast_report.pruned_by_connectivity == slow_report.pruned_by_connectivity

    def test_truncation_parity_at_candidate_cap(self):
        pg = primitive_graph(build_candy_block())
        config = KernelIdentifierConfig(max_kernel_size=8, max_candidates=5)
        fast = enumerate_candidate_specs(pg, config, KernelIdentifierReport())
        slow = enumerate_candidate_specs_reference(pg, config, KernelIdentifierReport())
        assert [spec_key(s) for s in fast] == [spec_key(s) for s in slow]
