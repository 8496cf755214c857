"""Bitset solver core: packing, evaluation, and bit-identity vs reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    BinaryLinearProgram,
    BitsetProblem,
    SolverConfig,
    SolveStatus,
    solve_branch_and_bound,
    solve_greedy,
)
from repro.solver.bitset import iter_bits, solve_greedy_bitset
from repro.solver.greedy import _solve_greedy_reference

BITSET = SolverConfig(core="bitset")
REFERENCE = SolverConfig(core="reference")


def random_cover_problem(rng: random.Random, n: int | None = None) -> BinaryLinearProgram:
    """A random program inside the ±1/integer fragment (the BLP's shape)."""
    n = n or rng.randint(2, 12)
    p = BinaryLinearProgram("random")
    for i in range(n):
        p.add_variable(f"k{i}", round(rng.uniform(0.5, 5.0), 3))
    for _ in range(rng.randint(1, 2 * n)):
        size = rng.randint(1, min(4, n))
        indices = rng.sample(range(n), size)
        coeffs = {i: rng.choice([1, 1, 1, -1]) for i in indices}
        sense = rng.choice([">=", ">=", "<=", "=="])
        rhs = rng.randint(-1, 2) if sense != "<=" else rng.randint(0, 2)
        p.add_constraint(coeffs, sense, rhs)
    return p


class TestIterBits:
    def test_ascending_indices(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1011)) == [0, 1, 3]
        assert list(iter_bits(1 << 70)) == [70]

    def test_roundtrip(self):
        mask = 0b1101001
        assert sum(1 << i for i in iter_bits(mask)) == mask


class TestSolverConfig:
    def test_rejects_unknown_core(self):
        with pytest.raises(ValueError, match="unknown solver core"):
            SolverConfig(core="quantum")

    def test_defaults(self):
        config = SolverConfig()
        assert config.core == "bitset"


class TestBitsetProblem:
    def test_pack_and_evaluate(self):
        p = BinaryLinearProgram()
        for i in range(3):
            p.add_variable(f"x{i}", 1.0)
        p.add_constraint({0: 1, 1: 1}, ">=", 1)
        p.add_constraint({1: 1, 2: -1}, ">=", 0)
        bits = BitsetProblem.from_problem(p)
        assert bits is not None
        assert bits.pos == [0b011, 0b010]
        assert bits.neg == [0b000, 0b100]
        assert bits.lhs(0, 0b001) == 1
        assert bits.lhs(1, 0b100) == -1
        assert bits.is_feasible(0b010)
        assert not bits.is_feasible(0b100)

    def test_violated_matches_reference_semantics(self):
        p = BinaryLinearProgram()
        for i in range(2):
            p.add_variable(f"x{i}", 1.0)
        p.add_constraint({0: 1}, ">=", 1)
        p.add_constraint({1: 1}, "<=", 0)
        p.add_constraint({0: 1, 1: 1}, "==", 1)
        bits = BitsetProblem.from_problem(p)
        # x = {x1}: constraint 0 short by 1, constraint 1 over by 1, eq ok.
        assert bits.violated(0b10) == [(0, 1), (1, 1)]
        assert bits.violated(0b01) == []

    def test_refuses_non_unit_coefficients(self):
        p = BinaryLinearProgram()
        p.add_variable("x", 1.0)
        p.add_constraint({0: 2.0}, ">=", 1)
        assert BitsetProblem.from_problem(p) is None

    def test_refuses_fractional_rhs(self):
        p = BinaryLinearProgram()
        p.add_variable("x", 1.0)
        p.add_constraint({0: 1.0}, ">=", 0.5)
        assert BitsetProblem.from_problem(p) is None

    def test_mask_roundtrip(self):
        p = BinaryLinearProgram()
        for i in range(4):
            p.add_variable(f"x{i}", 1.0)
        bits = BitsetProblem.from_problem(p)
        values = [1, 0, 1, 0]
        assert bits.values_of(BitsetProblem.mask_of(values)) == values
        assert BitsetProblem.mask_of([0.9, 0.1, 1.0, 0.0]) == 0b101


class TestGreedyEquivalence:
    def test_non_unit_program_falls_back_to_reference(self):
        p = BinaryLinearProgram()
        p.add_variable("x", 1.0)
        p.add_constraint({0: 2.0}, ">=", 1)
        result = solve_greedy(p, config=BITSET)
        reference = solve_greedy(p, config=REFERENCE)
        assert result.status == reference.status
        assert result.values == reference.values

    def test_randomized_bit_identity(self):
        rng = random.Random(20260808)
        for _ in range(300):
            p = random_cover_problem(rng)
            fast = solve_greedy(p, config=BITSET)
            slow = solve_greedy(p, config=REFERENCE)
            assert fast.status == slow.status
            assert fast.values == slow.values
            # Same float summation order => exactly equal, not approximately.
            assert fast.objective == slow.objective

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_bit_identity(self, seed):
        p = random_cover_problem(random.Random(seed))
        fast = solve_greedy(p, config=BITSET)
        slow = solve_greedy(p, config=REFERENCE)
        assert (fast.status, fast.values, fast.objective) == (
            slow.status,
            slow.values,
            slow.objective,
        )


class TestGreedyMaxRounds:
    def _chain_problem(self, n: int = 6) -> BinaryLinearProgram:
        p = BinaryLinearProgram("chain")
        for i in range(n):
            p.add_variable(f"x{i}", 1.0 + i)
        for i in range(n):
            p.add_constraint({i: 1}, ">=", 1)
        return p

    def test_infeasible_when_rounds_exhausted(self):
        p = self._chain_problem(6)
        assert solve_greedy(p, max_rounds=2, config=BITSET).status == SolveStatus.INFEASIBLE
        assert solve_greedy(p, max_rounds=2, config=REFERENCE).status == SolveStatus.INFEASIBLE

    def test_reference_exits_as_soon_as_feasible(self, monkeypatch):
        """Regression: the loop must stop when violations empty mid-round,
        not keep scanning until ``max_rounds``."""
        from repro.solver import greedy as greedy_module

        calls = {"n": 0}
        original = greedy_module._violated_constraints

        def counting(problem, x):
            calls["n"] += 1
            return original(problem, x)

        monkeypatch.setattr(greedy_module, "_violated_constraints", counting)
        p = self._chain_problem(4)
        result = _solve_greedy_reference(p, max_rounds=10_000)
        assert result.status == SolveStatus.FEASIBLE
        # One scan up front + one per selection round; the old loop did
        # max_rounds scans regardless.
        assert calls["n"] == 5

    def test_bitset_exits_as_soon_as_feasible(self):
        class CountingBits(BitsetProblem):
            calls = 0

            def violated(self, x):
                type(self).calls += 1
                return super().violated(x)

        p = self._chain_problem(4)
        packed = BitsetProblem.from_problem(p)
        bits = CountingBits(
            packed.num_variables, packed.senses, packed.pos, packed.neg, packed.rhs
        )
        result = solve_greedy_bitset(p, bits, max_rounds=10_000)
        assert result.status == SolveStatus.FEASIBLE
        assert CountingBits.calls == 5


class TestBranchAndBoundEquivalence:
    def test_randomized_bit_identity(self):
        rng = random.Random(7)
        for _ in range(40):
            p = random_cover_problem(rng, n=rng.randint(2, 8))
            fast = solve_branch_and_bound(p, config=BITSET)
            slow = solve_branch_and_bound(p, config=REFERENCE)
            assert fast.status == slow.status
            assert fast.values == slow.values
            assert fast.objective == slow.objective
