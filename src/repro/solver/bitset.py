"""Bitset representation of the orchestration BLP's incidence structure.

The kernel-orchestration BLP (§4.2, Eq. 3/4) has a very particular shape:
every coefficient is exactly ``+1`` or ``-1`` and every right-hand side is a
small integer — each constraint is really "count of selected producers minus
count of selected consumers compared to an integer".  That makes the whole
problem an incidence matrix, which Python can evaluate with machine-word
operations: pack each constraint's positive and negative columns into two
ints (one bit per variable) and a constraint evaluation collapses from a
Python loop over ``(index, coef)`` pairs into two ``&`` + ``bit_count()``
calls.  The greedy cover's violated-constraint scan and help counts, and
branch and bound's integral feasibility checks, all run on this
representation.

:class:`BitsetProblem` is a *lossless* view: :meth:`from_problem` refuses
(returns ``None``) any program outside the ±1/integer fragment, and callers
fall back to the reference dict-of-sets path, so generality is never lost.
Selection order, tie-breaking, and float arithmetic of the greedy heuristic
are replicated exactly — the bitset core must produce bit-identical selected
kernels and objectives (asserted in tests and benchmarks), never merely
equivalent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .problem import BinaryLinearProgram, SolveResult, SolveStatus

__all__ = ["SolverConfig", "BitsetProblem", "iter_bits", "DEFAULT_SOLVER_CONFIG"]

#: Coefficients must be this close to ±1 and right-hand sides this close to
#: an integer for the bitset view to be lossless.
_EXACTNESS_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Solver-stack tuning knobs (speed only — never changes answers).

    ``core``
        ``"bitset"`` (default) evaluates constraints on :class:`BitsetProblem`
        whenever the program fits the ±1/integer fragment, falling back to the
        reference implementation otherwise; ``"reference"`` forces the
        original dict-of-sets path everywhere (kept for equivalence testing
        and as the readable specification of the algorithm).
    """

    core: str = "bitset"

    def __post_init__(self) -> None:
        if self.core not in ("bitset", "reference"):
            raise ValueError(f"unknown solver core {self.core!r}")


DEFAULT_SOLVER_CONFIG = SolverConfig()


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitsetProblem:
    """A :class:`BinaryLinearProgram` packed into per-constraint bit masks.

    For constraint ``i``, ``pos[i]`` has a bit per variable with coefficient
    ``+1`` and ``neg[i]`` per ``-1`` coefficient, so the left-hand side of an
    assignment mask ``x`` is ``(pos[i] & x).bit_count() - (neg[i] &
    x).bit_count()`` — exact integer arithmetic, no tolerance games.
    """

    __slots__ = ("num_variables", "senses", "pos", "neg", "rhs", "full_mask")

    def __init__(
        self,
        num_variables: int,
        senses: list[str],
        pos: list[int],
        neg: list[int],
        rhs: list[int],
    ) -> None:
        self.num_variables = num_variables
        self.senses = senses
        self.pos = pos
        self.neg = neg
        self.rhs = rhs
        self.full_mask = (1 << num_variables) - 1

    # ------------------------------------------------------------ conversion
    @classmethod
    def from_problem(cls, problem: BinaryLinearProgram) -> "BitsetProblem | None":
        """Pack ``problem`` into bitsets, or ``None`` if it does not fit.

        Only programs whose coefficients are all exactly ±1 and whose
        right-hand sides are integers are representable; anything else (none
        of the orchestration BLPs, but user-built programs may be arbitrary)
        must use the reference path.
        """
        senses: list[str] = []
        pos: list[int] = []
        neg: list[int] = []
        rhs: list[int] = []
        for constraint in problem.constraints:
            p = 0
            n = 0
            for index, coef in constraint.coeffs:
                if abs(coef - 1.0) <= _EXACTNESS_TOL:
                    p |= 1 << index
                elif abs(coef + 1.0) <= _EXACTNESS_TOL:
                    n |= 1 << index
                else:
                    return None
            r = round(constraint.rhs)
            if abs(constraint.rhs - r) > _EXACTNESS_TOL:
                return None
            senses.append(constraint.sense)
            pos.append(p)
            neg.append(n)
            rhs.append(int(r))
        return cls(problem.num_variables, senses, pos, neg, rhs)

    # ------------------------------------------------------------ evaluation
    def lhs(self, index: int, x: int) -> int:
        """Left-hand-side value of constraint ``index`` for assignment ``x``."""
        return (self.pos[index] & x).bit_count() - (self.neg[index] & x).bit_count()

    def violated(self, x: int) -> list[tuple[int, int]]:
        """``(constraint index, integer shortfall)`` for every violated
        constraint, in problem order — mirrors the reference scan exactly
        (integer shortfall ``>= 1`` iff float shortfall ``> 1e-6`` on the
        ±1/integer fragment)."""
        out: list[tuple[int, int]] = []
        for i in range(len(self.senses)):
            value = (self.pos[i] & x).bit_count() - (self.neg[i] & x).bit_count()
            sense = self.senses[i]
            if sense == ">=":
                shortfall = self.rhs[i] - value
            elif sense == "<=":
                shortfall = value - self.rhs[i]
            else:
                shortfall = abs(value - self.rhs[i])
            if shortfall > 0:
                out.append((i, shortfall))
        return out

    def is_feasible(self, x: int) -> bool:
        """Whether assignment mask ``x`` satisfies every constraint."""
        pos = self.pos
        neg = self.neg
        rhs = self.rhs
        for i, sense in enumerate(self.senses):
            value = (pos[i] & x).bit_count() - (neg[i] & x).bit_count()
            if sense == ">=":
                if value < rhs[i]:
                    return False
            elif sense == "<=":
                if value > rhs[i]:
                    return False
            elif value != rhs[i]:
                return False
        return True

    # ------------------------------------------------------- mask utilities
    @staticmethod
    def mask_of(values: Sequence[float]) -> int:
        """Pack a 0/1 assignment (possibly float-typed) into a mask."""
        mask = 0
        for index, value in enumerate(values):
            if value >= 0.5:
                mask |= 1 << index
        return mask

    def values_of(self, mask: int) -> list[int]:
        """Unpack a mask into the dense 0/1 list the solvers return."""
        return [(mask >> i) & 1 for i in range(self.num_variables)]


def solve_greedy_bitset(
    problem: BinaryLinearProgram,
    bits: BitsetProblem,
    max_rounds: int | None = None,
) -> SolveResult:
    """Bitset twin of :func:`repro.solver.greedy.solve_greedy`.

    Step-for-step identical to the reference heuristic — same constraint
    scan order, same most-violated pick (first maximum), same candidate
    order (ascending variable index), same ``(cost/helped, cost)``
    tie-breaking on the same float values, same descending-cost pruning pass
    — so the selected variables and objective are bit-identical.  Only the
    evaluation machinery differs: popcounts instead of per-pair Python
    loops.
    """
    n = problem.num_variables
    costs = problem.costs
    x = 0
    max_rounds = max_rounds or (4 * n + 16)
    infeasible = SolveResult(SolveStatus.INFEASIBLE, float("inf"), [0] * n, method="greedy")

    rounds = 0
    violated = bits.violated(x)
    while violated:
        if rounds >= max_rounds:
            return infeasible
        index, _ = max(violated, key=lambda item: item[1])
        # Candidates: unselected variables that reduce the shortfall —
        # positive coefficients for ">="/"==" rows, negative for "<=".
        helping = bits.neg[index] if bits.senses[index] == "<=" else bits.pos[index]
        candidate_mask = helping & ~x
        if not candidate_mask:
            return infeasible
        # Help counts over every currently-violated constraint.  Note the
        # asymmetry with the candidate pick above: the reference counts
        # negative coefficients as helping for both "<=" and "==" rows.
        counts: dict[int, int] = {}
        for ci, _ in violated:
            helps = bits.pos[ci] if bits.senses[ci] == ">=" else bits.neg[ci]
            for idx in iter_bits(helps & candidate_mask):
                counts[idx] = counts.get(idx, 0) + 1
        best_idx = min(
            iter_bits(candidate_mask),
            key=lambda idx: (costs[idx] / max(1, counts.get(idx, 0)), costs[idx]),
        )
        x |= 1 << best_idx
        rounds += 1
        violated = bits.violated(x)

    # Pruning pass: drop selected variables that are not needed, most
    # expensive first (stable sort keeps ascending index among equal costs,
    # matching the reference).
    for index in sorted(iter_bits(x), key=lambda i: -costs[i]):
        without = x & ~(1 << index)
        if bits.is_feasible(without):
            x = without

    values = bits.values_of(x)
    return SolveResult(
        SolveStatus.FEASIBLE, problem.objective(values), values, method="greedy"
    )
