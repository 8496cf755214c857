"""Branch-and-bound 0/1 ILP solver built on LP relaxations.

A from-scratch exact solver for binary linear programs: best-first search over
variable fixings, bounded by the LP relaxation of each node and warm-started
by the greedy heuristic.  The LP relaxation can be solved either with the
bundled two-phase simplex (:mod:`repro.solver.simplex`) or with scipy's
``linprog`` (HiGHS) when available — the relaxation solver is injectable so
the two can be cross-checked in tests.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bitset import DEFAULT_SOLVER_CONFIG, BitsetProblem, SolverConfig
from .greedy import solve_greedy
from .problem import BinaryLinearProgram, SolveResult, SolveStatus
from .simplex import solve_lp

__all__ = ["BranchAndBoundSolver", "solve_branch_and_bound"]

_INTEGRALITY_TOL = 1e-6

LpRelaxationSolver = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[str, float, np.ndarray],
]


def _simplex_relaxation(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    """LP relaxation via the bundled simplex (lower bounds folded by shifting)."""
    # Fix variables whose bounds pin them, substitute, and solve the rest.
    n = c.size
    free = [i for i in range(n) if upper[i] - lower[i] > _INTEGRALITY_TOL]
    fixed_value = lower.copy()
    if not free:
        x = fixed_value
        feasible = np.all(a_ub @ x <= b_ub + 1e-7) if a_ub.size else True
        feasible = feasible and (np.allclose(a_eq @ x, b_eq, atol=1e-7) if a_eq.size else True)
        return ("optimal" if feasible else "infeasible", float(c @ x), x)

    a_ub_free = a_ub[:, free] if a_ub.size else np.zeros((0, len(free)))
    b_ub_free = b_ub - (a_ub @ fixed_value) if a_ub.size else np.zeros(0)
    a_eq_free = a_eq[:, free] if a_eq.size else np.zeros((0, len(free)))
    b_eq_free = b_eq - (a_eq @ fixed_value) if a_eq.size else np.zeros(0)
    result = solve_lp(
        c[free],
        a_ub_free,
        b_ub_free,
        a_eq_free,
        b_eq_free,
        upper_bounds=upper[free] - lower[free],
    )
    x = fixed_value.copy()
    if result.status == "optimal":
        x[free] = result.x + lower[free]
    return (result.status, float(c @ x), x)


def _scipy_relaxation(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    """LP relaxation via scipy.optimize.linprog (HiGHS)."""
    from scipy.optimize import linprog

    result = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    if not result.success:
        status = "infeasible" if result.status in (2,) else "error"
        return (status, float("inf"), np.zeros(c.size))
    return ("optimal", float(result.fun), np.asarray(result.x))


@dataclass(order=True)
class _Node:
    """One branch-and-bound search node, ordered by LP bound (best first)."""

    bound: float
    sequence: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    relaxation: np.ndarray = field(compare=False)


class BranchAndBoundSolver:
    """Best-first branch and bound over binary variables."""

    def __init__(
        self,
        use_scipy_relaxation: bool = True,
        max_nodes: int = 20000,
        gap_tolerance: float = 1e-9,
        config: SolverConfig | None = None,
    ) -> None:
        self.max_nodes = max_nodes
        self.gap_tolerance = gap_tolerance
        self.config = config or DEFAULT_SOLVER_CONFIG
        self._relaxation: LpRelaxationSolver
        if use_scipy_relaxation:
            self._relaxation = _scipy_relaxation
        else:
            self._relaxation = _simplex_relaxation

    def solve(self, problem: BinaryLinearProgram) -> SolveResult:
        """Solve ``problem`` to optimality (within ``max_nodes``)."""
        n = problem.num_variables
        if n == 0:
            return SolveResult(SolveStatus.OPTIMAL, 0.0, [], method="branch-and-bound")
        c, a_ub, b_ub, a_eq, b_eq = problem.to_matrices()
        bits = (
            BitsetProblem.from_problem(problem)
            if self.config.core == "bitset"
            else None
        )

        def feasible(values) -> bool:
            if bits is not None:
                return bits.is_feasible(BitsetProblem.mask_of(values))
            return problem.is_feasible(values)

        # Warm start with the greedy heuristic.
        incumbent = solve_greedy(problem, config=self.config)
        best_values = incumbent.values if incumbent.is_feasible else None
        best_objective = incumbent.objective if incumbent.is_feasible else math.inf

        counter = itertools.count()
        root_lower = np.zeros(n)
        root_upper = np.ones(n)
        status, bound, relaxation = self._relaxation(c, a_ub, b_ub, a_eq, b_eq, root_lower, root_upper)
        if status == "infeasible":
            return SolveResult(SolveStatus.INFEASIBLE, float("inf"), [0] * n, method="branch-and-bound")

        heap: list[_Node] = [_Node(bound, next(counter), root_lower, root_upper, relaxation)]
        nodes_explored = 0

        while heap and nodes_explored < self.max_nodes:
            node = heapq.heappop(heap)
            nodes_explored += 1
            if node.bound >= best_objective - self.gap_tolerance:
                continue  # cannot improve on the incumbent

            fractional = self._most_fractional(node.relaxation, node.lower, node.upper)
            if fractional is None:
                # Integral relaxation: new incumbent.
                values = [int(round(v)) for v in node.relaxation]
                if feasible(values) and problem.objective(values) < best_objective:
                    best_objective = problem.objective(values)
                    best_values = values
                continue

            for fixed_value in (1.0, 0.0):
                lower = node.lower.copy()
                upper = node.upper.copy()
                lower[fractional] = fixed_value
                upper[fractional] = fixed_value
                status, bound, relaxation = self._relaxation(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
                if status == "infeasible" or bound >= best_objective - self.gap_tolerance:
                    continue
                heapq.heappush(heap, _Node(bound, next(counter), lower, upper, relaxation))

        if best_values is None:
            return SolveResult(
                SolveStatus.INFEASIBLE, float("inf"), [0] * n,
                method="branch-and-bound", nodes_explored=nodes_explored,
            )
        status = SolveStatus.OPTIMAL if not heap or nodes_explored < self.max_nodes else SolveStatus.FEASIBLE
        return SolveResult(
            status,
            best_objective,
            best_values,
            method="branch-and-bound",
            nodes_explored=nodes_explored,
        )

    @staticmethod
    def _most_fractional(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> int | None:
        """Index of the most fractional unfixed variable, or None if integral."""
        fractionality = np.abs(x - np.round(x))
        fractionality[upper - lower < _INTEGRALITY_TOL] = 0.0
        index = int(np.argmax(fractionality))
        if fractionality[index] <= _INTEGRALITY_TOL:
            return None
        return index


def solve_branch_and_bound(problem: BinaryLinearProgram, **kwargs) -> SolveResult:
    """Convenience wrapper around :class:`BranchAndBoundSolver`."""
    return BranchAndBoundSolver(**kwargs).solve(problem)
