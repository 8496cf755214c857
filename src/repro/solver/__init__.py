"""Binary linear programming solver stack.

The public entry point is :func:`solve_blp`, which picks the best available
exact method: scipy's HiGHS MILP when present (the production path, standing
in for the paper's PuLP), otherwise the bundled branch-and-bound solver, with
the greedy heuristic as an explicit opt-in for quick approximate answers.
"""

from __future__ import annotations

from .bitset import DEFAULT_SOLVER_CONFIG, BitsetProblem, SolverConfig
from .branch_and_bound import BranchAndBoundSolver, solve_branch_and_bound
from .greedy import solve_greedy
from .problem import BinaryLinearProgram, Constraint, SolveResult, SolveStatus
from .scipy_backend import scipy_milp_available, solve_with_scipy
from .simplex import LpResult, solve_lp

__all__ = [
    "BinaryLinearProgram",
    "BitsetProblem",
    "Constraint",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "DEFAULT_SOLVER_CONFIG",
    "solve_blp",
    "solve_with_scipy",
    "scipy_milp_available",
    "solve_branch_and_bound",
    "BranchAndBoundSolver",
    "solve_greedy",
    "solve_lp",
    "LpResult",
]


def solve_blp(
    problem: BinaryLinearProgram,
    method: str = "auto",
    time_limit_s: float | None = None,
    mip_rel_gap: float = 0.0,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Solve a binary linear program.

    Parameters
    ----------
    problem:
        The BLP to solve.
    method:
        ``"auto"`` (scipy MILP if available, else branch and bound),
        ``"scipy"``, ``"branch-and-bound"``, or ``"greedy"``.
    time_limit_s:
        Optional wall-clock limit passed to the scipy backend.
    mip_rel_gap:
        Optional relative optimality gap for the scipy backend.
    config:
        :class:`SolverConfig` selecting the evaluation core (bitset vs
        reference) for the in-repo solvers; never changes answers.
    """
    config = config or DEFAULT_SOLVER_CONFIG
    if method == "auto":
        method = "scipy" if scipy_milp_available() else "branch-and-bound"
    if method == "scipy":
        result = solve_with_scipy(problem, time_limit_s=time_limit_s, mip_rel_gap=mip_rel_gap)
        return _greedy_backstop(problem, result, config)
    if method == "branch-and-bound":
        return solve_branch_and_bound(problem, config=config)
    if method == "greedy":
        return solve_greedy(problem, config=config)
    raise ValueError(f"unknown solver method {method!r}")


def _greedy_backstop(
    problem: BinaryLinearProgram,
    result: SolveResult,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Guard a time/gap-limited exact solve with the greedy heuristic.

    Under a wall-clock limit a MILP solver may stop at an arbitrarily bad
    incumbent (observed: gap 0.999 on large orchestration subgraphs).  The
    greedy cover is cheap to compute, so whenever the exact solve came back
    without a proven optimum — infeasible-by-timeout or merely "feasible" —
    take the better of the two answers.
    """
    if result.status == SolveStatus.OPTIMAL:
        return result
    greedy = solve_greedy(problem, config=config)
    if not greedy.is_feasible:
        return result
    if not result.is_feasible or greedy.objective < result.objective:
        greedy.method = f"{result.method}+greedy-backstop" if result.method else "greedy-backstop"
        greedy.gap = result.gap
        return greedy
    return result
