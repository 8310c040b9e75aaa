"""Revenue-optimal task-delegation contracts under fairness constraints.

Exact solvers enumerate allocations and solve rational LPs; the dynamic-
programming solvers trade exactness of the optimum for polynomial scaling
in everything but the agent count while keeping the fairness guarantee
itself exact.
"""

from .core import (
    Allocation,
    Contract,
    FairnessReport,
    Instance,
    SolveResult,
    agent_task_utility,
    fairness_report,
    greedy_ef,
    minimum_wage,
    revenue,
    unconstrained_opt,
    utilities,
    verify_ef,
    verify_ef1,
    verify_efs,
    verify_eps_ef,
    verify_ir,
)
from .dp import (
    Discretization,
    adaptive_grid,
    dp_enumerate,
    solve_ef1_fptas,
    solve_eps_ef_fptas,
    uniform_grid,
    utility_guesses,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FairconError,
    InvalidInstanceError,
    NoViableAgentError,
)
from .exact import solve_opt_ef, solve_opt_ef1, solve_opt_efs
from .ext import round_robin_ef1
from .lp import LpModel, LpSolution, build_ef1_lp, build_ef_lp, build_efs_lp, solve_lp

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BudgetExceededError",
    "Contract",
    "DimensionMismatchError",
    "Discretization",
    "FairconError",
    "FairnessReport",
    "Instance",
    "InvalidInstanceError",
    "LpModel",
    "LpSolution",
    "NoViableAgentError",
    "SolveResult",
    "adaptive_grid",
    "agent_task_utility",
    "build_ef1_lp",
    "build_ef_lp",
    "build_efs_lp",
    "dp_enumerate",
    "fairness_report",
    "greedy_ef",
    "minimum_wage",
    "revenue",
    "round_robin_ef1",
    "solve_ef1_fptas",
    "solve_eps_ef_fptas",
    "solve_lp",
    "solve_opt_ef",
    "solve_opt_ef1",
    "solve_opt_efs",
    "unconstrained_opt",
    "uniform_grid",
    "utilities",
    "utility_guesses",
    "verify_ef",
    "verify_ef1",
    "verify_efs",
    "verify_eps_ef",
    "verify_ir",
]
