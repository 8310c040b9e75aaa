"""Revenue-optimal task-delegation contracts under fairness constraints.

Exact solvers enumerate allocations and solve rational LPs; the dynamic-
programming solvers trade exactness of the optimum for polynomial scaling
in everything but the agent count while keeping the fairness guarantee
itself exact.  Public names are imported from their defining modules
(`faircon.core`, `faircon.dp`, `faircon.exact`, ...); the package root
holds only `__version__`.
"""

__version__ = "0.1.0"
