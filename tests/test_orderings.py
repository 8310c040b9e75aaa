"""Every method answers one question, how much revenue the principal keeps
under one fairness notion, so their revenues obey one ordering, asserted
here at tolerance 0:

- greedy <= OPT_EF;
- OPT_EF <= OPT_epsEF, OPT_EF1 and OPT_EFS, each of them <= OPT;
- round-robin <= OPT_EF1 and n^2 round-robin >= OPT;
- OPT_EF - eps <= dp-eps-ef <= OPT_epsEF;
- OPT_EF - eps <= dp-ef1 <= OPT_EF1.

OPT is the unconstrained optimum.  The DP rows' upper halves are what no
other test checks: a DP that accepts a contract its notion does not admit
can earn more than that notion's exact optimum.
"""

import itertools
import time
from fractions import Fraction as F

from faircon.core import greedy_ef, revenue, unconstrained_opt
from faircon.dp import solve_ef1_fptas, solve_eps_ef_fptas
from faircon.exact import solve_opt_ef, solve_opt_ef1, solve_opt_efs
from faircon.ext import round_robin_ef1
from faircon.instances import PROFILES, gen_example, gen_partition_ef1, gen_random

SHAPES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)] + [(2, 4)]

# (instance, eps): every profile at every shape up to 3x3 and at 2x4, each
# at eps 1/4 and 1/10 (60 seeded draws); the two draws on which a dp-eps-ef
# that verifies at 2 eps earns more than OPT_epsEF; every golden instance
# at its golden eps.
CASES = [
    (gen_random(n, m, 31_000 + 100 * k + t, profile), eps)
    for k, (n, m) in enumerate(SHAPES)
    for t, (profile, eps) in enumerate(itertools.product(PROFILES, (F(1, 4), F(1, 10))))
] + [
    (gen_random(2, 2, 31016), F(1, 10)),
    (gen_random(3, 3, 31315), F(1, 10)),
    (gen_example("5.2", F(1, 100)), F(1, 4)),
    (gen_random(2, 3, 1), F(1, 4)),
    (gen_partition_ef1([1]), F(1, 6)),
    (gen_random(2, 4, 7, "sparse-ability"), F(1, 4)),
    (gen_example("5.7", F(1, 4)), F(1, 4)),
]

# dp-ef1 at f_bits 8 on gen_random(3, 3, 31315) at eps 1/10 makes 707
# guess runs and 5,748,293 states, past the default budget of 5,000,000.
EF1_BUDGET_STATES = 10**7


def test_every_method_obeys_the_revenue_ordering():
    started = time.time()
    for case, (inst, eps) in enumerate(CASES):
        opt = unconstrained_opt(inst)
        opt_ef = solve_opt_ef(inst).revenue
        opt_eps_ef = solve_opt_ef(inst, eps).revenue
        opt_ef1 = solve_opt_ef1(inst).revenue
        opt_efs = solve_opt_efs(inst).revenue
        greedy = revenue(inst, greedy_ef(inst))
        rr = round_robin_ef1(inst).revenue
        dp_eps_ef = solve_eps_ef_fptas(inst, eps).revenue
        dp_ef1 = solve_ef1_fptas(inst, eps, EF1_BUDGET_STATES, f_bits=8).revenue
        where = (case, inst.n, inst.m, eps)

        assert greedy <= opt_ef, where
        assert all(opt_ef <= x <= opt for x in (opt_eps_ef, opt_ef1, opt_efs)), where
        assert rr <= opt_ef1 and inst.n**2 * rr >= opt, where
        assert opt_ef - eps <= dp_eps_ef <= opt_eps_ef, where
        assert opt_ef - eps <= dp_ef1 <= opt_ef1, where
    elapsed = time.time() - started
    assert elapsed < 10.0
    print(f"PASS orderings: {len(CASES)} instances ({elapsed:.2f}s)")
