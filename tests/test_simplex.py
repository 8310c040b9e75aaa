"""The fraction-free simplex: its dual certificate, and agreement with the
Fraction reference simplex (status, x, value and pivot count) and with
HiGHS."""

import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from faircon import exact, simplex  # noqa: E402
from faircon.core import Allocation  # noqa: E402
from faircon.errors import FairconError  # noqa: E402
from faircon.instances import (  # noqa: E402
    gen_partition_ef,
    gen_partition_ef1,
    gen_partition_eps_ef,
    gen_pof_sqrt,
    gen_two_agent_hard,
)
from faircon.lp import build_ef_lp  # noqa: E402

from oracles import simplex_reference  # noqa: E402

# maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x <= 3,  x >= 3, as >= rows.
# The optimum is (3, 1) at value 11, and y = (2, 0, 1, 0) is a dual.
COST = [3, 2]
ROWS = [({0: -1, 1: -1}, -4), ({0: -1, 1: -3}, -6), ({0: -1}, -3), ({0: 1}, 3)]


class TestCertify:
    def test_accepts_the_dual(self):
        simplex._certify(COST, ROWS, [3, 1], [2, 0, 1, 0], 11, 1)
        # The same certificate over a common denominator d = 4.
        simplex._certify(COST, ROWS, [12, 4], [8, 0, 4, 0], 44, 4)

    def test_rejects_a_negative_dual(self):
        # x >= 3 is tight, so moving the multiplier of x <= 3 onto it with
        # the opposite sign keeps every other check exact.
        with pytest.raises(FairconError, match="negative dual"):
            simplex._certify(COST, ROWS, [3, 1], [2, 0, 0, -1], 11, 1)

    def test_rejects_a_perturbed_dual(self):
        with pytest.raises(FairconError, match="dual infeasible"):
            simplex._certify(COST, ROWS, [3, 1], [1, 0, 1, 0], 11, 1)
        with pytest.raises(FairconError, match="dual bound"):
            simplex._certify(COST, ROWS, [3, 1], [2, 1, 1, 0], 11, 1)

    def test_rejects_a_wrong_value(self):
        with pytest.raises(FairconError, match="dual bound"):
            simplex._certify(COST, ROWS, [3, 1], [2, 0, 1, 0], 12, 1)
        with pytest.raises(FairconError, match="primal value"):
            simplex._certify(COST, ROWS, [3, 0], [2, 0, 1, 0], 11, 1)

    def test_rejects_a_point_that_breaks_a_row(self):
        # x + y <= 4 is broken at (3, 2); x >= 3 at (2, 1) over d = 4, where
        # the row must be compared with rhs * d, not rhs.
        with pytest.raises(FairconError, match="infeasible point at row 0"):
            simplex._certify(COST, ROWS, [3, 2], [2, 0, 1, 0], 11, 1)
        with pytest.raises(FairconError, match="infeasible point at row 3"):
            simplex._certify(COST, ROWS, [8, 4], [8, 0, 4, 0], 44, 4)

    def test_rejects_a_negative_entry(self):
        # (3, -1) satisfies every row; only x >= 0 is broken.
        with pytest.raises(FairconError, match="negative variable"):
            simplex._certify(COST, ROWS, [3, -1], [2, 0, 1, 0], 11, 1)

    def test_maximize_reads_the_dual_from_its_tableau(self, monkeypatch):
        seen = []
        check = simplex._certify
        monkeypatch.setattr(simplex, "_certify", lambda *args: seen.append(args) or check(*args))
        # Without the degenerate x >= 3 row the dual is unique.
        objective = {k: F(v) for k, v in enumerate(COST)}
        rows = [({k: F(v) for k, v in coeffs.items()}, F(rhs)) for coeffs, rhs in ROWS[:3]]
        assert simplex.maximize(2, objective, rows)[:3] == (simplex.OPTIMAL, [3, 1], 11)
        [(_, _, x, y, value, d)] = seen
        assert [F(v, d) for v in x] == [3, 1] and F(value, d) == 11
        assert [F(v, d) for v in y] == [2, 0, 1]


class TestVariableIndex:
    """A row or objective index outside range(n_vars) would name a slack
    column, the rhs, or a column that is not there."""

    OBJECTIVE = {0: F(1), 1: F(1)}
    ROWS = [({0: F(-1)}, F(-1)), ({1: F(-1)}, F(-2))]

    def test_rejects_a_negative_index(self):
        with pytest.raises(FairconError, match="outside range"):
            simplex.maximize(2, self.OBJECTIVE, [*self.ROWS, ({-1: F(1)}, F(0))])
        with pytest.raises(FairconError, match="outside range"):
            simplex.maximize(2, {**self.OBJECTIVE, -1: F(1)}, self.ROWS)

    def test_rejects_an_index_past_the_variables(self):
        with pytest.raises(FairconError, match=r"outside range\(2\)"):
            simplex.maximize(2, self.OBJECTIVE, [*self.ROWS, ({2: F(-1)}, F(-1))])
        with pytest.raises(FairconError, match="outside range"):
            simplex.maximize(2, {**self.OBJECTIVE, 5: F(1)}, self.ROWS)


COEF = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 7])),
)


@st.composite
def lps(draw):
    """1-6 variables and 1-8 >= rows with mixed denominators, explicit and
    omitted zeros, rhs of both signs, and negated copies of earlier rows.
    A row and its negated copy form an equality, which can leave an
    artificial basic at zero for the drive-out, often on a negative pivot."""
    n_vars = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 8))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.integers(0, 3)) == 0:
            coeffs, rhs = rows[draw(st.integers(0, len(rows) - 1))]
            k = draw(st.sampled_from([F(-1), F(-1, 3)]))
            rows.append(({j: k * v for j, v in coeffs.items()}, k * rhs))
        else:
            coeffs = draw(st.dictionaries(st.integers(0, n_vars - 1), COEF, max_size=n_vars))
            rows.append((coeffs, draw(COEF)))
    objective = draw(st.dictionaries(st.integers(0, n_vars - 1), COEF, max_size=n_vars))
    return n_vars, objective, rows


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lps())
def test_matches_reference_on_drawn_lps(lp):
    assert simplex.maximize(*lp) == simplex_reference(*lp)


REPLAYS = [
    pytest.param(gen_partition_ef([1, 2]), exact.solve_opt_ef, id="exact-ef-partition-ef"),
    pytest.param(gen_two_agent_hard([1, 2]), exact.solve_opt_ef, id="exact-ef-two-agent-hard"),
    pytest.param(gen_partition_ef1([1]), exact.solve_opt_ef1, id="exact-ef1-partition-ef1"),
    pytest.param(gen_partition_ef([1, 2]), exact.solve_opt_efs, id="exact-efs-partition-ef"),
    pytest.param(
        gen_partition_eps_ef([1], F(1, 20)),
        lambda inst: exact.solve_opt_ef(inst, F(1, 20)),
        id="exact-eps-ef-partition-eps-ef",
    ),
]


@pytest.mark.parametrize("inst,solve", REPLAYS)
def test_matches_reference_on_solver_lps(monkeypatch, inst, solve):
    """Every LP an exact solve builds, the phase-1 drive-out pivots on
    negative entries included, replayed through both simplexes."""
    lps = []
    maximize = simplex.maximize

    def record(*lp):
        lps.append(lp)
        return maximize(*lp)

    monkeypatch.setattr(simplex, "maximize", record)
    solve(inst)
    assert lps
    for lp in lps:
        assert maximize(*lp) == simplex_reference(*lp)


# EF LPs of gen_pof_sqrt(9), 171 rows over 90 variables, in the order
# exact-ef's search solves them: its first three, which end infeasible, and
# its 56th and 57th, the first two optima.  Their rows are wide and sparse,
# and a hundred pivots or more fill them in.
WIDE = [
    ((0, 0, 0, 3, 4, 5, 6, 7, 8), simplex.INFEASIBLE, 124),
    ((0, 0, 3, 1, 4, 5, 6, 7, 8), simplex.INFEASIBLE, 141),
    ((0, 0, 3, 3, 4, 5, 6, 7, 8), simplex.INFEASIBLE, 125),
    ((0, 3, 3, 1, 4, 5, 6, 7, 8), simplex.OPTIMAL, 184),
    ((0, 3, 3, 4, 1, 5, 6, 7, 8), simplex.OPTIMAL, 184),
]


@pytest.mark.parametrize("assignment,status,pivots", WIDE)
def test_matches_reference_on_wide_lps(assignment, status, pivots):
    model = build_ef_lp(gen_pof_sqrt(9), Allocation(assignment, 9))
    lp = (model.n_vars, model.objective, model.rows)
    assert (model.n_vars, len(model.rows)) == (90, 171)
    got = simplex.maximize(*lp)
    assert (got[0], got[3]) == (status, pivots)
    assert got == simplex_reference(*lp)


def test_agrees_with_highs():
    """Status and value against scipy's HiGHS on seeded LPs that are
    bounded, unbounded and infeasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(20251018)

    def coef():
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 8])) if rng.random() < 0.7 else F(0)

    statuses = {0: simplex.OPTIMAL, 2: simplex.INFEASIBLE, 3: simplex.UNBOUNDED}
    seen = set()
    for _ in range(50):
        n_vars, n_rows = rng.randint(1, 6), rng.randint(1, 8)
        rows = [({j: coef() for j in range(n_vars)}, coef()) for _ in range(n_rows)]
        if rng.random() < 0.6:
            rows += [({j: F(-1)}, -F(rng.randint(1, 5))) for j in range(n_vars)]
        objective = {j: coef() for j in range(n_vars)}
        status, _, value, _ = simplex.maximize(n_vars, objective, rows)
        res = linprog(
            [-float(objective[j]) for j in range(n_vars)],
            A_ub=[[-float(c.get(j, 0)) for j in range(n_vars)] for c, _ in rows],
            b_ub=[-float(rhs) for _, rhs in rows],
            bounds=(0, None),
            method="highs",
        )
        assert status == statuses[res.status]
        if status == simplex.OPTIMAL:
            assert abs(float(value) + res.fun) <= 1e-7 * (1 + abs(float(value)))
        seen.add(status)
    assert seen == set(statuses.values())
