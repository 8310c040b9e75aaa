"""Property test: both FPTAS solvers keep their guarantees against the
envy-free optimum on drawn small instances."""

from fractions import Fraction as F
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from faircon import exact  # noqa: E402
from faircon.core import verify_ef1, verify_eps_ef  # noqa: E402
from faircon.dp import solve_ef1_fptas, solve_eps_ef_fptas  # noqa: E402
from faircon.instances import PROFILES, gen_random  # noqa: E402

from oracles import best_lp_reference  # noqa: E402


@st.composite
def small_instances(draw):
    """Seeded random instances with 2-3 agents and n*m <= 6, the shape
    drawn from a list so the larger shapes come up as often as 2x1."""
    n, m = draw(st.sampled_from(((2, 3), (3, 2), (2, 2), (3, 1), (2, 1))))
    return gen_random(n, m, draw(st.integers(0, 10**6)), draw(st.sampled_from(PROFILES)))


@settings(
    max_examples=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_instances())
def test_fptas_within_eps_of_opt_ef(inst):
    # OPT_EF from plain enumeration, independent of the exact solvers' search.
    with mock.patch.object(exact, "_best_lp", best_lp_reference):
        opt_ef = exact.solve_opt_ef(inst).revenue
    for eps in (F(1, 4), F(1, 10)):
        res = solve_eps_ef_fptas(inst, eps)
        assert verify_eps_ef(inst, res.contract, eps, tol=0)
        assert res.revenue >= opt_ef - eps
        if inst.n == 2:
            # f_bits 8 as acceptance criterion 5 runs it.
            res = solve_ef1_fptas(inst, eps, f_bits=8)
            assert verify_ef1(inst, res.contract, tol=0)[0]
            assert res.revenue >= opt_ef - eps
