"""Each library entry point refuses malformed input with a typed error
naming what is wrong, before any work is done."""

from fractions import Fraction as F

import pytest

from faircon.core import Allocation, Contract, Instance, agent_task_utility
from faircon.dp import adaptive_grid, solve_ef1_fptas, uniform_grid
from faircon.errors import DimensionMismatchError, InvalidInstanceError
from faircon.ext import efs_augment, embed_subsidized
from faircon.instances import gen_example, gen_independent_set, gen_partition_eps_ef, gen_random
from faircon.lp import build_ef_lp
from faircon.numeric import as_fraction


def two_by_two() -> Instance:
    return gen_random(2, 2, 1)


def one_task_contract(*subsidies) -> Contract:
    return Contract(Allocation((0,), 2), (F(1, 2),), subsidies or None)


# id -> (call, error type, message pattern).
GUARDS = {
    "instance-without-agents": (
        lambda: Instance((1,), (), ()), InvalidInstanceError, "need at least one agent",
    ),
    "allocation-without-agents": (
        lambda: Allocation((0,), 0), InvalidInstanceError, "n_agents must be positive",
    ),
    "allocation-agent-index-n": (
        lambda: Allocation((0, 2), 2), InvalidInstanceError, "task 1 assigned to invalid agent 2",
    ),
    "contract-alpha-length": (
        lambda: Contract(Allocation((0,), 2), (F(1, 2), F(1, 2))),
        DimensionMismatchError, "alpha length must equal task count",
    ),
    "contract-alpha-above-1": (
        lambda: Contract(Allocation((0,), 2), (F(3, 2),)),
        InvalidInstanceError, r"alpha\[0\]=3/2 outside \[0, 1\]",
    ),
    "contract-subsidy-length": (
        lambda: one_task_contract(0), DimensionMismatchError,
        "subsidies length must equal agent count",
    ),
    "contract-negative-subsidy": (
        lambda: one_task_contract(0, -1), InvalidInstanceError, "subsidies must be nonnegative",
    ),
    "utility-alpha-2": (
        lambda: agent_task_utility(two_by_two(), 0, 0, 2), InvalidInstanceError,
        r"alpha=2 outside \[0, 1\]",
    ),
    "as-fraction-bool": (lambda: as_fraction(True), TypeError, "bool is not a number"),
    "as-fraction-inf": (lambda: as_fraction(float("inf")), ValueError, "non-finite number: inf"),
    "as-fraction-none": (lambda: as_fraction(None), TypeError, "cannot interpret None"),
    "partition-eps-ef-eps-1/5": (
        lambda: gen_partition_eps_ef([1, 2], F(1, 5)), InvalidInstanceError,
        r"eps must lie in \(0, 1/5\)",
    ),
    "independent-set-self-loop": (
        lambda: gen_independent_set([[0, 1], [0]]), InvalidInstanceError, r"bad edge \(0,0\)",
    ),
    "independent-set-c-target-1/2": (
        lambda: gen_independent_set([[1], [0]], F(1, 2)), InvalidInstanceError,
        "approximation constant must be >= 1",
    ),
    "example-eps-0": (lambda: gen_example("5.2", 0), InvalidInstanceError, "eps must be positive"),
    "random-n-0": (lambda: gen_random(0, 2), InvalidInstanceError, "need n, m >= 1"),
    "ef-lp-allocation-size": (
        lambda: build_ef_lp(two_by_two(), Allocation((0, 1, 0), 2)), InvalidInstanceError,
        "allocation does not match instance",
    ),
    "uniform-grid-0-steps": (
        lambda: uniform_grid(two_by_two(), 0), InvalidInstanceError, "need at least one grid step",
    ),
    "adaptive-grid-0-steps": (
        lambda: adaptive_grid(two_by_two(), (0, 0), 0), InvalidInstanceError,
        "need at least one grid step",
    ),
    "dp-ef1-eps-0": (
        lambda: solve_ef1_fptas(two_by_two(), 0), InvalidInstanceError, "eps must be positive",
    ),
    "embed-contract-size": (
        lambda: embed_subsidized(one_task_contract(), efs_augment(two_by_two())[1]),
        DimensionMismatchError, "contract does not match the mapping",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call()
