"""Two-period agent tests: budget identity, closed-form optimum against the
grid oracle, and demurrage as a progressive effective tax."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from popcoin_sim import (
    AgentProblem,
    NoEquilibriumError,
    budget_out2,
    effective_tax,
    max_affordable_out1,
    optimal_out1,
    optimal_out1_oracle,
    utility,
)


# --- budget -------------------------------------------------------------------


def test_budget_spend_everything_first_leaves_only_income():
    p = AgentProblem(basic_income=10, earned_income=40)
    assert budget_out2(p, 50) == approx(10.0)


def test_budget_hand_example():
    p = AgentProblem(basic_income=10, earned_income=0, interest_rate=0.0)
    assert budget_out2(p, 5) == approx(15.0)


def test_budget_carries_interest():
    p = AgentProblem(basic_income=10, earned_income=0, interest_rate=-0.02)
    assert budget_out2(p, 0) == approx(10 * 0.98 + 10)


def test_budget_rejects_overspend_without_borrowing():
    p = AgentProblem(basic_income=10, earned_income=0)
    with pytest.raises(ValueError):
        budget_out2(p, 10.5)
    assert budget_out2(
        AgentProblem(basic_income=10, earned_income=0, allow_borrowing=True), 10.5
    ) < 10


def test_problem_field_domains():
    with pytest.raises(ValueError):
        AgentProblem(basic_income=-1)
    with pytest.raises(ValueError):
        AgentProblem(basic_income=1, interest_rate=-1.0)
    with pytest.raises(ValueError):
        AgentProblem(basic_income=1, price_1=0.0)


# --- utility ------------------------------------------------------------------


def test_utility_zero_consumption():
    p = AgentProblem(basic_income=1)
    assert utility(p, 0.0, 0.0) == 0.0


def test_utility_square_numbers():
    p = AgentProblem(basic_income=1)
    assert utility(p, 4.0, 9.0) == approx(5.0)


def test_utility_price_homogeneity():
    p = AgentProblem(basic_income=1, price_1=1.0, price_2=1.0)
    q = AgentProblem(basic_income=1, price_1=4.0, price_2=4.0)
    assert utility(q, 8.0, 2.0) == approx(utility(p, 8.0, 2.0) / 2.0)


# --- closed-form optimum ----------------------------------------------------------


def test_optimum_no_income_no_interest_splits_evenly():
    # in1 = 0, R = 0, equal prices: spend exactly B now, carry nothing;
    # the second basic income covers period 2 at equal marginal utility
    p = AgentProblem(basic_income=10.0)
    assert optimal_out1(p) == approx(10.0)
    assert budget_out2(p, optimal_out1(p)) == approx(10.0)


def test_optimum_under_stable_census_demurrage_is_hand_to_mouth():
    # R = -alpha: carrying is taxed, so the interior optimum sits above
    # cash-on-hand and clamps to it -> spend the whole basic income
    p = AgentProblem(basic_income=10.0, interest_rate=-0.02)
    assert optimal_out1(p) == approx(10.0)
    report = effective_tax(p, 0.02)
    assert report.savings == approx(0.0)
    assert report.tax_rate == approx(0.0)


def test_optimum_large_windfall_frozen_value():
    # B = 1, in1 = 1e6, R = 0, equal prices: the interior formula gives
    # ((B + in1) + B) / 2 = 500001 exactly; verified against the grid oracle
    # at coarse scale before freezing.
    p = AgentProblem(basic_income=1.0, earned_income=1e6)
    assert optimal_out1(p) == approx(500001.0, rel=1e-12)
    # asymptotically the rich spend in1 / (2 + R) in period one
    assert optimal_out1(p) == approx(1e6 / 2, rel=1e-5)


def test_optimum_degenerate_no_resources():
    assert optimal_out1(AgentProblem(basic_income=0.0)) == 0.0
    assert optimal_out1_oracle(AgentProblem(basic_income=0.0)) == 0.0


@pytest.mark.parametrize(
    "grid_step, message",
    [
        (-1.0, "grid_step must be positive, got -1.0"),
        (0.0, "grid_step must be positive, got 0.0"),
        (math.inf, "grid_step must be finite, got inf"),
        (math.nan, "grid_step must be finite, got nan"),
    ],
)
def test_the_oracle_rejects_a_grid_step_that_is_not_positive_and_finite(grid_step, message):
    # unchecked, a step of -1.0 or inf reads only the boundary 3.0, where the optimum is 2.0
    for problem in (AgentProblem(1.0, 2.0), AgentProblem(basic_income=0.0)):
        with pytest.raises(ValueError) as excinfo:
            optimal_out1_oracle(problem, grid_step)
        assert str(excinfo.value) == message


def test_optimum_interior_oracle_agreement_examples():
    for p in [
        AgentProblem(basic_income=10.0, earned_income=100.0, interest_rate=0.1),
        AgentProblem(basic_income=10.0, earned_income=0.0, interest_rate=0.5),
        AgentProblem(basic_income=2.0, earned_income=7.0, interest_rate=-0.02, price_2=1.3),
        AgentProblem(basic_income=5.0, earned_income=3.0, price_1=2.0),
    ]:
        assert optimal_out1(p) == approx(optimal_out1_oracle(p), abs=2e-4)


def test_optimum_with_borrowing_can_exceed_cash():
    p = AgentProblem(basic_income=10.0, earned_income=0.0, interest_rate=0.0, price_2=1e6,
                     allow_borrowing=True)
    # period-2 consumption is nearly worthless, so borrow against it
    assert optimal_out1(p) > 10.0
    assert optimal_out1(p) <= max_affordable_out1(p)


@settings(deadline=None, max_examples=60)
@given(
    income=st.floats(min_value=0.5, max_value=20),
    windfall=st.floats(min_value=0.0, max_value=50),
    rate=st.floats(min_value=-0.3, max_value=0.5),
    price_ratio=st.floats(min_value=0.25, max_value=4.0),
)
def test_optimum_agrees_with_grid_oracle(income, windfall, rate, price_ratio):
    p = AgentProblem(
        basic_income=income,
        earned_income=windfall,
        interest_rate=rate,
        price_1=price_ratio,
        price_2=1.0,
    )
    assert optimal_out1(p) == approx(optimal_out1_oracle(p, grid_step=1e-4), abs=2.5e-4)


@given(
    income=st.floats(min_value=0.5, max_value=20),
    windfall=st.floats(min_value=0.0, max_value=50),
    rate=st.floats(min_value=-0.3, max_value=0.5),
)
def test_optimum_is_stationary_or_clamped(income, windfall, rate):
    """The optimum is always feasible, and when it sits clear of both
    endpoints it is a local maximum of the utility."""
    p = AgentProblem(basic_income=income, earned_income=windfall, interest_rate=rate)
    best = optimal_out1(p)
    cash = income + windfall
    assert 0.0 <= best <= cash * (1 + 1e-12)
    step = 1e-6 * max(cash, 1.0)
    if step < best < cash - step:
        lo = utility(p, best - step, budget_out2(p, best - step))
        mid = utility(p, best, budget_out2(p, best))
        hi = utility(p, best + step, budget_out2(p, best + step))
        assert mid >= lo - 1e-9 and mid >= hi - 1e-9


# --- demurrage as an effective tax ---------------------------------------------------


def test_tax_zero_for_hand_to_mouth_agents():
    p = AgentProblem(basic_income=10.0, earned_income=0.0, interest_rate=-0.02)
    assert effective_tax(p, 0.02).tax_rate == approx(0.0)


def test_tax_approaches_the_rich_limit():
    # alpha (1 - alpha) / (2 - alpha) as in1 grows without bound
    alpha = 0.02
    p = AgentProblem(basic_income=1.0, earned_income=1e9, interest_rate=-alpha)
    limit = alpha * (1 - alpha) / (2 - alpha)
    assert effective_tax(p, alpha).tax_rate == approx(limit, rel=1e-6)


def test_tax_vanishes_without_demurrage():
    p = AgentProblem(basic_income=10.0, earned_income=100.0, interest_rate=0.0)
    assert effective_tax(p, 0.0).demurrage_paid == 0.0


def test_tax_monotone_in_earned_income():
    alpha = 0.02
    rates = []
    for windfall in [0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0]:
        p = AgentProblem(basic_income=10.0, earned_income=windfall, interest_rate=-alpha)
        rates.append(effective_tax(p, alpha).tax_rate)
    assert rates == sorted(rates)  # progressive: richer pays a larger share
    assert rates[0] == approx(0.0)
    assert rates[-1] < alpha  # never exceeds the headline demurrage rate


@pytest.mark.parametrize(
    "call, outcome",
    [
        (optimal_out1, "optimal out1"),
        (lambda p: effective_tax(p, 0.5), "optimal out1"),
        (lambda p: budget_out2(p, 1.0), "second-period spending"),
        (max_affordable_out1, "largest first-period outlay"),
    ],
    ids=["optimal_out1", "effective_tax", "budget_out2", "max_affordable_out1"],
)
@pytest.mark.parametrize(
    "problem",
    [
        AgentProblem(10**400),  # an int plus the float default 0.0
        AgentProblem(10**400, 0),  # an int sum
        AgentProblem(1.0, 10**400, allow_borrowing=True),
        AgentProblem(1e308, 1e308),  # a float sum that overflows to inf
    ],
    ids=["int-float", "int-int", "borrowing", "inf"],
)
def test_a_cash_that_no_float_holds_has_no_equilibrium(call, outcome, problem):
    message = f"no {outcome}: the cash B + in1 passes the largest float"
    with pytest.raises(NoEquilibriumError) as excinfo:
        call(problem)
    assert str(excinfo.value) == message
