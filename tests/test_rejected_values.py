"""Every public model function that rejects a parameter quotes it in full.

A float parameter is also rejected when it is an int that no float holds,
on which the function's float arithmetic would raise ``OverflowError``.

A 5,001-digit int is past the interpreter's default int-to-str limit of 4,300
digits, so a message written by a bare f-string would raise the limit's own
``ValueError`` in its place. The messages are compared with digits written out
by hand, so the module also runs under another limit (``PYTHONINTMAXSTRDIGITS``).
"""

import pytest

from popcoin_sim import (
    AgentProblem,
    ExchangeScenario,
    SplitMix64,
    budget_out2,
    effective_tax,
    gini_bound,
    gini_bound_limit,
    interest_rate,
    is_long_term_stable,
    money_market_rate,
    negative_rate_condition,
    optimal_out1_oracle,
    overshooting_experiment,
    policy_transform,
    ppp_rate,
    ratio_bound,
    run_macro,
    steady_state_supply,
    supply_step,
    uip_spot_rate,
    variance_bound,
    worst_case_distribution,
)

HUGE = -(10**5000)
DIGITS = "-1" + "0" * 5000

CENSUS = "census must be at least 1, got "
EPSILON = "epsilon must be non-negative, got "

CASES = {
    "interest_rate": (lambda x: interest_rate(x, 0.5), "census growth must exceed -1, got "),
    "supply_step": (lambda x: supply_step(1.0, 0.0, 0.5, 1.0, x), CENSUS),
    "steady_state_supply": (lambda x: steady_state_supply(1.0, 0.5, x), CENSUS),
    "run_macro": (
        lambda x: run_macro(1.0, 0.5, [1, 2], initial_supply=x),
        "initial supply cannot be negative, got ",
    ),
    "is_long_term_stable": (lambda x: is_long_term_stable([1, 2], x), EPSILON),
    "negative_rate_condition": (lambda x: negative_rate_condition(x, 0.5), EPSILON),
    "policy_transform": (lambda x: policy_transform([1.0], x, 1.0), "alpha must lie in [0, 1), got "),
    "variance_bound": (lambda x: variance_bound(0.5, 1.0, x), CENSUS),
    "gini_bound": (lambda x: gini_bound(0.5, x), CENSUS),
    "gini_bound_limit": (lambda x: gini_bound_limit(x), "alpha must lie in [0, 1], got "),
    "ratio_bound": (lambda x: ratio_bound(0.5, x), CENSUS),
    "worst_case_distribution": (lambda x: worst_case_distribution(0.5, 1.0, x), CENSUS),
    "SplitMix64.below": (lambda x: SplitMix64(1).below(x), "bound must be positive, got "),
    "SplitMix64.draws": (lambda x: SplitMix64(1).draws(x), "count must be non-negative, got "),
    "ExchangeScenario": (
        lambda x: ExchangeScenario(money_supply_pop=x),
        "money_supply_pop must be positive, got ",
    ),
    "money_market_rate": (
        lambda x: money_market_rate(x, 1, 1, 1, 1),
        "money_supply must be positive, got ",
    ),
    "uip_spot_rate": (lambda x: uip_spot_rate(0.0, 0.0, x), "expected rate must be positive, got "),
    "overshooting_experiment": (
        lambda x: overshooting_experiment(ExchangeScenario(), x),
        "fiat_supply_shock must be non-negative, got ",
    ),
    "AgentProblem": (
        lambda x: AgentProblem(basic_income=x),
        "basic_income must be non-negative, got ",
    ),
    "budget_out2": (lambda x: budget_out2(AgentProblem(1.0), x), "out1 must be non-negative, got "),
    "effective_tax": (
        lambda x: effective_tax(AgentProblem(1.0), x),
        "alpha must lie in [0, 1), got ",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_a_rejected_parameter_is_quoted_in_full(call, message):
    with pytest.raises(ValueError) as excinfo:
        call(HUGE)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message + DIGITS


PAST = 10**5000
PAST_DIGITS = "1" + "0" * 5000

# each float parameter past the largest float, and the name its message gives
PAST_THE_FLOATS = {
    "steady_state_supply-basic_income": (lambda x: steady_state_supply(x, 0.5, 1), "basic_income"),
    "steady_state_supply-census": (lambda x: steady_state_supply(1.0, 0.5, x), "census"),
    "supply_step-prev_supply": (lambda x: supply_step(x, 0.0, 0.5, 1.0, 1), "prev_supply"),
    "supply_step-census_growth": (lambda x: supply_step(1.0, x, 0.5, 1.0, 1), "census growth"),
    "supply_step-basic_income": (lambda x: supply_step(1.0, 0.0, 0.5, x, 1), "basic_income"),
    "supply_step-census": (lambda x: supply_step(1.0, 0.0, 0.5, 1.0, x), "census"),
    "interest_rate": (lambda x: interest_rate(x, 0.5), "census growth"),
    "run_macro-initial_supply": (
        lambda x: run_macro(1.0, 0.5, [1, 2], initial_supply=x),
        "initial_supply",
    ),
    "run_macro-basic_income": (lambda x: run_macro(x, 0.5, [1]), "basic_income"),
    "gini_bound": (lambda x: gini_bound(0.5, x), "census"),
    "ratio_bound": (lambda x: ratio_bound(0.5, x), "census"),
    "variance_bound": (lambda x: variance_bound(0.5, 1.0, x), "census"),
    "uip_spot_rate-expected_rate": (lambda x: uip_spot_rate(0.0, 0.0, x), "expected rate"),
    "uip_spot_rate-rate_pop": (lambda x: uip_spot_rate(x, 0.0, 1.0), "rate_pop"),
    "uip_spot_rate-rate_fiat": (lambda x: uip_spot_rate(0.0, x, 1.0), "rate_fiat"),
    "ppp_rate": (lambda x: ppp_rate(ExchangeScenario(money_supply_pop=x)), "money_supply_pop"),
    "money_market_rate-money_supply": (lambda x: money_market_rate(x, 1, 1, 1, 1), "money_supply"),
    "money_market_rate-elasticity": (lambda x: money_market_rate(1, 1, 1, 1, x), "elasticity"),
    "AgentProblem-interest_rate": (lambda x: AgentProblem(1.0, interest_rate=x), "interest_rate"),
    "AgentProblem-price_1": (lambda x: AgentProblem(1.0, price_1=x), "price_1"),
    "AgentProblem-price_2": (lambda x: AgentProblem(1.0, price_2=x), "price_2"),
    "budget_out2-out1": (lambda x: budget_out2(AgentProblem(1.0, allow_borrowing=True), x), "out1"),
    "optimal_out1_oracle-grid_step": (
        lambda x: optimal_out1_oracle(AgentProblem(1.0), x),
        "grid_step",
    ),
}


@pytest.mark.parametrize("call, name", PAST_THE_FLOATS.values(), ids=PAST_THE_FLOATS.keys())
def test_an_int_that_no_float_holds_is_rejected_by_name(call, name):
    with pytest.raises(ValueError) as excinfo:
        call(PAST)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"{name} must lie within the float range, got {PAST_DIGITS}"


def test_a_parameter_of_either_sign_is_checked_against_the_float_range():
    with pytest.raises(ValueError) as excinfo:
        uip_spot_rate(0.0, -PAST, 1.0)
    assert str(excinfo.value) == f"rate_fiat must lie within the float range, got -{PAST_DIGITS}"
