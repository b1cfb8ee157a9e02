"""Every public model function that rejects a parameter quotes it in full.

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
    overshooting_experiment,
    policy_transform,
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
