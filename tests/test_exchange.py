"""Exchange-block tests: PPP anchor, money-market rates, UIP, inflation
identity, and the overshooting experiment."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from popcoin_sim import (
    ConfigError,
    ExchangeScenario,
    InvariantViolation,
    NoEquilibriumError,
    inflation_rate,
    money_market_rate,
    overshooting_experiment,
    ppp_rate,
    relative_depreciation,
    uip_spot_rate,
)
from popcoin_sim.scenario import normalize_exchange_params

SYMMETRIC = ExchangeScenario()


# --- long-run anchor --------------------------------------------------------------


def test_ppp_symmetric_economies_trade_at_parity():
    assert ppp_rate(SYMMETRIC) == approx(1.0)


def test_ppp_halves_when_fiat_supply_doubles():
    doubled = replace(SYMMETRIC, money_supply_fiat=2.0)
    assert ppp_rate(doubled) == approx(0.5)


def test_ppp_depends_only_on_relative_magnitudes():
    scaled = replace(
        SYMMETRIC,
        money_supply_pop=7.0,
        money_supply_fiat=7.0,
        liquidity_pop=3.0,
        liquidity_fiat=3.0,
        income_pop=2.5,
        income_fiat=2.5,
    )
    assert ppp_rate(scaled) == approx(1.0)


@pytest.mark.parametrize(
    "levels",
    [
        {"liquidity_fiat": 1e-300, "income_fiat": 1e-300},  # L_f * Y_f underflows to 0
        {"liquidity_pop": 1e-300, "income_pop": 1e-300},  # relative demand 0
        {"liquidity_pop": 1e300, "income_pop": 1e300},  # relative demand inf
        {"money_supply_pop": 1e-300, "money_supply_fiat": 1e300},  # anchor 0
        {"money_supply_pop": 1e300, "liquidity_pop": 1e-300},  # anchor inf
    ],
    ids=["fiat-demand-0", "demand-0", "demand-inf", "anchor-0", "anchor-inf"],
)
def test_ppp_without_a_finite_anchor_has_no_equilibrium(levels):
    with pytest.raises(NoEquilibriumError, match="no long-run anchor"):
        ppp_rate(replace(SYMMETRIC, **levels))


@pytest.mark.parametrize("spec", fields(ExchangeScenario), ids=lambda spec: spec.name)
def test_dataclass_and_schema_share_each_field_baseline_and_rule(spec):
    # one baseline: every level 1.0 and every growth rate 0.0, in both
    assert ExchangeScenario() == ExchangeScenario(**normalize_exchange_params({})["scenario"])
    assert getattr(ExchangeScenario(), spec.name) == (0.0 if "growth" in spec.name else 1.0)
    if "growth" in spec.name:  # any number, including a shrinking economy
        assert getattr(ExchangeScenario(**{spec.name: -1.0}), spec.name) == -1.0
        params = normalize_exchange_params({"scenario": {spec.name: -1.0}})
        assert params["scenario"][spec.name] == -1.0
    else:  # a level must be positive
        with pytest.raises(ValueError, match=f"^{spec.name} must be positive, got 0"):
            ExchangeScenario(**{spec.name: 0.0})
        with pytest.raises(ConfigError) as excinfo:
            normalize_exchange_params({"scenario": {spec.name: 0}})
        assert excinfo.value.diagnostics == [
            f"input.scenario.{spec.name}: must be positive, got 0"
        ]


def test_scenario_rejects_nonpositive_quantities():
    with pytest.raises(ValueError):
        replace(SYMMETRIC, money_supply_fiat=0.0)
    with pytest.raises(ValueError):
        replace(SYMMETRIC, liquidity_elasticity=-1.0)


# --- drift and inflation ------------------------------------------------------------


def test_depreciation_matched_growth_is_flat():
    assert relative_depreciation(0.01, 0.01, 0.02, 0.02) == approx(0.0)


def test_depreciation_against_inflating_fiat():
    # fiat printing 7% with everything else equal appreciates the policy
    # currency at 7% per epoch
    assert relative_depreciation(0.0, 0.07, 0.0, 0.0) == approx(-0.07)


def test_depreciation_real_growth_differential():
    assert relative_depreciation(0.01, 0.01, 0.03, 0.01) < 0


def test_inflation_identity():
    assert inflation_rate(0.0, 0.03) == approx(-0.03)
    assert inflation_rate(0.02, 0.02) == 0.0
    assert inflation_rate(0.01, 0.005) == approx(0.005)


def test_drift_consistent_with_anchor_path():
    """The drift is a log-growth identity: walking supplies and incomes at
    continuous rates mu and g, the anchor's log path equals t * drift to
    float precision (1e-9 over 100 epochs)."""
    mu_p, mu_f, g_p, g_f = 0.004, 0.009, 0.002, 0.0035
    drift = relative_depreciation(mu_p, mu_f, g_p, g_f)
    scenario = SYMMETRIC
    log_e = math.log(ppp_rate(scenario))
    for t in range(1, 101):
        scenario = replace(
            scenario,
            money_supply_pop=math.exp(mu_p * t),
            money_supply_fiat=math.exp(mu_f * t),
            income_pop=math.exp(g_p * t),
            income_fiat=math.exp(g_f * t),
        )
        assert math.log(ppp_rate(scenario)) == approx(log_e + t * drift, abs=1e-9)


# --- money market -----------------------------------------------------------------


def test_money_market_rate_at_liquidity_level_is_zero():
    assert money_market_rate(1.0, 1.0, 1.0, 1.0, 1.0) == approx(0.0)


def test_money_market_rate_e_folding():
    # real balances at e^-1 of the zero-rate demand level clear at i = 1/eta
    assert money_market_rate(math.exp(-1), 1.0, 1.0, 1.0, 1.0) == approx(1.0)
    assert money_market_rate(math.exp(-1), 1.0, 1.0, 1.0, 2.0) == approx(0.5)


def test_money_market_rate_decreases_in_supply():
    tight = money_market_rate(0.5, 1.0, 1.0, 1.0, 1.0)
    loose = money_market_rate(1.5, 1.0, 1.0, 1.0, 1.0)
    assert tight > 0 > loose


def test_money_market_rate_domain():
    with pytest.raises(ValueError):
        money_market_rate(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        money_market_rate(1.0, 1.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "levels",
    [
        (1e-300, 1.0, 1e300, 1.0),  # the ratio underflows to 0
        (1.0, 1e300, 1e300, 1.0),  # the demand overflows, so the ratio is 0
        (1e300, 1e-300, 1e-300, 1.0),  # the demand underflows to 0
        (1e300, 1e-300, 1.0, 1.0),  # the ratio overflows
    ],
)
def test_money_market_rate_without_a_finite_log_has_no_equilibrium(levels):
    # positive finite levels whose ratio M / (P * Y * L0) leaves the floats
    with pytest.raises(NoEquilibriumError, match="not a positive finite number"):
        money_market_rate(*levels, 1.0)


@given(
    supply=st.floats(min_value=0.1, max_value=10),
    price=st.floats(min_value=0.1, max_value=10),
    income=st.floats(min_value=0.1, max_value=10),
    eta=st.floats(min_value=0.05, max_value=20),
)
def test_money_market_rate_clears_the_market(supply, price, income, eta):
    rate = money_market_rate(supply, price, income, 1.0, eta)
    demand = math.exp(-eta * rate) * income
    assert supply / price == approx(demand, rel=1e-9)


# --- interest parity -----------------------------------------------------------------


def test_uip_equal_rates_price_at_expectation():
    assert uip_spot_rate(0.03, 0.03, 1.4) == approx(1.4)


def test_uip_positive_differential_discounts_spot():
    assert uip_spot_rate(0.05, 0.0, 1.0) == approx(1 / 1.05)
    assert uip_spot_rate(0.05, 0.0, 1.0) == approx(0.95238, abs=5e-6)


def test_uip_no_equilibrium():
    with pytest.raises(NoEquilibriumError):
        uip_spot_rate(-1.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        uip_spot_rate(0.0, 0.0, -1.0)


@given(
    rate_pop=st.floats(min_value=-0.5, max_value=0.5),
    rate_fiat=st.floats(min_value=-0.5, max_value=0.5),
    expected=st.floats(min_value=0.01, max_value=100),
)
def test_uip_back_substitution(rate_pop, rate_fiat, expected):
    """Holding either currency for one epoch earns the same expected gross
    return at the UIP spot price. The corners of the square where
    1 + i_p - i_f reaches zero have no positive spot price."""
    if 1 + rate_pop - rate_fiat <= 0:
        with pytest.raises(NoEquilibriumError):
            uip_spot_rate(rate_pop, rate_fiat, expected)
        return
    spot = uip_spot_rate(rate_pop, rate_fiat, expected)
    assert spot * (1 + rate_pop - rate_fiat) == approx(expected, rel=1e-12)


# --- overshooting ---------------------------------------------------------------------


def test_overshooting_zero_shock_is_a_fixed_point():
    result = overshooting_experiment(SYMMETRIC, 0.0)
    assert result.spot_before == approx(1.0)
    assert result.longrun_before == approx(1.0)
    assert result.spot_after == approx(result.spot_before)
    assert result.longrun_after == approx(result.longrun_before)
    assert result.overshoot == approx(0.0)


def test_overshooting_ten_percent_fiat_expansion():
    result = overshooting_experiment(SYMMETRIC, 0.10)
    assert result.longrun_after == approx(1 / 1.1, rel=1e-12)
    assert result.rate_fiat_after == approx(-math.log(1.1), rel=1e-12)
    assert result.spot_after < result.longrun_after < result.longrun_before
    assert result.overshoot > 0


def test_overshooting_rejects_negative_shock():
    with pytest.raises(ValueError):
        overshooting_experiment(SYMMETRIC, -0.1)


def test_overshooting_has_no_policy_supply_knob():
    """The policy currency's supply is census-determined; the experiment
    exposes only the fiat shock."""
    import inspect

    signature = inspect.signature(overshooting_experiment)
    assert list(signature.parameters) == ["scenario", "fiat_supply_shock"]


def test_overshooting_detects_a_broken_ordering():
    # a policy-side money market already below the post-shock fiat rate
    # inverts the parity discount, which the experiment must refuse to bless
    lopsided = replace(SYMMETRIC, money_supply_pop=1.1)
    with pytest.raises(InvariantViolation):
        overshooting_experiment(lopsided, 0.01)


@given(
    shock=st.floats(min_value=1e-4, max_value=1.0),
    eta=st.floats(min_value=0.1, max_value=10.0),
)
def test_overshooting_ordering_holds_across_the_grid(shock, eta):
    scenario = replace(SYMMETRIC, liquidity_elasticity=eta)
    result = overshooting_experiment(scenario, shock)
    assert result.spot_after < result.longrun_after < result.longrun_before
    # sticky prices make the jump strictly larger than the long-run move
    assert result.spot_after < result.longrun_after
