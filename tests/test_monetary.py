"""Aggregate-dynamics tests: holding rate, supply recurrence and its fixed
point, stability band, and agreement with the integer ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from popcoin_sim import (
    PolicyParams,
    genesis,
    interest_rate,
    is_long_term_stable,
    mint_epoch_poplet,
    negative_rate_condition,
    run_macro,
    steady_state_supply,
    supply_step,
    total_supply_popcoin,
)


# --- holding rate ---------------------------------------------------------------


def test_interest_rate_stable_census():
    assert interest_rate(0.0, 0.02) == approx(-0.02)


def test_interest_rate_doubling_census():
    # gross factor 2 * 0.98 = 1.96
    assert interest_rate(1.0, 0.02) == approx(0.96)


def test_interest_rate_identity_limit():
    assert interest_rate(0.0, 0.0) == 0.0


def test_interest_rate_domain():
    with pytest.raises(ValueError):
        interest_rate(-1.0, 0.02)
    with pytest.raises(ValueError):
        interest_rate(0.0, 1.0)


def test_rate_sign_threshold():
    # rate crosses zero exactly at n = alpha / (1 - alpha)
    alpha = 0.02
    edge = alpha / (1 - alpha)
    assert interest_rate(edge, alpha) == approx(0.0, abs=1e-15)
    assert interest_rate(edge * 0.999, alpha) < 0
    assert interest_rate(edge * 1.001, alpha) > 0


# --- supply recurrence ------------------------------------------------------------


def test_supply_step_from_zero():
    assert supply_step(0.0, 0.0, 0.02, 2922, 100) == approx(292200.0)


def test_supply_step_fixed_point():
    cap = steady_state_supply(2922, 0.02, 100)
    assert supply_step(cap, 0.0, 0.02, 2922, 100) == approx(cap, rel=1e-12)


def test_supply_step_doubling_without_demurrage():
    assert supply_step(1000.0, 1.0, 0.0, 10, 20) == approx(2200.0)


def test_steady_state_supply_examples():
    assert steady_state_supply(2922, 0.02, 1000) == approx(146_100_000.0)
    assert steady_state_supply(1, 0.5, 1) == approx(2.0)


def test_steady_state_supply_domain():
    with pytest.raises(ValueError):
        steady_state_supply(2922, 0.02, 0)
    with pytest.raises(ValueError):
        steady_state_supply(2922, 0.0, 10)
    with pytest.raises(ValueError):
        steady_state_supply(2922, 1.0, 10)


def test_fixed_census_supply_converges_to_cap_from_zero():
    # gap to the cap shrinks by exactly (1 - alpha) per epoch
    macro = run_macro(2922, 0.02, [100] * 201, initial_supply=0.0)
    cap = steady_state_supply(2922, 0.02, 100)
    for state in macro:
        assert state.supply < cap
    gaps = [cap - s.supply for s in macro]
    for before, after in zip(gaps, gaps[1:]):
        assert after / before == approx(0.98, rel=1e-9)
    assert macro[-1].supply == approx(cap * (1 - 0.98**200), rel=1e-12)


@settings(deadline=None)
@given(
    census=st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=60),
    alpha=st.floats(min_value=0.005, max_value=0.6),
)
def test_demurrage_funds_income_exactly_on_the_manifold(census, alpha):
    """Starting at M_0 = B*N_0/alpha, every epoch satisfies D/M = alpha and
    supply growth equals census growth, whatever the census path does."""
    income = 2922.0
    macro = run_macro(income, alpha, census, steady_state_supply(income, alpha, census[0]))
    for state in macro:
        assert state.demurrage / state.supply == approx(alpha, rel=1e-11)
        # abs term covers growth near zero, rel term covers census jumps of
        # hundreds-fold where float error scales with the rate itself
        assert state.supply_growth == approx(state.census_growth, rel=1e-9, abs=1e-11)


def test_off_manifold_ratio_converges_geometrically():
    # From an empty ledger the demurrage share starts at 1 and decays toward
    # alpha like (1 - alpha)^t; at t = 1 it is nowhere near alpha.
    alpha = 0.02
    macro = run_macro(2922, alpha, [50] * 401, initial_supply=0.0)
    first = macro[0].demurrage / macro[0].supply
    assert first == approx(1.0)
    errors = [s.demurrage / s.supply - alpha for s in macro]
    assert all(e > 0 for e in errors)
    for before, after in zip(errors, errors[1:]):
        assert after < before
    # after t epochs the share is alpha / (1 - (1-alpha)^t)
    t = 400
    assert errors[-1] == approx(alpha / (1 - 0.98**t) - alpha, rel=1e-9)


def test_macro_series_matches_ledger_totals():
    # integer ledger vs float recurrence, both from zero, mixed census path
    params = PolicyParams(basic_income=2922, demurrage_alpha=0.02)
    path = [40] * 11 + [44] * 10 + [33] * 10
    state = genesis(params, [f"p{i}" for i in range(path[0])], poplet_scale=10**8)
    macro = run_macro(2922.0, 0.02, path, 0.0)
    ids = path[0]
    for step in macro:
        removed, added = [], []
        if step.census > state.census:
            added = [f"p{ids + k}" for k in range(step.census - state.census)]
            ids += len(added)
        elif step.census < state.census:
            removed = sorted(state.participants)[-(state.census - step.census):]
        state, _ = mint_epoch_poplet(state, params, step.census, added, removed)
        slack = max(path) * step.epoch * float(state.exchange_rate) + 1e-9 * step.supply
        assert total_supply_popcoin(state) == approx(step.supply, abs=slack)


def test_run_macro_rejects_bad_paths():
    with pytest.raises(ValueError):
        run_macro(2922, 0.02, [])
    with pytest.raises(ValueError):
        run_macro(2922, 0.02, [10, 0, 10])
    with pytest.raises(ValueError):
        run_macro(2922, 0.02, [10, 10], initial_supply=-1.0)


@pytest.mark.parametrize(
    "income, alpha, message",
    [
        (-5.0, 0.02, "basic_income must be positive, got -5.0"),
        (0.0, 0.02, "basic_income must be positive, got 0.0"),
        (2922.0, 7.0, "alpha must lie in [0, 1), got 7.0"),
        (2922.0, -0.5, "alpha must lie in [0, 1), got -0.5"),
    ],
)
def test_run_macro_checks_income_and_alpha_on_a_path_of_one_entry(income, alpha, message):
    # a path of one entry takes no step; a longer one raises supply_step's message
    for path in ([10], [10, 10]):
        with pytest.raises(ValueError) as raised:
            run_macro(income, alpha, path)
        assert str(raised.value) == message


# --- stability band ----------------------------------------------------------------


def test_constant_census_is_stable_for_any_band():
    assert is_long_term_stable([100] * 50, epsilon=0.0)
    assert is_long_term_stable([100] * 50, epsilon=0.5)


def test_doubling_census_breaks_a_tight_band():
    path = [100] * 10 + [200] * 10
    assert not is_long_term_stable(path, epsilon=0.1)
    # but only the transition epoch violates; after tau it is stable again
    assert is_long_term_stable(path, epsilon=0.1, tau=10)


def test_negative_rate_condition_threshold():
    assert negative_rate_condition(0.01, 0.02)  # 0.01 < 0.02/0.98
    assert not negative_rate_condition(0.05, 0.02)
    assert not negative_rate_condition(0.0204082, 0.02)  # just above alpha/(1-alpha)
    assert not negative_rate_condition(0.01, 0.0)  # no demurrage, no negative pin


@given(
    epsilon=st.floats(min_value=0.0, max_value=0.5),
    alpha=st.floats(min_value=0.001, max_value=0.5),
)
def test_negative_rate_condition_matches_rate_sign(epsilon, alpha):
    """Inside the band the worst case is n = +epsilon; the condition holds
    exactly when even that rate is negative."""
    worst = interest_rate(epsilon, alpha)
    if negative_rate_condition(epsilon, alpha):
        assert worst < 0
    else:
        assert worst >= -1e-15


def test_stability_epsilon_domain():
    with pytest.raises(ValueError):
        is_long_term_stable([1, 1], epsilon=-0.1)
    with pytest.raises(ValueError):
        negative_rate_condition(-0.1, 0.02)
