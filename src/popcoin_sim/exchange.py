"""Exchange-rate block: PPP anchor, money-market rates, UIP, overshooting.

The long-run exchange rate (fiat per unit of the basic-income currency) is
anchored by relative money-market clearing,

    E = (M_p / M_f) / ((L_p * Y_p) / (L_f * Y_f)),

so only relative supplies and relative money demand matter. Along balanced
growth the rate drifts at d = (mu_p - mu_f) - (g_p - g_f) per epoch, and
with supply growth tied to the census, domestic inflation is pi = n - g.

Short-run pricing is uncovered interest parity against an expected rate
equal to the long-run anchor:

    E_spot = E_expected / (1 + i_p - i_f).

Money-market rates come from M / P = L(i) * Y with the semi-log demand
L(i) = L0 * exp(-eta * i), the standard closed-form choice:

    i = -ln(M / (P * Y * L0)) / eta.

A one-off fiat supply expansion with sticky fiat prices then reproduces
exchange-rate overshooting: the fiat rate falls, parity pushes the spot
rate below the new long-run anchor, and both lie below the old anchor.
The policy currency's supply path is census-determined, so the experiment
deliberately offers no knob for shocking it. ``ExchangeScenario()`` is the
symmetric baseline of the exchange study and of the ``exchange`` input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import InvariantViolation, NoEquilibriumError


@dataclass(frozen=True)
class ExchangeScenario:
    """Two-economy snapshot; "pop" is the basic-income currency, "fiat" the peer.

    liquidity_* is the money-demand level L0 = L(0); income_* the real income
    Y; sticky_price_* the short-run price level used for money-market rates.
    Growth rates are per epoch. The defaults, every level 1.0 and every growth
    rate 0.0, are the symmetric baseline: parity with zero rates on both sides.
    """

    money_supply_pop: float = 1.0
    money_supply_fiat: float = 1.0
    liquidity_pop: float = 1.0
    liquidity_fiat: float = 1.0
    income_pop: float = 1.0
    income_fiat: float = 1.0
    sticky_price_pop: float = 1.0
    sticky_price_fiat: float = 1.0
    liquidity_elasticity: float = 1.0
    supply_growth_pop: float = 0.0
    supply_growth_fiat: float = 0.0
    income_growth_pop: float = 0.0
    income_growth_fiat: float = 0.0

    def __post_init__(self):
        for name in LEVEL_FIELDS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


# The levels, which must be positive: the fields whose baseline is positive.
LEVEL_FIELDS = tuple(spec.name for spec in fields(ExchangeScenario) if spec.default > 0)


def ppp_rate(scenario: ExchangeScenario) -> float:
    """Long-run anchor from relative supply over relative money demand.

    Raises NoEquilibriumError when the relative money demand or the anchor
    is not a positive finite float, as when extreme levels overflow or
    underflow them.
    """
    relative_supply = scenario.money_supply_pop / scenario.money_supply_fiat
    demand_fiat = scenario.liquidity_fiat * scenario.income_fiat
    relative_demand = (
        scenario.liquidity_pop * scenario.income_pop / demand_fiat if demand_fiat else math.inf
    )
    # a relative demand of 0 or inf leaves the anchor inf, 0 or nan
    anchor = relative_supply / relative_demand if relative_demand else math.inf
    if not 0 < anchor < math.inf:
        raise NoEquilibriumError(
            f"no long-run anchor: (M_p / M_f) / (L_p * Y_p / (L_f * Y_f)) = "
            f"{relative_supply} / {relative_demand} is not a positive finite number"
        )
    return anchor


def relative_depreciation(
    supply_growth_pop: float,
    supply_growth_fiat: float,
    income_growth_pop: float,
    income_growth_fiat: float,
) -> float:
    """Per-epoch log drift of the anchor: (mu_p - mu_f) - (g_p - g_f)."""
    return (supply_growth_pop - supply_growth_fiat) - (income_growth_pop - income_growth_fiat)


def inflation_rate(census_growth: float, income_growth: float) -> float:
    """Domestic inflation when supply tracks the census: pi = n - g."""
    return census_growth - income_growth


def money_market_rate(
    money_supply: float,
    sticky_price: float,
    income: float,
    liquidity: float,
    elasticity: float,
) -> float:
    """Nominal rate clearing M / P = L0 * exp(-eta * i) * Y.

    Raises NoEquilibriumError when M / (P * Y * L0) is not a positive finite
    float, as when extreme levels overflow or underflow it.
    """
    for name, value in (
        ("money_supply", money_supply),
        ("sticky_price", sticky_price),
        ("income", income),
        ("liquidity", liquidity),
        ("elasticity", elasticity),
    ):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    demand = sticky_price * income * liquidity
    ratio = money_supply / demand if demand else math.inf
    if not 0 < ratio < math.inf:
        raise NoEquilibriumError(
            f"no money-market rate: M / (P * Y * L0) = {ratio} is not a positive finite number"
        )
    return -math.log(ratio) / elasticity


def _side_rate(scenario: ExchangeScenario, side: str) -> float:
    """``money_market_rate`` of one side of ``scenario``, "pop" or "fiat"."""
    names = ("money_supply", "sticky_price", "income", "liquidity")
    levels = [getattr(scenario, f"{name}_{side}") for name in names]
    return money_market_rate(*levels, scenario.liquidity_elasticity)


def uip_spot_rate(rate_pop: float, rate_fiat: float, expected_rate: float) -> float:
    """Spot rate from uncovered interest parity, E_e / (1 + i_p - i_f)."""
    if expected_rate <= 0:
        raise ValueError(f"expected rate must be positive, got {expected_rate}")
    gross = 1.0 + rate_pop - rate_fiat
    if gross <= 0:
        raise NoEquilibriumError(
            f"no positive spot rate: 1 + i_p - i_f = {gross} is not positive"
        )
    return expected_rate / gross


@dataclass(frozen=True)
class OvershootingResult:
    """Spot/anchor rates around a fiat supply shock, plus the rates behind them."""

    spot_before: float
    longrun_before: float
    spot_after: float
    longrun_after: float
    rate_pop: float
    rate_fiat_before: float
    rate_fiat_after: float

    @property
    def overshoot(self) -> float:
        """How far the spot undershot the new anchor (positive = overshooting)."""
        return self.longrun_after - self.spot_after


def overshooting_experiment(
    scenario: ExchangeScenario, fiat_supply_shock: float
) -> OvershootingResult:
    """Expand the fiat money supply by ``fiat_supply_shock`` (a fraction >= 0)
    with sticky short-run prices and return spot/anchor rates before and after.

    The policy currency's money market is untouched — its supply is fixed by
    the census, which is the point of the comparison. For any positive shock
    the result satisfies spot_after < longrun_after < longrun_before; a
    violation raises InvariantViolation because it indicates a broken model,
    not bad input.
    """
    if fiat_supply_shock < 0:
        raise ValueError(
            f"fiat_supply_shock must be non-negative, got {fiat_supply_shock}"
        )
    shocked = replace(
        scenario,
        money_supply_fiat=scenario.money_supply_fiat * (1.0 + fiat_supply_shock),
    )
    rate_pop = _side_rate(scenario, "pop")
    rate_fiat_before, rate_fiat_after = _side_rate(scenario, "fiat"), _side_rate(shocked, "fiat")
    longrun_before = ppp_rate(scenario)
    longrun_after = ppp_rate(shocked)
    result = OvershootingResult(
        spot_before=uip_spot_rate(rate_pop, rate_fiat_before, longrun_before),
        longrun_before=longrun_before,
        spot_after=uip_spot_rate(rate_pop, rate_fiat_after, longrun_after),
        longrun_after=longrun_after,
        rate_pop=rate_pop,
        rate_fiat_before=rate_fiat_before,
        rate_fiat_after=rate_fiat_after,
    )
    if fiat_supply_shock > 0:
        ordered = result.spot_after < result.longrun_after < result.longrun_before
        if not ordered:
            raise InvariantViolation(
                "overshooting ordering failed: expected "
                f"spot_after {result.spot_after} < longrun_after {result.longrun_after}"
                f" < longrun_before {result.longrun_before}"
            )
    return result
