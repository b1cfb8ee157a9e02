"""Aggregate monetary dynamics: holding rate, supply recurrence, stability.

The per-epoch return on holding one unit through redenomination and
demurrage is

    R_t = (1 + n_t) * (1 - alpha) - 1,

where ``n_t`` is census growth. Aggregate supply follows

    M_t = M_{t-1} * (1 + n_t) * (1 - alpha) + B * N_t,

whose fixed point under a constant census is B*N/alpha. Starting exactly on
that manifold (M_0 = B*N_0/alpha) the demurrage-to-supply ratio equals alpha
and supply growth tracks census growth at every epoch, for any census path;
starting from zero the ratio converges geometrically like (1-alpha)^t
instead. These functions are float-valued — the exact-arithmetic route is
the ledger itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    _MAX_FLOAT,
    _check_above_minus_one,
    _check_float,
    _check_non_negative,
    _check_positive,
    _check_positive_float,
    _int_text,
)


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {_int_text(alpha)}")


def _check_alpha_closed(alpha: float) -> None:
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {_int_text(alpha)}")


def _check_census(census: int) -> None:
    """A census of at least 1 that a float holds, checked at one more
    comparison where it passes, since ``supply_step`` runs once per epoch."""
    if census < 1:
        raise ValueError(f"census must be at least 1, got {_int_text(census)}")
    if census > _MAX_FLOAT:
        _check_float("census", census)


def interest_rate(census_growth: float, alpha: float) -> float:
    """Effective per-epoch rate on held balances, (1+n)(1-alpha) - 1.

    Positive only when census growth outruns demurrage; alpha = 0 is the
    pure-redenomination limit.
    """
    _check_above_minus_one("census growth", census_growth)
    _check_alpha(alpha)
    return (1.0 + census_growth) * (1.0 - alpha) - 1.0


def supply_step(
    prev_supply: float, census_growth: float, alpha: float, basic_income: float, census: int
) -> float:
    """One step of the aggregate supply recurrence; ``census`` is N_t (post-growth)."""
    _check_above_minus_one("census growth", census_growth)
    _check_census(census)
    _check_positive("basic_income", basic_income)
    # the float range at one comparison each where the value passes, as in
    # _check_census: the step runs once per epoch
    if basic_income > _MAX_FLOAT:
        _check_float("basic_income", basic_income)
    if prev_supply < 0:
        raise ValueError(f"supply cannot be negative, got {_int_text(prev_supply)}")
    if prev_supply > _MAX_FLOAT:
        _check_float("prev_supply", prev_supply)
    _check_alpha(alpha)
    return prev_supply * (1.0 + census_growth) * (1.0 - alpha) + basic_income * census


def steady_state_supply(basic_income: float, alpha: float, census: int) -> float:
    """Fixed point B*N/alpha of the supply recurrence; also the supply cap
    for a census that never exceeds N."""
    _check_census(census)
    _check_positive_float("basic_income", basic_income)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {_int_text(alpha)}")
    return basic_income * census / alpha


@dataclass(frozen=True)
class MacroState:
    """One epoch of the aggregate series.

    ``demurrage`` is the amount withdrawn-and-reissued this epoch (B*N_t);
    ``supply_growth`` is M_t/M_{t-1} - 1, NaN when the previous supply was
    zero.
    """

    epoch: int
    census: int
    census_growth: float
    supply: float
    demurrage: float
    interest: float
    supply_growth: float


def run_macro(
    basic_income: float,
    alpha: float,
    census_path: Sequence[int],
    initial_supply: float = 0.0,
) -> list[MacroState]:
    """Iterate the supply recurrence along a census path.

    ``census_path[0]`` is N_0 (paired with ``initial_supply``); one MacroState
    is produced per subsequent entry. Pass
    ``steady_state_supply(basic_income, alpha, census_path[0])`` as the
    initial supply to start on the demurrage-funding manifold.
    """
    if len(census_path) < 1 or any(n < 1 for n in census_path):
        raise ValueError("census path must be non-empty with every entry >= 1")
    if initial_supply < 0:
        raise ValueError(f"initial supply cannot be negative, got {_int_text(initial_supply)}")
    _check_float("initial_supply", initial_supply)
    _check_positive_float("basic_income", basic_income)  # a path of one entry takes no step
    _check_alpha(alpha)
    states = []
    supply_prev = float(initial_supply)
    for t in range(1, len(census_path)):
        n_t = census_path[t] / census_path[t - 1] - 1.0
        supply = supply_step(supply_prev, n_t, alpha, basic_income, census_path[t])
        states.append(
            MacroState(
                epoch=t,
                census=census_path[t],
                census_growth=n_t,
                supply=supply,
                demurrage=basic_income * census_path[t],
                interest=interest_rate(n_t, alpha),
                supply_growth=(supply / supply_prev - 1.0) if supply_prev > 0 else float("nan"),
            )
        )
        supply_prev = supply
    return states


def is_long_term_stable(census_path: Sequence[int], epsilon: float, tau: int = 0) -> bool:
    """True when |N_t/N_{t-1} - 1| <= epsilon for every epoch t > tau."""
    _check_non_negative("epsilon", epsilon)
    _check_non_negative("tau", tau)
    for t in range(max(1, tau + 1), len(census_path)):
        if abs(census_path[t] / census_path[t - 1] - 1.0) > epsilon:
            return False
    return True


def negative_rate_condition(epsilon: float, alpha: float) -> bool:
    """True when the stability band pins the holding rate negative.

    Under |n| <= epsilon the rate (1+n)(1-alpha)-1 stays below zero exactly
    when epsilon < alpha/(1-alpha).
    """
    _check_non_negative("epsilon", epsilon)
    _check_alpha(alpha)
    if alpha == 0:
        return False
    return epsilon < alpha / (1.0 - alpha)
