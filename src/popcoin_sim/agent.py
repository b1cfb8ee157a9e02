"""Two-period consumption choice under the demurrage-adjusted rate.

An agent receives the basic income B in both periods plus outside income
``earned_income`` in the first, spends ``out1`` immediately and carries the
rest at the holding rate R (negative under demurrage with a stable census),
so second-period spending is

    out2 = (B + in1 - out1) * (1 + R) + B.

Preferences are sqrt utility over real consumption, u = sqrt(out1/P1) +
sqrt(out2/P2). Strict concavity gives the closed-form optimum

    out1* = ((1+R)(B + in1) + B) / ((1+R)^2 * (P1/P2) + (1+R)),

clamped to [0, B + in1] when borrowing is disallowed. Savings then pay
demurrage alpha * savings, an effective income tax that vanishes for
hand-to-mouth agents and approaches alpha(1-alpha)/(2-alpha) for high
earners — demurrage is progressive with respect to saved wealth.

The grid search ``optimal_out1_oracle`` brute-forces the same problem and
exists to certify the closed form in tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoEquilibriumError,
    _check_above_minus_one,
    _check_float,
    _check_non_negative,
    _check_positive_float,
    _int_text,
)
from .monetary import _check_alpha


@dataclass(frozen=True)
class AgentProblem:
    """One two-period problem instance.

    interest_rate is the per-period holding rate R > -1 (use
    (1+n)(1-alpha)-1 for the policy currency; -alpha under a stable census).
    basic_income = 0 is admitted as a degenerate no-transfer case.
    """

    basic_income: float
    earned_income: float = 0.0
    interest_rate: float = 0.0
    price_1: float = 1.0
    price_2: float = 1.0
    allow_borrowing: bool = False

    def __post_init__(self):
        _check_non_negative("basic_income", self.basic_income)
        _check_non_negative("earned_income", self.earned_income)
        _check_above_minus_one("interest_rate", self.interest_rate)
        if self.price_1 <= 0 or self.price_2 <= 0:
            raise ValueError("prices must be positive")
        _check_float("price_1", self.price_1)
        _check_float("price_2", self.price_2)


def _cash(problem: AgentProblem, outcome: str):
    """The cash on hand ``B + in1``. Raises NoEquilibriumError, "no
    ``outcome``", where it passes the largest float: an inf sum, or an int sum
    that no float holds, on which float arithmetic raises OverflowError."""
    try:
        cash = problem.basic_income + problem.earned_income
    except OverflowError:  # an int past the floats plus a float
        cash = math.inf
    if cash > sys.float_info.max:
        raise NoEquilibriumError(f"no {outcome}: the cash B + in1 passes the largest float")
    return cash


def budget_out2(problem: AgentProblem, out1: float) -> float:
    """Second-period spending implied by a first-period choice; raises
    NoEquilibriumError where the cash ``B + in1`` passes the largest float."""
    cash = _cash(problem, "second-period spending")
    _check_non_negative("out1", out1)
    _check_float("out1", out1)
    if not problem.allow_borrowing and out1 > cash:
        raise ValueError(
            f"out1 = {_int_text(out1)} exceeds available cash {_int_text(cash)} "
            "and borrowing is off"
        )
    out2 = (cash - out1) * (1.0 + problem.interest_rate) + problem.basic_income
    if out2 < 0:
        raise ValueError(f"out1 = {_int_text(out1)} leaves negative second-period spending {out2}")
    return out2


def utility(problem: AgentProblem, out1: float, out2: float) -> float:
    """sqrt(out1/P1) + sqrt(out2/P2); concave, so local optima are global."""
    if out1 < 0 or out2 < 0:
        raise ValueError("spending must be non-negative")
    return math.sqrt(out1 / problem.price_1) + math.sqrt(out2 / problem.price_2)


def max_affordable_out1(problem: AgentProblem) -> float:
    """Largest feasible first-period outlay.

    Without borrowing this is cash on hand; with borrowing it is the point
    where out2 hits zero (repaying from the second basic income). Raises
    NoEquilibriumError where the cash ``B + in1`` passes the largest float.
    """
    cash = _cash(problem, "largest first-period outlay")
    if not problem.allow_borrowing:
        return cash
    return cash + problem.basic_income / (1.0 + problem.interest_rate)


def optimal_out1(problem: AgentProblem) -> float:
    """Closed-form utility maximizer, clamped to the feasible interval.

    Raises NoEquilibriumError when the cash on hand ``B + in1`` or the
    closed form is not a finite float, as when ``(1+R)^2`` passes the
    largest float. A finite optimum leaves the savings and the tax rate of
    ``effective_tax`` finite.
    """
    gross = 1.0 + problem.interest_rate
    cash = _cash(problem, "optimal out1")
    unclamped = (gross * cash + problem.basic_income) / (
        gross * gross * (problem.price_1 / problem.price_2) + gross
    )
    out1 = min(max(unclamped, 0.0), max_affordable_out1(problem))
    if not math.isfinite(out1):
        raise NoEquilibriumError(f"no optimal out1: the closed form gives {out1}")
    return out1


def optimal_out1_oracle(problem: AgentProblem, grid_step: float = 1e-4) -> float:
    """Brute-force argmax of utility over an evenly spaced out1 grid.

    Agrees with the closed form to within one grid step (concavity); used
    as the independent check on the algebra. ``grid_step`` must be a positive
    finite number.
    """
    _check_positive_float("grid_step", grid_step)
    if not math.isfinite(grid_step):
        raise ValueError(f"grid_step must be finite, got {_int_text(grid_step)}")
    hi = max_affordable_out1(problem)
    if hi == 0.0:
        return 0.0
    if hi / grid_step > 5e7:
        raise ValueError(
            f"grid of {hi / grid_step:.0f} points is too large; coarsen grid_step"
        )
    grid = np.arange(0.0, hi, grid_step)
    grid = np.append(grid, hi)  # include the exact boundary
    out2 = (problem.basic_income + problem.earned_income - grid) * (
        1.0 + problem.interest_rate
    ) + problem.basic_income
    values = np.sqrt(grid / problem.price_1) + np.sqrt(np.maximum(out2, 0.0) / problem.price_2)
    return float(grid[int(np.argmax(values))])


@dataclass(frozen=True)
class TaxReport:
    """Demurrage viewed as an income tax for one problem instance."""

    savings: float
    demurrage_paid: float
    tax_rate: float


def effective_tax(problem: AgentProblem, alpha: float) -> TaxReport:
    """Demurrage paid on optimal savings, as a share of first-period income.

    The canonical setting pairs a stable census with R = -alpha; the report
    simply prices the problem's own optimum, whatever rate it carries.
    """
    _check_alpha(alpha)
    out1 = optimal_out1(problem)  # first: it rejects a cash that no float holds
    income = problem.basic_income + problem.earned_income
    savings = max(income - out1, 0.0)  # borrowing means no balance to demur
    demurrage = alpha * savings
    rate = demurrage / income if income > 0 else 0.0
    return TaxReport(savings=savings, demurrage_paid=demurrage, tax_rate=rate)
