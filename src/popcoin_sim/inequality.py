"""Inequality metrics under the demurrage-plus-basic-income transform.

One epoch at constant census maps the balance vector X to
(1 - alpha) * X + B. That affine map contracts dispersion: variance shrinks
by exactly (1-alpha)^2, and on the invariant total (sum X = B*N/alpha) the
Gini coefficient shrinks by exactly (1-alpha). Iterating from any start,
inequality is therefore bounded by the worst case in which one account owns
the entire steady-state supply:

    sup variance = ((1-alpha) * B / alpha)^2 * (N - 1)
    sup gini     = (1-alpha) * (N-1) / N          (-> 1-alpha as N grows)
    sup max/min  = ((1-alpha) / alpha) * N + 1

Gini here uses the mean-absolute-difference form with the 1/(2 N^2 xbar)
normalization (pairs include i = j), so a constant vector scores 0 and the
single-holder vector scores (N-1)/N, not 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UndefinedGiniError
from .monetary import steady_state_supply


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D array of balances")
    return arr


def _as_distribution(values) -> np.ndarray:
    arr = _as_array(values)
    if not np.all(np.isfinite(arr)):
        raise ValueError("balances must be finite")
    if np.any(arr < 0):
        raise ValueError("balances must be non-negative")
    return arr


def policy_transform(values, alpha: float, basic_income: float) -> np.ndarray:
    """Apply one constant-census epoch to a balance vector: (1-alpha)X + B."""
    arr = _as_distribution(values)
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if basic_income < 0:
        raise ValueError(f"basic_income must be non-negative, got {basic_income}")
    return (1.0 - alpha) * arr + basic_income


def variance(values) -> float:
    """Population variance of the balance vector."""
    return float(np.var(_as_distribution(values)))


def gini(values) -> float:
    """Gini coefficient via the sorted identity, O(N log N).

    For ascending x with total S: G = (2 * sum(i * x_i) - (N+1) * S) / (N * S)
    with 1-based ranks — algebraically equal to the pairwise form below.
    """
    ordered = np.sort(_as_distribution(values))
    total = float(ordered.sum())
    if total == 0.0:
        raise UndefinedGiniError("gini is undefined for an all-zero distribution")
    return _gini_sorted(ordered, total)


def _gini_sorted(ordered: np.ndarray, total: float) -> float:
    n = ordered.size
    if math.isinf(2.0 * n * total):  # 2 * sum(i * x_i) may pass the floats; G is scale-free
        ordered = ordered / ordered[-1]
        total = float(ordered.sum())
    ranks = np.arange(1, n + 1, dtype=float)
    raw = float((2.0 * np.dot(ranks, ordered) - (n + 1) * total) / (n * total))
    # Cancellation can land a perfectly equal distribution an ulp below zero;
    # the coefficient itself is non-negative for non-negative data.
    return max(0.0, raw)


def epoch_metrics(values) -> tuple[float, float, float]:
    """``(gini, variance, max_inequality_ratio)`` of one balance vector.

    The vector is sorted once and validated on its ends; each value is bit
    for bit the one the public function returns, and each rejection raises
    the public functions' error, except that an all-zero vector gets a nan
    Gini instead of ``UndefinedGiniError``.
    """
    arr = _as_array(values)
    ordered = np.sort(arr)
    # The sort puts -inf first and +inf, then nan, last: the ends are finite
    # only when every value is, and the first end is the least value.
    lo, hi = float(ordered[0]), float(ordered[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("balances must be finite")
    if lo < 0:
        raise ValueError("balances must be non-negative")
    total = float(ordered.sum())
    gini_value = _gini_sorted(ordered, total) if total != 0.0 else float("nan")
    # np.var(arr) without its per-call overhead, in its own steps: the mean of
    # the values in their given order, then the mean of the squared deviations.
    deviations = arr - float(arr.sum()) / arr.size
    spread = float(np.square(deviations, out=deviations).sum()) / arr.size
    return gini_value, spread, inequality_ratio(hi, lo)


def gini_pairwise(values) -> float:
    """Gini from the defining double sum, O(N^2); test oracle for ``gini``."""
    arr = _as_distribution(values)
    total = float(arr.sum())
    if total == 0.0:
        raise UndefinedGiniError("gini is undefined for an all-zero distribution")
    n = arr.size
    mad = float(np.abs(arr[:, None] - arr[None, :]).sum())
    # 2·N²·mean written as 2·N·total: the mean of subnormal values underflows
    return mad / (2.0 * n * total)


def inequality_ratio(balance_a: float, balance_b: float) -> float:
    """Pairwise max/min balance ratio.

    Both zero means the pair is exactly equal, so 1.0; a single zero makes
    the ratio unbounded and returns inf as a sentinel.
    """
    if balance_a < 0 or balance_b < 0:
        raise ValueError("balances must be non-negative")
    if balance_a == balance_b == 0:
        return 1.0
    lo, hi = sorted((float(balance_a), float(balance_b)))
    return float("inf") if lo == 0 else hi / lo


def max_inequality_ratio(values) -> float:
    """Largest pairwise ratio in a vector: max over pairs of max/min."""
    arr = _as_distribution(values)
    return inequality_ratio(float(arr.max()), float(arr.min()))


def variance_bound(alpha: float, basic_income: float, census: int) -> float:
    """Supremum of variance over all reachable distributions of N accounts;
    inf at alpha = 0, or for N > 1 when it passes the floats."""
    _check_bound_args(alpha, census)
    if basic_income <= 0:
        raise ValueError(f"basic_income must be positive, got {basic_income}")
    if not alpha > 0:
        return math.inf
    if census == 1:  # no spread, even where (1 - alpha) B / alpha is inf
        return 0.0
    try:
        return ((1.0 - alpha) * basic_income / alpha) ** 2 * (census - 1)
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def gini_bound(alpha: float, census: int) -> float:
    """Supremum of Gini at census N: (1-alpha)(N-1)/N."""
    _check_bound_args(alpha, census)
    return (1.0 - alpha) * (census - 1) / census


def gini_bound_limit(alpha: float) -> float:
    """Large-population limit of the Gini supremum: 1 - alpha."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return 1.0 - alpha


def ratio_bound(alpha: float, census: int) -> float:
    """Supremum of the max/min ratio: ((1-alpha)/alpha) N + 1.

    A single account is always exactly equal to itself, so N = 1 gives 1.
    """
    _check_bound_args(alpha, census)
    if census == 1:
        return 1.0
    if alpha == 0:
        return float("inf")
    return ((1.0 - alpha) / alpha) * census + 1.0


def worst_case_distribution(alpha: float, basic_income: float, census: int) -> np.ndarray:
    """Distribution attaining the bounds after one transform: one account
    holds the whole steady-state supply B*N/alpha, the rest hold zero."""
    supply = steady_state_supply(basic_income, alpha, census)  # needs 0 < alpha < 1
    out = np.zeros(census)
    out[0] = supply
    return out


def _check_bound_args(alpha: float, census: int) -> None:
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if census < 1:
        raise ValueError(f"census must be at least 1, got {census}")
