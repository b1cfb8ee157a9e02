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
from typing import Iterator

import numpy as np

from .errors import UndefinedGiniError, _check_non_negative, _check_positive
from .monetary import _check_alpha, _check_alpha_closed, _check_census, steady_state_supply


def _as_distribution(values) -> tuple[np.ndarray, np.ndarray]:
    """The balances as a float array, and sorted: the one check of this module.
    The sort puts -inf first and +inf, then nan, last, so the ends decide."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D array of balances")
    ordered = np.sort(arr)
    lo, hi = float(ordered[0]), float(ordered[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("balances must be finite")
    if lo < 0:
        raise ValueError("balances must be non-negative")
    return arr, ordered


def policy_transform(values, alpha: float, basic_income: float) -> np.ndarray:
    """Apply one constant-census epoch to a balance vector: (1-alpha)X + B."""
    arr = _as_distribution(values)[0]
    _check_alpha(alpha)
    _check_non_negative("basic_income", basic_income)
    return (1.0 - alpha) * arr + basic_income


def variance(values) -> float:
    """Population variance of the balance vector, ``np.var`` where that is finite."""
    arr, ordered = _as_distribution(values)
    return _variance(arr, float(ordered[-1]))


def _variance(arr: np.ndarray, hi: float) -> float:
    """np.var's steps on finite values in [0, hi]: the mean in the given order, then
    the mean squared deviation. Past n * hi**2 = 2**1020 a sum or a square may
    overflow, so they run on the values divided by a power of two (exact), scaled back."""
    unit = 1.0
    if hi * hi * arr.size >= 2.0**1020:
        unit = 2.0 ** (math.frexp(hi)[1] - 1)
        arr = arr / unit
    deviations = arr - float(arr.sum()) / arr.size
    return float(np.square(deviations, out=deviations).sum()) / arr.size * unit * unit


def gini(values) -> float:
    """Gini coefficient via the sorted identity, O(N log N).

    For ascending x with total S: G = (2 * sum(i * x_i) - (N+1) * S) / (N * S)
    with 1-based ranks — algebraically equal to the pairwise form below.
    """
    ordered = _as_distribution(values)[1]
    if ordered[-1] == 0.0:
        raise UndefinedGiniError("gini is undefined for an all-zero distribution")
    return _gini_sorted(ordered)


def _gini_sorted(ordered: np.ndarray) -> float:
    n, hi = ordered.size, float(ordered[-1])
    # past n * hi = 2**1023 the sum may overflow, and 2 * n * total is inf either way
    total = float(ordered.sum()) if n * hi <= 2.0**1023 else math.inf
    if math.isinf(2.0 * n * total):  # 2 * sum(i * x_i) may pass the floats; G is scale-free
        ordered = ordered / hi
        total = float(ordered.sum())
    ranks = np.arange(1, n + 1, dtype=float)
    raw = float((2.0 * np.dot(ranks, ordered) - (n + 1) * total) / (n * total))
    # Cancellation can land a perfectly equal distribution an ulp below zero;
    # the coefficient itself is non-negative for non-negative data.
    return max(0.0, raw)


def epoch_metrics(values) -> tuple[float, float, float]:
    """``(gini, variance, max_inequality_ratio)`` of one balance vector: the
    one-row case of ``block_metrics``.

    The vector is sorted once; each value is bit for bit the one the public
    function returns, and each rejection raises the public functions' error,
    except that an all-zero vector gets a nan Gini instead of ``UndefinedGiniError``.
    """
    arr, ordered = _as_distribution(values)
    lo, hi = float(ordered[0]), float(ordered[-1])
    gini_value = _gini_sorted(ordered) if hi != 0.0 else float("nan")
    return gini_value, _variance(arr, hi), inequality_ratio(hi, lo)


def block_metrics(block: np.ndarray) -> Iterator[tuple[float, float, float]]:
    """``epoch_metrics`` of each row of a non-empty 2-D float array, in row order.

    The block is sorted along its rows and summed along them, which numpy
    does bit for bit as it sums each row alone, so its k rows cost one pass
    of about a dozen numpy calls instead of k; each row keeps its own
    ``np.dot`` with the ranks, since a matrix product over the block rounds
    differently. Below n * max**2 = 2**1020 no sum, square or product of a
    row passes the floats (``2 * n * total`` included), so ``gini`` and
    ``variance`` take no scaled step there and the pass raises no numpy
    warning. An empty block, or one with a row that is negative, not finite,
    or at or past that threshold, is read a row at a time through
    ``epoch_metrics``, lazily: a row that the distribution check rejects
    raises its error once the rows before it are read. A block of one row
    takes the pass too, at about the cost of ``epoch_metrics``: best of
    5 x 9 x 300 ``timeit`` runs on a 2-core Intel Xeon (Python 3.11, numpy
    2.4), 12.7 µs against 11.7 µs at N = 100 and 80.6 µs against 78.6 µs at
    N = 10,000; a 40-row block at N = 100 costs about 2.1 µs a row.
    """
    if block.size:
        n = block.shape[1]
        ordered = np.sort(block, axis=1)
        los, his = ordered[:, 0].tolist(), ordered[:, -1].tolist()
        # a row holding nan ends in nan, which the sum carries; without one,
        # the sum bounds each row's largest value (inf past the floats)
        bound = sum(his)
        if min(los) >= 0.0 and bound * bound * n < 2.0**1020:
            deviations = block - block.sum(axis=1, keepdims=True) / n
            squares = np.square(deviations, out=deviations).sum(axis=1).tolist()
            totals = ordered.sum(axis=1).tolist()
            ranks = np.arange(1.0, n + 1.0)
            metrics = []
            for row, lo, hi, total, square in zip(ordered, los, his, totals, squares):
                if hi == 0.0:  # all zero: no Gini, and a ratio of 1
                    metrics.append((math.nan, square / n, 1.0))
                else:  # _gini_sorted's steps, and inequality_ratio(hi, lo)
                    raw = (2.0 * float(np.dot(ranks, row)) - (n + 1) * total) / (n * total)
                    metrics.append((max(0.0, raw), square / n, hi / lo if lo else math.inf))
            return iter(metrics)
    return map(epoch_metrics, block)


def gini_pairwise(values) -> float:
    """Gini from the defining double sum, O(N^2); test oracle for ``gini``."""
    arr = _as_distribution(values)[0]
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
    ordered = _as_distribution(values)[1]
    return inequality_ratio(float(ordered[-1]), float(ordered[0]))


def variance_bound(alpha: float, basic_income: float, census: int) -> float:
    """Supremum of variance over all reachable distributions of N accounts;
    inf at alpha = 0, or for N > 1 when it passes the floats."""
    _check_alpha_closed(alpha)
    _check_census(census)
    _check_positive("basic_income", basic_income)
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
    _check_alpha_closed(alpha)
    _check_census(census)
    return (1.0 - alpha) * (census - 1) / census


def gini_bound_limit(alpha: float) -> float:
    """Large-population limit of the Gini supremum: 1 - alpha."""
    _check_alpha_closed(alpha)
    return 1.0 - alpha


def ratio_bound(alpha: float, census: int) -> float:
    """Supremum of the max/min ratio: ((1-alpha)/alpha) N + 1.

    A single account is always exactly equal to itself, so N = 1 gives 1.
    """
    _check_alpha_closed(alpha)
    _check_census(census)
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
