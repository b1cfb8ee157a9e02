"""Inequality metric tests: the two Gini routes agree, the policy transform
contracts dispersion, and the worst case attains every bound."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pytest import approx

from popcoin_sim import (
    UndefinedGiniError,
    epoch_metrics,
    gini,
    gini_bound,
    gini_bound_limit,
    gini_pairwise,
    inequality_ratio,
    max_inequality_ratio,
    policy_transform,
    ratio_bound,
    variance,
    variance_bound,
    worst_case_distribution,
)
from popcoin_sim.inequality import _as_distribution

balances = arrays(
    float,
    st.integers(min_value=1, max_value=60),
    elements=st.floats(min_value=0, max_value=1e9, allow_nan=False),
)


# --- policy transform ----------------------------------------------------------


def test_transform_from_zero_is_basic_income():
    assert policy_transform([0, 0], 0.02, 5).tolist() == [5.0, 5.0]


def test_transform_half_demurrage():
    assert policy_transform([100.0], 0.5, 1).tolist() == [51.0]


def test_transform_identity_limit():
    assert policy_transform([3, 7], 0.0, 0).tolist() == [3.0, 7.0]


def test_transform_rejects_negatives():
    with pytest.raises(ValueError):
        policy_transform([-1.0], 0.02, 5)


# --- gini ------------------------------------------------------------------------


def test_gini_constant_distribution_is_zero():
    assert gini([7, 7, 7, 7]) == approx(0.0, abs=1e-15)


def test_gini_two_point_example():
    # pairwise mean absolute difference normalization: |1-3| appears twice
    # over 2 * N^2 * mean = 16, giving 0.25
    assert gini([1, 3]) == approx(0.25)
    assert gini_pairwise([1, 3]) == approx(0.25)


def test_gini_single_holder_is_one_minus_one_over_n():
    assert gini([8, 0, 0, 0]) == approx(0.75)
    assert gini([1000.0] + [0.0] * 99) == approx(0.99)


def test_gini_all_zero_is_undefined():
    with pytest.raises(UndefinedGiniError):
        gini([0.0, 0.0])
    with pytest.raises(UndefinedGiniError):
        gini_pairwise([0.0])


def test_gini_rejects_negative_balances():
    with pytest.raises(ValueError):
        gini([1.0, -2.0])


def test_gini_scale_invariance():
    values = [1.0, 5.0, 9.0, 0.5]
    assert gini([v * 123.0 for v in values]) == approx(gini(values), rel=1e-12)


@given(balances)
def test_gini_sorted_identity_matches_pairwise_definition(values):
    """The O(N log N) route must equal the defining double sum."""
    if values.sum() == 0:
        with pytest.raises(UndefinedGiniError):
            gini(values)
        return
    assert gini(values) == approx(gini_pairwise(values), rel=1e-9, abs=1e-12)
    assert 0.0 <= gini(values) < 1.0


# --- variance and ratio -------------------------------------------------------------


def test_variance_constant_is_zero():
    assert variance([4, 4, 4]) == 0.0


def test_ratio_examples():
    assert inequality_ratio(4, 2) == approx(2.0)
    assert inequality_ratio(2, 4) == approx(2.0)  # symmetric
    assert inequality_ratio(5, 0) == float("inf")
    assert inequality_ratio(0.0, 0.0) == 1.0  # exact equality, not a blow-up


def test_max_ratio_over_vector():
    assert max_inequality_ratio([2.0, 8.0, 4.0]) == approx(4.0)
    assert max_inequality_ratio([3.0]) == 1.0


# --- the epoch metric block ------------------------------------------------------------


def _one_metric_at_a_time(values):
    try:
        gini_value = gini(values)
    except UndefinedGiniError:
        gini_value = float("nan")
    return gini_value, variance(values), max_inequality_ratio(values)


def _bits(floats):
    return [x.hex() if x == x else "nan" for x in floats]


@given(
    arrays(
        float,
        st.integers(min_value=1, max_value=60),
        elements=st.one_of(
            st.floats(min_value=0, max_value=1e9),
            st.floats(min_value=0, max_value=1e-300),  # subnormals included
            st.just(0.0),
        ),
    )
)
@example([0.0, 0.0, 0.0])  # all zero: nan Gini
@example([0.0])
@example([42.5])  # one account
@example([5e-324, 1e-310, 0.0])  # subnormal
@example([1e308, 1e308, 0.0])  # the sums overflow
@example([3.0, 1.0, 2.0, 0.5])  # unsorted: the variance sums in the given order
def test_epoch_metrics_equal_the_public_functions_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):
        got = epoch_metrics(values)
        want = _one_metric_at_a_time(values)
    assert all(isinstance(x, float) for x in got)
    assert _bits(got) == _bits(want)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "values",
    [
        [1.0, -2.0],
        [NAN, 1.0],
        [1.0, INF],
        [],
        [[1.0]],
        # the sort puts -inf first and nan last; finiteness is reported first
        [-INF, NAN],
        [-1.0, NAN],
        [INF, -1.0],
        [NAN, -0.0],
    ],
)
def test_epoch_metrics_rejects_what_each_public_function_rejects(values):
    with pytest.raises(ValueError) as block:
        epoch_metrics(values)
    for public in (gini, variance, max_inequality_ratio):
        with pytest.raises(ValueError) as single:
            public(values)
        assert type(single.value) is type(block.value)
        assert str(single.value) == str(block.value)


def test_epoch_metrics_accepts_negative_zero():
    assert epoch_metrics([-0.0, 1.0]) == (gini([-0.0, 1.0]), 0.25, INF)


@given(
    arrays(
        float,
        st.integers(min_value=1, max_value=12),
        elements=st.one_of(
            st.floats(min_value=-1e9, max_value=1e9),
            st.sampled_from([0.0, -0.0, -5e-324, -1.0, INF, -INF, NAN]),
        ),
    )
)
def test_epoch_metrics_rejects_exactly_what_as_distribution_rejects(values):
    # it checks the ends of the sorted array instead of every value
    def raised(check):
        try:
            with np.errstate(over="ignore"):
                check(values)
        except ValueError as err:
            return str(err)
        return None

    assert raised(epoch_metrics) == raised(_as_distribution)


# --- contraction properties -----------------------------------------------------------


@given(balances, st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=0.01, max_value=1e4))
def test_variance_contracts_by_the_square_factor(values, alpha, income):
    after = policy_transform(values, alpha, income)
    assert variance(after) == approx((1 - alpha) ** 2 * variance(values), rel=1e-9, abs=1e-9)


@settings(deadline=None)
@given(
    shares=arrays(
        float,
        st.integers(min_value=2, max_value=40),
        elements=st.floats(min_value=0.0, max_value=1.0),
    ),
    alpha=st.floats(min_value=0.01, max_value=0.9),
)
def test_gini_contracts_linearly_on_the_invariant_total(shares, alpha):
    """When the total sits at B*N/alpha (where it stays put epoch over
    epoch), one transform scales Gini by exactly (1 - alpha)."""
    if shares.sum() == 0:
        shares = shares + 1.0
    income = 2922.0
    n = len(shares)
    total = income * n / alpha
    values = shares / shares.sum() * total
    after = policy_transform(values, alpha, income)
    assert after.sum() == approx(total, rel=1e-9)
    assert gini(after) == approx((1 - alpha) * gini(values), rel=1e-8, abs=1e-10)


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.01, max_value=0.9),
    st.floats(min_value=0.01, max_value=1e3),
)
def test_pairwise_ratio_moves_toward_one(a, b, alpha, income):
    before = inequality_ratio(a, b)
    after = inequality_ratio((1 - alpha) * a + income, (1 - alpha) * b + income)
    assert 1.0 <= after
    if before > 1.0:
        assert after < before
    else:
        assert after == approx(1.0)


# --- bounds ---------------------------------------------------------------------------


def test_variance_bound_examples():
    assert variance_bound(0.02, 1, 10) == approx(21609.0, rel=1e-12)
    assert variance_bound(0.02, 1, 1) == 0.0
    assert variance_bound(1.0, 1, 10) == 0.0  # total demurrage erases dispersion


def test_variance_bound_past_the_floats():
    # ((1 - alpha) B / alpha)^2 passes the floats: float ** raises there
    assert variance_bound(0.02, 1e300, 1) == 0.0  # one account has no spread
    assert variance_bound(0.02, 1e300, 2) == math.inf
    assert variance_bound(0.0, 1e300, 1) == math.inf  # unbounded supply at alpha = 0
    # the square fits: the closed form, also when the factor N - 1 makes it inf
    assert variance_bound(0.02, 1e150, 3) == (0.98 * 1e150 / 0.02) ** 2 * 2
    assert variance_bound(0.02, 1e150, 10**6) == math.inf


def test_variance_bound_where_the_spread_itself_is_inf():
    # (1 - alpha) B / alpha is inf before the square: inf ** 2 does not raise,
    # and inf * (N - 1) is nan for one account
    assert (1.0 - 0.001) * 1e306 / 0.001 == math.inf
    assert variance_bound(0.001, 1e306, 1) == 0.0
    assert variance_bound(0.001, 1e306, 2) == math.inf
    assert variance_bound(0.0, 1e306, 1) == math.inf


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-300, max_value=1e308),
    st.integers(min_value=1, max_value=10**8),
)
@example(0.02, 1e150, 3)
@example(1.0, 2922.0, 1)
@example(0.001, 1e306, 1)  # the closed form is nan
def test_variance_bound_keeps_the_closed_form_where_it_is_a_number(alpha, income, census):
    try:
        closed = ((1.0 - alpha) * income / alpha) ** 2 * (census - 1) if alpha > 0 else math.inf
    except OverflowError:
        closed = 0.0 if census == 1 else math.inf
    bound = variance_bound(alpha, income, census)
    if math.isnan(closed):
        assert bound == 0.0 and census == 1
    else:
        assert struct.pack("<d", bound) == struct.pack("<d", closed)


@pytest.mark.parametrize(
    "values, expected",
    [([0.45, 0.45], 0.0), ([0.0, 0.9], 0.5), ([0.2, 0.2, 0.5], 2 / 9)],
    ids=["equal", "one-holder", "mixed"],
)
def test_gini_near_the_largest_float(values, expected):
    # the total fits a float but 2 * sum(i * x_i) does not; the coefficient is scale-free
    huge = np.array(values) * sys.float_info.max
    assert gini(huge) == approx(expected, abs=1e-15)
    assert gini(np.array(values)) == approx(expected, abs=1e-15)


def test_gini_bound_examples():
    assert gini_bound(0.02, 10) == approx(0.882)
    assert gini_bound(0.02, 1) == 0.0
    assert gini_bound_limit(0.02) == approx(0.98)
    # the finite-N bound increases toward the limit
    assert gini_bound(0.02, 10**6) < gini_bound_limit(0.02)


def test_ratio_bound_examples():
    assert ratio_bound(0.02, 10) == approx(491.0)
    assert ratio_bound(0.5, 2) == approx(3.0)
    assert ratio_bound(0.3, 1) == 1.0  # one account is always equal to itself


def test_bound_domains():
    with pytest.raises(ValueError):
        gini_bound(-0.1, 10)
    with pytest.raises(ValueError):
        variance_bound(0.02, 1, 0)
    with pytest.raises(ValueError):
        worst_case_distribution(0.0, 1, 5)


def test_worst_case_attains_every_bound():
    # one account holding the whole steady-state supply, then one epoch
    alpha, income, n = 0.5, 1.0, 4
    worst = worst_case_distribution(alpha, income, n)
    assert worst.tolist() == [8.0, 0.0, 0.0, 0.0]
    after = policy_transform(worst, alpha, income)
    assert gini(after) == approx(gini_bound(alpha, n), rel=1e-12)
    assert variance(after) == approx(variance_bound(alpha, income, n), rel=1e-12)
    assert max_inequality_ratio(after) == approx(ratio_bound(alpha, n), rel=1e-12)


@given(
    st.floats(min_value=0.02, max_value=0.9),
    st.floats(min_value=0.1, max_value=1e3),
    st.integers(min_value=1, max_value=200),
)
def test_worst_case_is_extremal_after_one_epoch(alpha, income, n):
    after = policy_transform(worst_case_distribution(alpha, income, n), alpha, income)
    assert gini(after) <= gini_bound(alpha, n) * (1 + 1e-12)
    assert variance(after) <= variance_bound(alpha, income, n) * (1 + 1e-12)
    assert max_inequality_ratio(after) <= ratio_bound(alpha, n) * (1 + 1e-12)
