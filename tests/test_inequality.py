"""Inequality metric tests: the two Gini routes agree, the policy transform
contracts dispersion, and the worst case attains every bound."""

import math
import struct
import sys
import warnings
from fractions import Fraction

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
from popcoin_sim.inequality import _as_distribution, block_metrics

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


@st.composite
def _near_the_square_limit(draw):
    """Vectors with n * max**2 on both sides of 2**1020, where the variance
    starts to scale the values by a power of two, and some far past it."""
    n = draw(st.integers(min_value=1, max_value=12))
    top = 2.0 ** draw(st.one_of(st.integers(495, 525), st.integers(526, 1023)))
    element = st.one_of(
        st.floats(min_value=top / 4, max_value=top),
        st.floats(min_value=0.0, max_value=top),
        st.floats(min_value=0.0, allow_infinity=False),  # any finite magnitude
        st.sampled_from([0.0, 5e-324, 1e-300, 1.0, top]),
    )
    return np.array(draw(st.lists(element, min_size=n, max_size=n)))


@given(_near_the_square_limit())
@example(np.array([0.0] * 9 + [4e154]))  # the squares overflow, their mean does not
@example(np.array([2.0**509, 0.0, 0.0, 0.0]))  # n * max**2 = 2**1020: scaled
@example(np.array([math.nextafter(2.0**509, 0.0), 0.0, 0.0, 0.0]))  # just below: not scaled
@example(np.full(7, 3.2956212316547954e299))  # the float mean is an ulp off: 5.5e567
@example(np.array([1.7e308, 1.7e308]))  # the float sum overflows
def test_variance_is_np_var_where_finite_and_finite_where_the_exact_value_is(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning for any finite input
        got = variance(values)
        assert _bits(epoch_metrics(values)[1:2]) == _bits([got])
    with np.errstate(over="ignore", invalid="ignore"):
        parent = float(np.var(values))
        mean = float(values.sum()) / values.size
    if math.isfinite(parent):
        assert got.hex() == parent.hex()
    # The exact mean square deviation from the float mean. Where the float sum
    # overflows, take it from the exact mean; the mean the scaled values give
    # is within an ulp or two of that, which moves the value by at most slack.
    if math.isfinite(mean):
        center, slack = Fraction(mean), Fraction(0)
    else:
        center = sum(map(Fraction, values)) / values.size
        slack = (center / 2**50) ** 2
    exact = sum((Fraction(x) - center) ** 2 for x in values) / values.size
    largest = Fraction(sys.float_info.max)
    if exact + slack < largest * (1 - Fraction(1, 10**9)):
        assert math.isfinite(got)
        assert abs(Fraction(got) - exact) <= exact / 10**12 + slack + Fraction(1e-300)
    elif exact > largest * (1 + Fraction(1, 10**9)):
        assert got == math.inf


def test_variance_where_the_squares_pass_the_floats():
    assert variance([0.0] * 9 + [4e154]) == approx(1.44e308, rel=1e-12)
    assert variance([1.7e308, 1.7e308]) == 0.0
    assert variance(np.full(7, 3.2956212316547954e299)) == math.inf


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

# every function that takes a balance vector, each through the one distribution check
CALLERS = {
    "epoch_metrics": epoch_metrics,
    "gini": gini,
    "variance": variance,
    "max_inequality_ratio": max_inequality_ratio,
    "policy_transform": lambda values: policy_transform(values, 0.5, 1.0),
    "gini_pairwise": gini_pairwise,
}




def _every_value_rule(values):
    """The distribution check's rule stated on every value, not on the ends of
    a sorted array: the oracle for ``_as_distribution``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        return "expected a non-empty 1-D array of balances"
    if not np.all(np.isfinite(arr)):
        return "balances must be finite"
    if np.any(arr < 0):
        return "balances must be non-negative"
    return None


def _rejection(caller, values):
    """The message of the ValueError a caller raises for values, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            caller(values)
    except UndefinedGiniError:
        return None  # all zero: a valid distribution that has no Gini
    except ValueError as err:
        assert type(err) is ValueError
        return str(err)
    return None


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
        [1.0, NAN, 2.0],
        [-INF, 1.0],
        [-0.0, 1.0],  # -0.0 is not negative
    ],
)
def test_epoch_metrics_rejects_what_each_public_function_rejects(values):
    expected = _every_value_rule(values)
    for caller in CALLERS.values():
        assert _rejection(caller, values) == expected


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
    # the one check reads the ends of the sorted array instead of every value
    expected = _every_value_rule(values)
    for caller in (_as_distribution, *CALLERS.values()):
        assert _rejection(caller, values) == expected


# --- the census block ---------------------------------------------------------------

# each kind of row a block may hold: its values' range, or all zero
ROW_KINDS = {
    "ordinary": st.floats(min_value=0, max_value=1e9),
    "zero": st.just(0.0),
    "subnormal": st.floats(min_value=0, max_value=2.0**-1022),
    "2**509": st.floats(min_value=0, max_value=2.0**509),  # n * max**2 on both sides of 2**1020
    "1.7e308": st.floats(min_value=1e308, max_value=1.7e308),  # the row sums overflow
}


@st.composite
def blocks(draw):
    """A block of 1 to 40 rows of 1 to 60 values, each row of one kind, the
    kinds drawn from a few that the block allows, so single-kind blocks are common."""
    n = draw(st.integers(min_value=1, max_value=60))
    kinds = st.sampled_from(sorted(ROW_KINDS))
    allowed = draw(st.lists(kinds, min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=40))
    return np.array([draw(st.lists(ROW_KINDS[kind], min_size=n, max_size=n)) for kind in rows])


def _mixed_block():
    """Ordinary, all-zero, subnormal, 2**509-scale and 1.7e308 rows in one block."""
    return np.array(
        [
            [3.0, 1.0, 2.0, 0.5],
            [0.0] * 4,
            [5e-324, 1e-310, 0.0, 2.0**-1022],
            [2.0**509, 0.0, 0.0, 0.0],
            [1.7e308, 1.7e308, 1e308, 1.7e308],
            [1e9, 0.0, 7.0, 1e9],
        ]
    )


@settings(deadline=None)
@given(blocks())
@example(_mixed_block())
@example(np.array([[1.0, 2.0], [0.0, 0.0]]))  # two rows, one all zero: nan Gini, ratio 1
@example(np.array([[0.0, 5e-324], [5e-324, 5e-324]]))  # subnormal rows in the vector pass
@example(np.array([[-0.0, 1.0], [2.0, 3.0]]))  # -0.0 is not negative
@example(np.array([[2.0**509] * 4, [1.0] * 4]))  # n * max**2 = 2**1020: row at a time
@example(np.array([[math.nextafter(2.0**509, 0.0)] + [0.0] * 3, [1.0] * 4]))  # just below
def test_a_block_measures_each_row_as_the_public_functions_do(block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither path raises a numpy warning
        got = list(block_metrics(block))
        want = [_one_metric_at_a_time(row) for row in block]
    assert [_bits(metrics) for metrics in got] == [_bits(metrics) for metrics in want]
    assert all(isinstance(x, float) for metrics in got for x in metrics)
    # the identity the block pass rests on: numpy sums each row of a block, given
    # or sorted, bit for bit as it sums that row alone
    with np.errstate(over="ignore"):
        ordered = np.sort(block, axis=1)
        for i, row in enumerate(block):
            assert block.sum(axis=1)[i] == row.sum()
            assert ordered.sum(axis=1)[i] == np.sort(row).sum()


@pytest.mark.parametrize(
    "block, good",
    [
        ([[1.0, 2.0], [3.0, -1.0], [4.0, 5.0]], 1),
        ([[1.0, 2.0], [2.0, 3.0], [NAN, 1.0]], 2),
        ([[INF, 2.0], [2.0, 3.0]], 0),
        ([[2.0**509, 1.0], [2.0, 3.0], [-INF, 1.0]], 2),
    ],
)
def test_a_block_raises_a_rows_error_once_the_rows_before_it_are_read(block, good):
    block = np.array(block)
    metrics = block_metrics(block)
    for row in block[:good]:
        assert _bits(next(metrics)) == _bits(epoch_metrics(row))
    with pytest.raises(ValueError) as raised:
        next(metrics)
    assert str(raised.value) == _every_value_rule(block[good])


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
@example(a=0.010000000000000002, b=0.01, alpha=0.5, income=0.03125)
def test_pairwise_ratio_moves_toward_one(a, b, alpha, income):
    before = inequality_ratio(a, b)
    after = inequality_ratio((1 - alpha) * a + income, (1 - alpha) * b + income)
    assert 1.0 <= after
    if before > 1.0:
        keep, lift = Fraction(1 - alpha), Fraction(income)
        lo, hi = sorted((Fraction(a), Fraction(b)))
        exact_after = float((keep * hi + lift) / (keep * lo + lift))
        assert after == approx(exact_after, rel=1e-12)
        # the five roundings behind ``after`` move it by less than 2^-50 of itself,
        # so the contraction shows in floats unless it is smaller than that
        if exact_after * (1 + 2.0**-50) < before:
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
    [
        ([0.45, 0.45], 0.0),
        ([0.0, 0.9], 0.5),
        ([0.2, 0.2, 0.5], 2 / 9),
        ([0.5, 0.9, 0.9], 8 / 69),
    ],
    ids=["equal", "one-holder", "mixed", "total-past-the-floats"],
)
def test_gini_near_the_largest_float(values, expected):
    # 2 * sum(i * x_i) passes the floats, and in the last case the total does
    # too, with no overflow warning; the coefficient is scale-free
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
