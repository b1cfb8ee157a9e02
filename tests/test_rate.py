"""The exchange rate's bracket: every decision it makes equals the exact one.

``ledger.Rate`` keeps the rate as its closed form plus a dyadic bracket of
``1/E``, and decides issuance, its residue and ``float(count * E)`` from the
bracket, with an exact fallback where the bracket's two ends round apart.
These tests aim at those boundaries: ratios on a half-integer or a
float midpoint and one part in a 10^4-bit denominator to either side, the
overflow and subnormal edges of the float division, and brackets too wide to
decide anything.
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popcoin_sim import (
    LedgerState,
    PolicyParams,
    genesis,
    mint_epoch_poplet,
    parse_config,
    state_from_json,
    state_to_json,
    transfer,
)
from popcoin_sim import errors, scenario
from popcoin_sim.ledger import Rate, _issue, _round_half_even, _round_over

# a rate's numerator and denominator: small, or of 10^4 bits and more
operands = st.one_of(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=2**10_000, max_value=2**10_100),
)
rates = st.builds(Fraction, operands, operands)
# a distance from a boundary: none, or one part in a 10^4-bit number either way
nudges = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        lambda sign, den: Fraction(sign, den),
        st.sampled_from([-1, 1]),
        st.integers(min_value=2**10_000, max_value=2**10_050),
    ),
)
# a bracket of 2 bits decides almost nothing; the rest decide most values
bracket_bits = st.sampled_from([2, 8, 60, 128, 400])


def exact_issue(rate: Fraction, income: Fraction, census: int) -> tuple[int, int]:
    """Issuance and residue by ``_round_half_even`` on the exact ratio."""
    den = income.denominator * rate.numerator
    issued, excess = _round_half_even(income.numerator * rate.denominator, den)
    return issued, _round_half_even(census * excess, den)[0]


def bracket_fallbacks(rate: Rate, income: Fraction, census: int) -> Counter:
    """The fallbacks that deciding from ``rate``'s bracket takes: one where
    the two ends of ``B/E'`` round apart, else one where those of the residue
    do. ``round`` of a ``Fraction`` rounds half to even. Each pair of ends
    that round apart holds a half-integer, so the bracket falls back no more
    often than a test for a half-integer in it would."""
    unit = Fraction(2) ** -rate.shift
    low, high = income * rate.lo * unit, income * rate.hi * unit  # B/E' lies between
    issued = round(low)
    if round(high) != issued:
        assert holds_a_half_integer(low, high)
        return Counter(issued=1)
    low, high = census * (issued - high), census * (issued - low)
    if round(high) != round(low):
        assert holds_a_half_integer(low, high)
        return Counter(residue=1)
    return Counter()


def holds_a_half_integer(low: Fraction, high: Fraction) -> bool:
    return math.floor(high - Fraction(1, 2)) >= math.ceil(low - Fraction(1, 2))


def exact_float(value: Fraction) -> float:
    """``float(value)`` by integer true division; raises ``OverflowError`` past the floats."""
    return value.numerator / value.denominator


@settings(deadline=None, max_examples=150)
@given(
    rate=rates,
    whole=st.integers(min_value=0, max_value=10**6),
    nudge=nudges,
    census=st.integers(min_value=1, max_value=10**8),
    bits=bracket_bits,
)
@example(rate=Fraction(1), whole=2, nudge=Fraction(0), census=15, bits=128)  # 2.5 -> 2
@example(rate=Fraction(1), whole=1, nudge=Fraction(0), census=3, bits=128)  # 1.5 -> 2
# B = 1 and 1/E' = 5/2 - 2**-300: the bracket of B/E' runs from just below
# 2.5 to exactly 2.5, an even floor, so both ends round to 2, and the
# residue's from -1/2 to just above it round to 0: no fallback, where a
# half-integer test falls back
@example(
    rate=1 / (Fraction(5, 2) - Fraction(1, 2**300)),
    whole=2,
    nudge=Fraction(-1, 2**300),
    census=1,
    bits=128,
)
def test_issuance_on_and_beside_a_half_integer(rate, whole, nudge, census, bits):
    # B / E' = whole + 1/2 + nudge; the bracket decides unless its ends round apart
    income = (whole + Fraction(1, 2) + nudge) * rate
    decided = _issue(Rate.of(rate, census, bits), income, census)
    assert decided[1:] == exact_issue(rate, income, census)
    assert decided[0].fallbacks == bracket_fallbacks(decided[0], income, census)


@settings(deadline=None, max_examples=150)
@given(
    rate=rates,
    issued=st.integers(min_value=1, max_value=10**6),
    census=st.integers(min_value=2, max_value=10**8),
    odd=st.integers(min_value=0, max_value=10**8),
    nudge=nudges,
    bits=bracket_bits,
)
def test_residue_on_and_beside_a_half_integer(rate, issued, census, odd, nudge, bits):
    # census * (issued - B/E') = k + 1/2 - census * nudge, with |k + 1/2| < census / 2
    k = odd % census - census // 2
    if abs(2 * k + 1) >= census:
        k = 0
    income = (issued - Fraction(2 * k + 1, 2 * census) + nudge) * rate
    decided = _issue(Rate.of(rate, census, bits), income, census)
    assert decided[1:] == exact_issue(rate, income, census)
    assert decided[0].fallbacks == bracket_fallbacks(decided[0], income, census)


@settings(deadline=None, max_examples=300)
@given(
    num=st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**400), 2**400)),
    den=st.integers(min_value=1, max_value=10**6),
    shift=st.integers(min_value=0, max_value=300),
)
@example(num=5, den=2, shift=0)  # 2.5 -> 2
@example(num=-5, den=2, shift=0)  # -2.5 -> -2
@example(num=3, den=1, shift=1)  # 1.5 -> 2
@example(num=-3, den=1, shift=1)  # -1.5 -> -2
def test_round_half_even_rounds_as_a_fraction_does(num, den, shift):
    q, excess = _round_half_even(num, den, shift)
    assert q == round(Fraction(num, den << shift))
    assert excess == (q * den << shift) - num


@pytest.mark.parametrize(
    "low, high, decided",
    [
        ("2.4", "2.5", 2),  # even floor, tie on the high end
        ("2.5", "2.5", 2),
        ("1.5", "2.5", 2),  # two ties that both round to 2
        ("2.0", "2.4", 2),
        ("1.4", "1.5", None),  # odd floor: the tie rounds up
        ("2.5", "2.6", None),
        ("1.5", "2.6", None),
        ("-2.5", "-2.4", -2),
        ("-2.6", "-2.5", None),
    ],
)
@pytest.mark.parametrize("den, shift", [(10, 0), (10, 3), (30, 7)])
def test_a_bracket_decides_exactly_where_its_ends_round_alike(low, high, decided, den, shift):
    # from low to high over den << shift, both multiples of 1/10
    scale = (den << shift) // 10
    low, high = int(Fraction(low) * 10) * scale, int(Fraction(high) * 10) * scale
    assert _round_over(low, high - low, den, shift) == decided


def midpoint_after(value: float) -> Fraction:
    """The point halfway from ``value`` to the next float up; past the
    largest float, the next one up is 2**1024."""
    up = math.nextafter(value, math.inf)
    up = Fraction(2**1024) if math.isinf(up) else Fraction(up)
    return (Fraction(value) + up) / 2


floats = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.0, max_value=4 * sys.float_info.min),  # subnormal, and the edge to normal
    st.just(sys.float_info.max),  # the midpoint above it rounds to 2**1024: an overflow
    st.just(sys.float_info.min),
)


def assert_same_float(decide, value: Fraction):
    """``decide()`` rounds as ``exact_float(value)`` does, or raises as it does."""
    try:
        expected = exact_float(value)
    except OverflowError:
        with pytest.raises(OverflowError):
            decide()
        return
    assert decide() == expected


@settings(deadline=None, max_examples=200)
@given(below=floats, nudge=nudges, bits=bracket_bits, census=st.integers(1, 10**8))
@example(below=0.0, nudge=Fraction(0), bits=128, census=1)  # 2**-1075 rounds to 0.0
@example(below=sys.float_info.max, nudge=Fraction(-1, 2**10_000), bits=128, census=1)
def test_float_of_the_rate_on_and_beside_a_midpoint(below, nudge, bits, census):
    value = midpoint_after(below) + nudge
    if value > 0:
        assert_same_float(Rate.of(value, census, bits).float_times, value)


@settings(deadline=None, max_examples=200)
@given(
    below=floats,
    nudge=nudges,
    poplets=st.one_of(st.integers(1, 2**64), st.integers(2**10_000, 2**10_050)),
    bits=bracket_bits,
)
def test_float_of_poplets_times_the_rate_on_and_beside_a_midpoint(below, nudge, poplets, bits):
    total = midpoint_after(below) + nudge
    if total > 0:
        rate = Rate.of(total / poplets, 1, bits)
        assert_same_float(lambda: rate.float_times(poplets), total)
        assert rate.float_times(0) == 0.0


def test_a_two_bit_bracket_falls_back_and_a_wide_one_does_not():
    # 1/E = 7/3 lies between 2 and 3 at two bits
    narrow, wide = Rate.of(Fraction(3, 7), 1, 2), Rate.of(Fraction(3, 7), 1, 128)
    assert narrow.float_times() == wide.float_times() == 3 / 7
    assert narrow.fallbacks == Counter(float=1)
    assert wide.fallbacks == Counter()


# --- the lazily built exchange rate ---------------------------------------------------

alphas = st.sampled_from([Fraction(0), Fraction(1, 50), Fraction(1, 2), Fraction(123, 10_000)])


@settings(deadline=None, max_examples=100)
@given(
    scale=st.sampled_from([1, 3, 10**8]),
    steps=st.lists(
        st.tuples(
            alphas,
            st.sampled_from(["hold", "grow", "shrink", "rejoin", "rebuild", "snapshot", "recount"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_the_lazy_exchange_rate_equals_the_fraction_chain(scale, steps):
    # E' = E * (1 - alpha) * N_new / N_old folded over Fractions, through changes
    # of alpha, census growth, shrinkage and re-admission, states rebuilt
    # from a plain Fraction or read back from a snapshot, and a rate passed
    # on to a state with a smaller census
    state = genesis(PolicyParams(2922, Fraction(1, 50)), ["a0", "a1", "a2"], scale)
    chain = Fraction(1, scale)
    fresh = iter(f"b{i}" for i in range(100))
    for alpha, move, pick in steps:
        members = sorted(state.participants)
        if move == "rebuild":
            state = LedgerState(state.epoch, chain, state.balances)
            continue
        if move == "snapshot":
            state = state_from_json(state_to_json(state))
            continue
        if move == "recount" and len(members) > 1:
            state = LedgerState(state.epoch, state.rate, dict(state.balances), members[1:])
            continue
        params = PolicyParams(2922, alpha)
        dormant = sorted(state.balances.keys() - state.participants)
        added, removed = [], []
        if move == "grow":
            added = [next(fresh) for _ in range(1 + pick % 3)]
        elif move == "shrink" and len(members) > 1:
            removed = members[: 1 + pick % (len(members) - 1)]
        elif move == "rejoin" and dormant:
            added = [dormant[pick % len(dormant)]]
        census = state.census + len(added) - len(removed)
        chain *= (1 - alpha) * Fraction(census, state.census)
        before = state
        state, report = mint_epoch_poplet(state, params, census, added, removed)
        assert (report.issued_per_participant, report.rounding_residue_poplets) == exact_issue(
            chain, params.basic_income, census
        )
        assert state.exchange_rate == chain
        assert before.exchange_rate == chain / ((1 - alpha) * Fraction(census, before.census))
        accounts = sorted(state.balances)
        moved = transfer(state, accounts[0], accounts[-1], pick % (state.balances[accounts[0]] + 1))
        assert moved.rate is state.rate  # a transfer passes the rate on
    assert state_from_json(state_to_json(state)).exchange_rate == chain


# --- whole runs ---------------------------------------------------------------------


def test_a_long_run_decides_everything_from_the_bracket():
    # 3,000 epochs at alpha = 0.02: issued grows by about 87 bits, and no
    # issuance, residue or float needs the exact ratio
    config = parse_config(
        {
            "policy": {"basic_income": 2922.0, "demurrage_alpha": 0.02},
            "epochs": 3000,
            "population": {"kind": "fixed", "N": 10},
            "seed": 3,
            "transfers": {"count_per_epoch": 2, "max_fraction": 0.5},
        }
    )
    records = scenario.run_epochs(config)
    while True:
        try:
            next(records)
        except StopIteration as done:
            assert done.value.rate.fallbacks == Counter()
            break


def _never_called(value):
    raise AssertionError(f"Decimal called on an int of {value.bit_length()} bits")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("limit", [None, 0, 640, 4300])
def test_the_snapshot_writes_the_same_digits_under_any_int_to_str_limit(monkeypatch, limit):
    # str writes every int it can, Decimal only those past the limit, both the
    # same digits; None stands for an interpreter without the limit, where str
    # refuses none and Decimal is never called
    params = PolicyParams(2922, Fraction(1, 50))
    state = genesis(params, ["a", "b"], 10**8)
    for _ in range(40):
        state, _ = mint_epoch_poplet(state, params, 2)
    big = LedgerState(3, Fraction(49**2600, 50**2600), {"a": 10**5000, "b": 7})
    texts = state_to_json(state), state_to_json(big)
    assert texts[1].startswith('{"balances":{"a":1' + "0" * 5000 + ',"b":7}')
    default = sys.get_int_max_str_digits()
    if limit is None:
        monkeypatch.setattr(errors, "Decimal", _never_called)
    sys.set_int_max_str_digits(limit or 0)
    try:
        assert (state_to_json(state), state_to_json(big)) == texts
    finally:
        sys.set_int_max_str_digits(default)
