"""Ledger unit tests: minting arithmetic, transfers, serialization, and the
poplet-vs-direct-rebasing equivalence."""

import json
import math
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from popcoin_sim import (
    CensusMismatchError,
    DirectLedgerState,
    InsufficientBalanceError,
    InvalidGenesisError,
    LedgerState,
    PolicyParams,
    UnknownAccountError,
    balance_popcoin,
    balance_popcoin_exact,
    direct_genesis,
    direct_total_supply,
    direct_transfer,
    genesis,
    mint_epoch_direct,
    mint_epoch_poplet,
    state_from_json,
    state_to_json,
    total_supply_popcoin,
    total_supply_popcoin_exact,
    transfer,
)
from popcoin_sim.ledger import exact

DEFAULT = PolicyParams(basic_income=2922, demurrage_alpha=0.02)


def test_policy_holds_basic_income_and_demurrage_only():
    assert [spec.name for spec in fields(PolicyParams)] == ["basic_income", "demurrage_alpha"]


def make_ledger(n_accounts, scale=1, params=DEFAULT):
    return genesis(params, [f"a{i}" for i in range(n_accounts)], poplet_scale=scale)


# --- policy params -----------------------------------------------------------


def test_params_decimal_exactness():
    params = PolicyParams(basic_income=2922, demurrage_alpha=0.02)
    assert params.demurrage_alpha == Fraction(1, 50)
    assert params.basic_income == Fraction(2922)


def test_params_default_income_is_eight_hours_of_year():
    assert float(PolicyParams(basic_income=2922.0, demurrage_alpha=0.02).basic_income) == 365.25 * 8


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
def test_params_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError):
        PolicyParams(basic_income=1, demurrage_alpha=alpha)


def test_params_rejects_nonpositive_income():
    with pytest.raises(ValueError):
        PolicyParams(basic_income=0, demurrage_alpha=0.02)


def test_exact_reads_floats_as_decimal_literals():
    assert exact(0.02) == Fraction(1, 50)
    assert exact(0.1) == Fraction(1, 10)
    assert exact("0.25") == Fraction(1, 4)
    assert exact(3) == Fraction(3)
    assert exact(Decimal("0.25")) == exact(Decimal("2.5E-1")) == Fraction(1, 4)


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"), "inf"]
)
def test_exact_rejects_every_non_finite_number_alike(value):
    with pytest.raises(ValueError):
        exact(value)


@pytest.mark.parametrize("value", [True, None, object(), 1j])
def test_exact_rejects_a_bool_or_a_non_number_with_type_error(value):
    with pytest.raises(TypeError):
        exact(value)


# --- genesis ------------------------------------------------------------------


def test_genesis_zero_balances_and_scale():
    state = make_ledger(3, scale=10**8)
    assert state.epoch == 0
    assert state.census == 3
    assert state.exchange_rate == Fraction(1, 10**8)
    assert all(b == 0 for b in state.balances.values())
    assert total_supply_popcoin(state) == 0.0


def test_genesis_rejects_empty_and_duplicates():
    with pytest.raises(InvalidGenesisError):
        genesis(DEFAULT, [])
    with pytest.raises(InvalidGenesisError):
        genesis(DEFAULT, ["a", "a"])


@pytest.mark.parametrize("scale", [0, -1, 1.5])
def test_genesis_rejects_bad_scale(scale):
    with pytest.raises(InvalidGenesisError):
        genesis(DEFAULT, ["a"], poplet_scale=scale)


# --- minting ------------------------------------------------------------------


def test_mint_constant_census_frozen_example():
    # 100 participants, scale 1, alpha 1/50, B 2922: E' = 49/50 and each
    # account gets round_half_even(2922 * 50/49) = 2982 poplets, worth
    # exactly 73059/25 = 2922.36.
    state = make_ledger(100)
    state, report = mint_epoch_poplet(state, DEFAULT, 100)
    assert state.exchange_rate == Fraction(49, 50)
    assert report.issued_per_participant == 2982
    assert balance_popcoin_exact(state, "a0") == Fraction(73059, 25)
    assert balance_popcoin(state, "a0") == approx(2922.36)
    # residue: ideal is 2922*50/49 per head, actual 2982 -> 18/49 each
    assert _exact_residue(state, DEFAULT, report) == 100 * Fraction(18, 49)
    assert report.rounding_residue_poplets == 37
    assert abs(report.rounding_residue_poplets) <= state.census


def test_mint_uses_post_update_rate():
    # Census doubling: E' = 2 * 0.98 * E. Issuance must divide by E', not E:
    # with scale 1 that is round(2922 / 1.96) = 1491, not round(2922 / 1) = 2922.
    state = make_ledger(5)
    state, report = mint_epoch_poplet(
        state, DEFAULT, 10, new_accounts=[f"n{i}" for i in range(5)]
    )
    assert state.exchange_rate == Fraction(49, 25)
    assert report.issued_per_participant == round(Fraction(2922) / Fraction(49, 25))
    assert report.issued_per_participant == 1491


def test_mint_census_doubling_without_demurrage_doubles_value():
    # Pure redenomination: saved poplets double in currency value when the
    # census doubles and alpha = 0.
    params = PolicyParams(basic_income=100, demurrage_alpha=0)
    state = genesis(params, ["a", "b"])
    state, _ = mint_epoch_poplet(state, params, 2)
    saved = balance_popcoin_exact(state, "a")
    assert state.exchange_rate == 1
    state, _ = mint_epoch_poplet(state, params, 4, new_accounts=["c", "d"])
    assert state.exchange_rate == 2
    # the old poplets alone are now worth twice as much; subtract new income
    assert balance_popcoin_exact(state, "a") - params.basic_income == 2 * saved


def test_mint_zero_alpha_constant_census_keeps_rate():
    params = PolicyParams(basic_income=7, demurrage_alpha=0)
    state = genesis(params, ["a"])
    state, report = mint_epoch_poplet(state, params, 1)
    assert state.exchange_rate == 1
    assert report.issued_per_participant == 7


def test_mint_added_account_receives_income_removed_keeps_balance():
    state = make_ledger(3)
    state, _ = mint_epoch_poplet(state, DEFAULT, 3)
    held = state.balances["a2"]
    state, report = mint_epoch_poplet(
        state, DEFAULT, 3, new_accounts=["new"], removed_accounts=["a2"]
    )
    assert state.balances["new"] == report.issued_per_participant
    assert state.balances["a2"] == held  # dormant: no income, poplets intact
    assert "a2" not in state.participants
    assert state.census == 3


def test_mint_without_census_deltas_keeps_the_participant_set():
    # a fixed-census epoch copies no balances: it shares the id table, the
    # entries and the member flags, and adds the issuance to the common
    # credit alone
    state = make_ledger(3)
    after, report = mint_epoch_poplet(state, DEFAULT, 3)
    assert after.participants == state.participants
    for part in ("index", "held", "flags"):
        assert getattr(after.balances, part) is getattr(state.balances, part)
    assert after.balances.credit == state.balances.credit + report.issued_per_participant
    grown, _ = mint_epoch_poplet(after, DEFAULT, 4, new_accounts=["new"])
    assert grown.participants == after.participants | {"new"}


def test_a_census_change_writes_copies_and_leaves_its_input_as_it_was():
    # a removal shares the id table and copies the entries and flags; a mint
    # that opens an account copies the table too
    state = make_ledger(12)
    table = state.balances.index
    accounts = list(table)
    before = dict(state.balances), state.participants
    shrunk, _ = mint_epoch_poplet(state, DEFAULT, 11, removed_accounts=["a1"])
    assert shrunk.balances.index is table
    assert shrunk.balances.held is not state.balances.held
    assert shrunk.balances.flags is not state.balances.flags
    grown, _ = mint_epoch_poplet(shrunk, DEFAULT, 13, new_accounts=["new", "a1"])
    assert grown.balances.index is not table
    assert list(grown.balances.index.items()) == list(zip([*accounts, "new"], range(13)))
    assert grown.participants == {*accounts, "new"}
    assert (dict(state.balances), state.participants) == before
    assert list(table) == accounts and "new" not in shrunk.balances


def test_a_state_rejects_participants_without_balance_entries():
    # a member without an entry would be counted by every mint and hold nothing
    with pytest.raises(ValueError, match="participants must all hold balance entries"):
        LedgerState(0, Fraction(1, 100), {"a": 0}, frozenset({"a", "b"}))


def test_a_state_rejects_an_empty_census():
    # the next mint would divide by it
    with pytest.raises(ValueError, match="participants must not be empty"):
        LedgerState(0, Fraction(1, 100), {"a": 0}, frozenset())


@pytest.mark.parametrize("rate", [Fraction(0), Fraction(-1, 2), 0, -0.5])
def test_a_state_rejects_a_rate_that_is_not_positive(rate):
    # a zero rate would end the next mint in a division by zero, and a
    # negative one would issue negative basic income
    with pytest.raises(ValueError, match="exchange_rate must be positive"):
        LedgerState(0, rate, {"a": 5, "b": 7})


def test_a_state_reads_a_float_rate_through_its_decimal_literal():
    # as PolicyParams reads its floats: 0.1 is 1/10, not the nearest double
    assert LedgerState(0, 0.1, {"a": 5}).exchange_rate == Fraction(1, 10)


def test_a_state_from_a_plain_mapping_counts_every_key():
    # with no participants every holder is a member, as in a snapshot
    # without a "participants" key
    state = LedgerState(0, Fraction(1, 100), {"a": 5, "b": 7})
    assert state.participants == {"a", "b"} and state.census == 2
    assert dict(state.balances) == {"a": 5, "b": 7}
    assert state_from_json(state_to_json(state)) == state


def test_mint_census_mismatch_errors():
    state = make_ledger(3)
    with pytest.raises(CensusMismatchError):
        mint_epoch_poplet(state, DEFAULT, 5)  # declared census off by one
    with pytest.raises(CensusMismatchError):
        mint_epoch_poplet(state, DEFAULT, 4, new_accounts=["a0"])  # already in
    with pytest.raises(CensusMismatchError):
        mint_epoch_poplet(state, DEFAULT, 2, removed_accounts=["ghost"])
    with pytest.raises(CensusMismatchError):
        mint_epoch_poplet(state, DEFAULT, 3, new_accounts=["x"], removed_accounts=["x"])
    with pytest.raises(CensusMismatchError):
        mint_epoch_poplet(state, DEFAULT, 0)


def test_mint_report_supplies_bracket_the_step():
    # the poplet total grows by exactly census * issued; the dormant a9 earns nothing
    state = make_ledger(10)
    state, _ = mint_epoch_poplet(state, DEFAULT, 10)
    before = sum(state.balances.values())
    state, report = mint_epoch_poplet(state, DEFAULT, 9, removed_accounts=["a9"])
    assert sum(state.balances.values()) == before + 9 * report.issued_per_participant


def _exact_residue(state, params, report):
    """census * issued - census * B/E', from the state a mint returned."""
    ideal = params.basic_income / state.exchange_rate
    return state.census * (report.issued_per_participant - ideal)


def _mint_reference(state, params, new_census, new_accounts=(), removed_accounts=()):
    """The all-``Fraction`` issuance step that the integer one replaced."""
    participants = (state.participants | set(new_accounts)) - set(removed_accounts)
    rate = (
        state.exchange_rate
        * (1 - params.demurrage_alpha)
        * Fraction(new_census, state.census)
    )
    # Fraction.__round__ is round-half-even, matching the minting rule.
    issued = round(params.basic_income / rate)
    balances = dict(state.balances)
    for account in participants:
        balances[account] = balances.get(account, 0) + issued

    residue = new_census * issued - new_census * params.basic_income / rate
    report = {"issued_per_participant": issued, "rounding_residue_poplets": round(residue)}
    return rate, balances, participants, report


incomes = st.one_of(
    st.integers(min_value=1, max_value=10_000),
    st.builds(
        lambda digits, places: Fraction(digits, 10**places),
        st.integers(min_value=1, max_value=10**7),
        st.integers(min_value=1, max_value=4),
    ),
    # odd halves: with alpha 0 and scale 1 these tie at E = 1
    st.integers(min_value=0, max_value=20).map(lambda k: Fraction(2 * k + 1, 2)),
)
alphas = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1, 2), Fraction(1, 50), Fraction(123, 10_000)]),
    st.integers(min_value=1, max_value=99).map(lambda k: Fraction(k, 100)),
)


@settings(deadline=None, max_examples=300)
@given(
    income=incomes,
    alpha=alphas,
    scale=st.sampled_from([1, 10**8]),
    n0=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_mint_matches_fraction_reference(income, alpha, scale, n0, data):
    params = PolicyParams(basic_income=income, demurrage_alpha=alpha)
    state = make_ledger(n0, scale=scale, params=params)
    fresh = iter(f"b{i}" for i in range(1000))
    for _ in range(data.draw(st.integers(min_value=1, max_value=12), label="epochs")):
        members = sorted(state.participants)
        dormant = sorted(set(state.balances) - state.participants)
        removed = data.draw(
            st.lists(st.sampled_from(members), unique=True, max_size=min(3, len(members) - 1))
            if len(members) > 1
            else st.just([]),
            label="removed",
        )
        readded = data.draw(
            st.lists(st.sampled_from(dormant), unique=True, max_size=2) if dormant else st.just([]),
            label="readded",
        )
        added = readded + [next(fresh) for _ in range(data.draw(st.integers(0, 3), label="new"))]
        census = state.census + len(added) - len(removed)

        rate, balances, participants, expected = _mint_reference(
            state, params, census, added, removed
        )
        epoch = state.epoch
        state, report = mint_epoch_poplet(state, params, census, added, removed)
        assert state.epoch == epoch + 1
        assert state.census == census
        assert state.exchange_rate == rate
        assert state.balances == balances
        assert state.participants == participants
        assert vars(report) == expected
        assert abs(report.rounding_residue_poplets) <= (census + 1) // 2


def test_mint_half_ties_round_to_even():
    # alpha 0, scale 1: E = N / N0, so B / E' is exactly 2.5, then 1.5, then 0.5
    params = PolicyParams(basic_income=Fraction(5, 2), demurrage_alpha=0)
    state = make_ledger(3, params=params)
    issued = []
    for census, added in ((3, []), (5, ["x", "y"]), (15, [f"z{i}" for i in range(10)])):
        *_, expected = _mint_reference(state, params, census, added)
        state, report = mint_epoch_poplet(state, params, census, added)
        assert vars(report) == expected
        issued.append(report.issued_per_participant)
    assert issued == [2, 2, 0]
    # 15 participants each short by half a poplet: -7.5 rounds to -8 = -(15 + 1) // 2
    assert _exact_residue(state, params, report) == Fraction(-15, 2)
    assert report.rounding_residue_poplets == -8


@settings(deadline=None, max_examples=150)
@given(
    income=incomes,
    alpha=alphas,
    n0=st.integers(min_value=1, max_value=5),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["hold", "grow", "shrink", "swap", "rejoin", "transfer"]),
            st.integers(min_value=0, max_value=10**9),
            st.integers(min_value=0, max_value=10**9),
        ),
        min_size=1,
        max_size=16,
    ),
)
def test_the_common_credit_equals_the_dict_fold(income, alpha, n0, steps):
    # the same steps folded through a plain dict that credits every member
    # (``_mint_reference``) give the same balances and snapshot at every step
    params = PolicyParams(basic_income=income, demurrage_alpha=alpha)
    state = make_ledger(n0, params=params)
    reference = state  # built from a plain dict: held is the balances, credit is 0
    fresh = iter(f"b{i}" for i in range(100))
    for move, pick, raw in steps:
        if move == "transfer":
            accounts = sorted(state.balances)
            sender, recipient = accounts[pick % len(accounts)], accounts[raw % len(accounts)]
            amount = raw % (state.balances[sender] + 1)
            state = transfer(state, sender, recipient, amount)
            balances = dict(reference.balances)
            balances[sender] -= amount
            balances[recipient] += amount
            reference = LedgerState(
                state.epoch, reference.exchange_rate, balances, reference.participants
            )
        else:
            members = sorted(state.participants)
            dormant = sorted(state.balances.keys() - state.participants)
            added, removed = [], []
            if move in ("shrink", "swap") and len(members) > 1:
                removed = [members[pick % len(members)]]
            if move in ("grow", "swap"):
                added = [next(fresh) for _ in range(1 + raw % 2)]
            if move == "rejoin" and dormant:
                added = [dormant[pick % len(dormant)]]
            census = state.census + len(added) - len(removed)
            rate, balances, participants, _ = _mint_reference(
                reference, params, census, added, removed
            )
            state, _ = mint_epoch_poplet(state, params, census, added, removed)
            reference = LedgerState(state.epoch, rate, balances, frozenset(participants))
        assert state.participants == reference.participants
        assert dict(state.balances) == dict(reference.balances)
        assert state_to_json(state) == _dumps_snapshot(reference)


# --- transfers ------------------------------------------------------------------


def test_transfer_moves_poplets():
    state = make_ledger(2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 2)
    state2 = transfer(state, "a0", "a1", 1000)
    assert state2.balances["a0"] == state.balances["a0"] - 1000
    assert state2.balances["a1"] == state.balances["a1"] + 1000


def test_transfer_rejections_leave_state_alone():
    state = make_ledger(2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 2)
    held = dict(state.balances)
    with pytest.raises(InsufficientBalanceError):
        transfer(state, "a0", "a1", held["a0"] + 1)
    with pytest.raises(UnknownAccountError):
        transfer(state, "a0", "ghost", 1)
    with pytest.raises(UnknownAccountError):
        transfer(state, "ghost", "a0", 1)
    with pytest.raises(ValueError):
        transfer(state, "a0", "a1", -5)
    assert state.balances == held


def test_dormant_holder_can_still_transact():
    state = make_ledger(2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 1, removed_accounts=["a1"])
    state = transfer(state, "a1", "a0", 10)
    assert "a1" not in state.participants
    assert state.balances["a1"] >= 0


@given(
    amounts=st.lists(st.integers(min_value=0, max_value=500), max_size=30),
    pair_picks=st.lists(st.integers(min_value=0, max_value=5), min_size=30, max_size=30),
)
def test_transfers_conserve_poplets(amounts, pair_picks):
    state = make_ledger(3)
    state, _ = mint_epoch_poplet(state, DEFAULT, 3)
    total = sum(state.balances.values())
    accounts = sorted(state.balances)
    pairs = [(a, b) for a in accounts for b in accounts if a != b]
    for amount, pick in zip(amounts, pair_picks):
        sender, recipient = pairs[pick]
        try:
            state = transfer(state, sender, recipient, amount)
        except InsufficientBalanceError:
            pass
        assert sum(state.balances.values()) == total
        assert all(b >= 0 for b in state.balances.values())


# --- value accessors ------------------------------------------------------------


def test_total_supply_includes_dormant_holders():
    state = make_ledger(2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 1, removed_accounts=["a1"])
    assert state.balances["a1"] > 0
    # dormant poplets still count at the current rate
    assert (
        total_supply_popcoin_exact(state)
        == sum(state.balances.values()) * state.exchange_rate
    )
    assert total_supply_popcoin_exact(state) > balance_popcoin_exact(state, "a0")


def test_fixed_census_supply_tracks_geometric_closed_form():
    # From zero, k constant-census mintings approach B*N/alpha like
    # (B*N/alpha) * (1 - (1-alpha)^k); the ledger may differ by cumulative
    # issuance rounding, at most half a poplet per head per epoch.
    n, k = 10, 50
    state = make_ledger(n, scale=10**8)
    for _ in range(k):
        state, _ = mint_epoch_poplet(state, DEFAULT, n)
    cap = 2922 * n / 0.02
    ideal = cap * (1 - 0.98**k)
    slack = n * k * float(state.exchange_rate)
    assert total_supply_popcoin(state) == approx(ideal, abs=slack)


def test_fixed_census_supply_strictly_increases_below_cap():
    n = 7
    params = PolicyParams(basic_income=100, demurrage_alpha=0.05)
    cap = Fraction(100) * n / Fraction(1, 20)
    state = make_ledger(n, scale=10**6, params=params)
    last = total_supply_popcoin_exact(state)
    for _ in range(60):
        state, _ = mint_epoch_poplet(state, params, n)
        current = total_supply_popcoin_exact(state)
        assert current > last  # exact rational comparison, no tolerance
        assert current < cap
        last = current


def test_unknown_account_balance_lookup():
    state = make_ledger(1)
    with pytest.raises(UnknownAccountError):
        balance_popcoin(state, "nope")


# --- serialization ----------------------------------------------------------------


def test_snapshot_round_trip_is_byte_exact():
    state = make_ledger(3, scale=10**8)
    state, _ = mint_epoch_poplet(state, DEFAULT, 4, new_accounts=["zed"])
    state = transfer(state, "zed", "a0", 17)
    text = state_to_json(state)
    again = state_from_json(text)
    assert again == state
    assert state_to_json(again) == text
    assert "participants" not in text  # everyone is a member here


def test_snapshot_carries_participants_only_when_dormant_exist():
    state = make_ledger(2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 2)
    state, _ = mint_epoch_poplet(state, DEFAULT, 1, removed_accounts=["a1"])
    text = state_to_json(state)
    assert '"participants":["a0"]' in text
    again = state_from_json(text)
    assert again.participants == frozenset(["a0"])
    assert again.census == 1
    assert state_to_json(again) == text


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("epoch"),
        lambda d: d.__setitem__("census", 99),
        lambda d: d["exchange_rate"].__setitem__("den", 0),
        lambda d: d["balances"].__setitem__("a0", -1),
        lambda d: d.__setitem__("balances", {}),
        lambda d: d.__setitem__("participants", ["ghost"]),
        # JSON true and 1.0 equal 1 in Python, but are not JSON integers
        lambda d: d.__setitem__("epoch", True),
        lambda d: d.update(census=True, participants=["a0"]),
        lambda d: d.update(census=1.0, participants=["a0"]),
        lambda d: d["exchange_rate"].__setitem__("num", True),
        lambda d: d["exchange_rate"].__setitem__("den", True),
        # participants must be a list of account ids
        lambda d: d.update(balances={"a": 0, "b": 0}, participants="ab"),
        lambda d: d.__setitem__("participants", 5),
        lambda d: d.__setitem__("participants", [[1]]),
    ],
)
def test_snapshot_rejects_malformed_documents(mutate):
    state = make_ledger(2)
    doc = json.loads(state_to_json(state))
    mutate(doc)
    with pytest.raises(ValueError):
        state_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    [
        # no API sequence empties the census; the next mint would divide by it
        '{"balances":{"a":5},"census":0,"epoch":0,'
        '"exchange_rate":{"den":1,"num":1},"participants":[]}',
        # deeper than the parser's recursion limit
        "[" * 100000 + "]" * 100000,
    ],
    ids=["empty-census", "nested-past-the-recursion-limit"],
)
def test_snapshot_rejects_what_no_state_writes(text):
    with pytest.raises(ValueError):
        state_from_json(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "the document is an array, not an object"),
        ('"snapshot"', "the document is a string, not an object"),
        ("null", "the document is null, not an object"),
        ("true", "the document is a boolean, not an object"),
        (
            '{"balances":{"a":5},"census":1,"epoch":0,"exchange_rate":5}',
            "exchange_rate is a number, not an object",
        ),
        (
            '{"balances":{"a":5},"census":1,"epoch":0,"exchange_rate":[1, 2]}',
            "exchange_rate is an array, not an object",
        ),
        ('{"balances":{"a":5},"census":1,"exchange_rate":5}', "missing 'epoch'"),
        ('{"balances":{"a":5},"census":1,"epoch":0,"exchange_rate":{"num":1}}', "missing 'den'"),
    ],
    ids=["array", "string", "null", "boolean", "rate-number", "rate-array", "no-epoch", "no-den"],
)
def test_snapshot_names_the_value_that_is_not_an_object(text, message):
    with pytest.raises(ValueError) as raised:
        state_from_json(text)
    assert str(raised.value) == f"malformed ledger snapshot: {message}"


def _dumps_snapshot(state):
    """The snapshot as one ``json.dumps`` call writes it, where that call works."""
    rate = state.exchange_rate
    doc = {
        "epoch": state.epoch,
        "census": state.census,
        "exchange_rate": {"num": rate.numerator, "den": rate.denominator},
        "balances": dict(sorted(state.balances.items())),
    }
    if len(state.participants) != len(state.balances):
        doc["participants"] = sorted(state.participants)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@st.composite
def snapshot_states(draw, rates):
    balances = draw(
        st.dictionaries(
            st.text(min_size=1, max_size=6),  # any code point, so non-ASCII escapes too
            st.one_of(st.just(0), st.integers(min_value=0, max_value=10**40)),
            min_size=1,
            max_size=8,
        )
    )
    # a proper subset leaves dormant holders, written as the participants list
    participants = draw(st.sets(st.sampled_from(sorted(balances)), min_size=1))
    return LedgerState(
        epoch=draw(st.integers(min_value=0, max_value=10**5)),
        exchange_rate=draw(rates),
        balances=balances,
        participants=frozenset(participants),
    )


small_rates = st.builds(
    Fraction, st.integers(min_value=1, max_value=10**30), st.integers(min_value=1, max_value=10**9)
)
# (49/50)^k is the rate after k epochs at alpha = 0.02; 50^2531 has 4301 digits
long_rates = st.integers(min_value=2531, max_value=3000).map(lambda k: Fraction(49**k, 50**k))


@settings(deadline=None, max_examples=100)
@given(state=snapshot_states(small_rates), long_state=snapshot_states(long_rates))
def test_snapshot_is_json_dumps_and_round_trips_past_the_digit_limit(state, long_state):
    assert state_to_json(state) == _dumps_snapshot(state)
    assert state_from_json(state_to_json(state)) == state
    with pytest.raises(ValueError, match="4300"):
        _dumps_snapshot(long_state)
    text = state_to_json(long_state)
    assert state_from_json(text) == long_state
    assert state_to_json(state_from_json(text)) == text


# --- equivalence with the direct-rebasing oracle -------------------------------------


def test_direct_mint_matches_hand_computation():
    params = PolicyParams(basic_income=5, demurrage_alpha=0.02)
    state = direct_genesis(["a", "b"])
    state = mint_epoch_direct(state, params, 2)
    # everyone starts at zero, so first epoch is just B
    assert state.balances["a"] == 5
    # from a hand-built holding of 100: 100 * 0.98 + 5 = 103 exactly
    state = DirectLedgerState(
        epoch=1,
        balances={"a": Fraction(100), "b": Fraction(0)},
        participants=frozenset(["a", "b"]),
    )
    state = mint_epoch_direct(state, params, 2)
    assert state.balances["a"] == Fraction(103)
    assert state.balances["b"] == Fraction(5)


def test_direct_doubling_without_demurrage():
    params = PolicyParams(basic_income=12, demurrage_alpha=0)
    holders = {f"a{i}": Fraction(0) for i in range(10)}
    holders["a0"] = Fraction(100)
    state = DirectLedgerState(epoch=0, balances=holders, participants=frozenset(holders))
    state = mint_epoch_direct(
        state, params, 20, new_accounts=[f"n{i}" for i in range(10)]
    )
    # pure redenomination doubles the held 100, then income arrives on top
    assert state.balances["a0"] == 200 + 12


@settings(deadline=None, max_examples=25)
@given(
    moves=st.lists(st.sampled_from(["grow", "shrink", "hold"]), min_size=1, max_size=12),
    transfer_picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=12,
        max_size=12,
    ),
)
def test_poplet_ledger_tracks_direct_rebasing(moves, transfer_picks):
    """Per-account disagreement stays under half a poplet per epoch.

    The poplet ledger rounds B/E' once per epoch; mirroring every mint and
    transfer into the exact direct-rebasing ledger, value differences are
    bounded by epochs * E (in currency units).
    """
    params = PolicyParams(basic_income=2922, demurrage_alpha=0.02)
    state = genesis(params, ["a0", "a1", "a2"], poplet_scale=10**6)
    mirror = direct_genesis(["a0", "a1", "a2"])
    next_id = 0
    epochs = 0
    for move, picks in zip(moves, transfer_picks):
        census = state.census
        new, removed = [], []
        if move == "grow":
            new = [f"g{next_id}"]
            next_id += 1
            census += 1
        elif move == "shrink" and census > 1:
            removed = [sorted(state.participants)[-1]]
            census -= 1
        state, _ = mint_epoch_poplet(state, params, census, new, removed)
        mirror = mint_epoch_direct(mirror, params, census, new, removed)
        epochs += 1
        accounts = sorted(state.balances)
        s_i, r_i, raw = picks
        sender = accounts[s_i % len(accounts)]
        recipient = accounts[r_i % len(accounts)]
        if sender != recipient:
            # issuance rounding can leave either ledger a little richer; both must hold the amount
            most = min(state.balances[sender], int(mirror.balances[sender] / state.exchange_rate))
            amount = raw % (most + 1)
            state = transfer(state, sender, recipient, amount)
            mirror = direct_transfer(mirror, sender, recipient, amount * state.exchange_rate)
    bound = epochs * state.exchange_rate
    for account in state.balances:
        gap = abs(balance_popcoin_exact(state, account) - mirror.balances[account])
        assert gap <= bound
    assert abs(
        total_supply_popcoin_exact(state) - direct_total_supply(mirror)
    ) <= len(state.balances) * bound
