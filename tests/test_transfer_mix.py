"""The vectorised transfer mix against its scalar definitions.

``SplitMix64.draws`` must reproduce ``next_uint64`` draw for draw;
``scenario._transfer_draws`` must reduce a chunk of epochs' draws to the
scalar ``below`` draws of each epoch; and ``scenario._mix_transfers`` fed
one epoch's draws must equal a fold of the pure ``ledger.transfer`` driven
by scalar ``below`` draws, as the determinism contract in the scenario
module describes it, and return every position it wrote.
"""

from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popcoin_sim import (
    InvariantViolation,
    LedgerState,
    SplitMix64,
    census_path,
    parse_config,
    scenario,
    transfer,
)
from popcoin_sim.ledger import Balances
from popcoin_sim.scenario import _CHUNK_DRAWS, _mix_transfers, _transfer_draws

GAMMA = 0x9E3779B97F4A7C15


@given(
    seed=st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        # states whose first few counter steps already wrap past 2**64
        st.integers(min_value=2**64 - 3 * GAMMA, max_value=2**64 - 1),
    ),
    count=st.integers(min_value=0, max_value=5000),
)
@example(seed=2**64 - 1, count=5000)
@example(seed=0, count=0)
def test_block_equals_scalar_draws(seed, count):
    vector, scalar = SplitMix64(seed), SplitMix64(seed)
    block = vector.draws(count).tolist()
    assert block == [scalar.next_uint64() for _ in range(count)]
    assert all(type(raw) is int for raw in block)
    assert vector._state == scalar._state
    assert vector.next_uint64() == scalar.next_uint64()


block_counts = st.one_of(
    st.sampled_from([0, 1, 2, 3, 9, _CHUNK_DRAWS - 1, _CHUNK_DRAWS, _CHUNK_DRAWS + 1]),
    st.integers(min_value=0, max_value=2 * _CHUNK_DRAWS + 3),
)
stream_calls = st.lists(
    st.one_of(
        st.tuples(st.just("draws"), block_counts),
        st.tuples(st.just("next_uint64"), st.just(0)),
        st.tuples(st.just("below"), st.integers(min_value=1, max_value=2**70)),
    ),
    max_size=25,
)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), calls=stream_calls)
# a scalar draw between two blocks of one size
@example(seed=5, calls=[("draws", 3), ("next_uint64", 0), ("draws", 3)])
@example(seed=5, calls=[("draws", 9), ("below", 7), ("draws", 9), ("draws", 0), ("draws", 9)])
# requests up to a chunk of draws, and one past it
@example(seed=2**64 - 1, calls=[("draws", 1), ("draws", _CHUNK_DRAWS), ("draws", _CHUNK_DRAWS + 1)])
def test_interleaved_calls_follow_the_scalar_stream(seed, calls):
    rng, scalar = SplitMix64(seed), SplitMix64(seed)
    for method, arg in calls:
        if method == "next_uint64":
            assert rng.next_uint64() == scalar.next_uint64()
        elif method == "below":
            assert rng.below(arg) == scalar.below(arg)
        else:
            out = rng.draws(arg)
            assert out.dtype == np.uint64
            out = out.tolist()
            assert all(type(raw) is int for raw in out)
            assert out == [scalar.next_uint64() for _ in range(arg)]
        assert rng._state == scalar._state


def test_a_negative_count_is_rejected_and_moves_nothing():
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="count must be non-negative, got -3"):
        rng.draws(-3)
    assert rng._state == SplitMix64(5)._state


def epoch_draws(rng, state, count):
    """One epoch's transfer draws for the accounts of ``state``, as a run takes them."""
    return next(_transfer_draws(rng, [len(state.balances)], count))


def mix_by_transfer_fold(state, rng, count, frac):
    """The transfer mix as documented: scalar draws over the accounts in the
    ledger's order, one pure transfer each."""
    accounts = list(state.balances)
    if len(accounts) < 2:
        return state
    for _ in range(count):
        sender_idx = rng.below(len(accounts))
        recipient_idx = rng.below(len(accounts) - 1)
        if recipient_idx >= sender_idx:
            recipient_idx += 1
        cap = state.balances[accounts[sender_idx]] * frac.numerator // frac.denominator
        amount = rng.below(cap + 1)
        if amount > 0:
            state = transfer(state, accounts[sender_idx], accounts[recipient_idx], amount)
    return state


@st.composite
def ledger_states(draw):
    # ids stay in drawn order, rarely sorted, so the test tells ledger order from sorted order
    ids = draw(
        st.lists(
            st.text(alphabet="abpz019", min_size=1, max_size=6),
            min_size=2,
            max_size=50,
            unique=True,
        )
    )
    # balances within int64, or past it, as they are at long horizons
    top = draw(st.sampled_from([2**40, 2**80]))
    balances = {a: draw(st.integers(min_value=0, max_value=top)) for a in ids}
    # a census of at least one member, as every state has
    flags = st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))
    dormant = draw(flags.filter(lambda off: not all(off)))
    members = frozenset(a for a, off in zip(ids, dormant) if not off)
    # members hold their balance less the common credit, late joiners less than nothing
    credit = draw(st.integers(min_value=0, max_value=top))
    held = {a: poplets - credit if a in members else poplets for a, poplets in balances.items()}
    return LedgerState(
        epoch=draw(st.integers(min_value=0, max_value=10**4)),
        exchange_rate=Fraction(1, draw(st.integers(min_value=1, max_value=10**12))),
        balances=Balances.from_entries(held, members, credit),
        participants=members,
    )


fractions_in_unit_interval = st.integers(min_value=1, max_value=10**6).flatmap(
    lambda den: st.integers(min_value=1, max_value=den).map(lambda num: Fraction(num, den))
)


def funded(*ids):
    """Every id holds 10**6 poplets, so at ``frac`` 1 these seeds draw nonzero amounts."""
    return LedgerState(0, Fraction(1), {a: 10**6 for a in ids}, frozenset(ids))


@given(
    state=ledger_states(),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    # fewer transfers than an eighth of the accounts, which the run patches, or more
    count=st.one_of(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=200)),
    frac=fractions_in_unit_interval,
)
# The recipient skip at its edges, one transfer each: (sender, recipient draw)
# is (0, 0) at seed 7, (n - 1, n - 2) at seed 1 and (1, 1) at seed 8; with two
# accounts, seed 5 draws senders 0 then 1.
@example(state=funded("a", "b", "c"), seed=7, count=1, frac=Fraction(1))
@example(state=funded("a", "b", "c"), seed=1, count=1, frac=Fraction(1))
@example(state=funded("a", "b", "c"), seed=8, count=1, frac=Fraction(1))
@example(state=funded("a", "b"), seed=5, count=2, frac=Fraction(1))
# ids out of sorted order: seed 7 sends from the first account in the ledger, "c"
@example(state=funded("c", "a", "b"), seed=7, count=1, frac=Fraction(1))
# one transfer among nine accounts writes its sender and recipient
@example(state=funded(*"abcdefghi"), seed=7, count=1, frac=Fraction(1))
def test_mix_equals_fold_of_pure_transfers(state, seed, count, frac):
    held_before = dict(state.balances)
    rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
    mixed, written = _mix_transfers(state, epoch_draws(rng, state, count), count, frac)
    expected = mix_by_transfer_fold(state, oracle_rng, count, frac)
    assert mixed == expected
    assert rng._state == oracle_rng._state
    assert state.balances == held_before  # the input state is not modified
    # the run patches its image at the positions returned: every entry of
    # ``held`` that the mix changed is among them
    before, after = state.balances.held, mixed.balances.held
    assert len(after) == len(before)
    assert {i for i, entry in enumerate(after) if entry != before[i]} <= set(written)
    assert len(written) == 2 * count


def test_mix_with_one_account_draws_nothing():
    state = LedgerState(3, Fraction(1, 100), {"solo": 500}, frozenset({"solo"}))
    rng = SplitMix64(9)
    mixed, written = _mix_transfers(state, epoch_draws(rng, state, 10), 10, Fraction(1, 2))
    assert mixed is state and not written
    assert rng._state == SplitMix64(9)._state


def test_mix_rejects_an_overdrawing_amount():
    # a fraction above one can only reach the kernel by bypassing validation
    balances = {"a": 10**6, "b": 10**6}
    state = LedgerState(1, Fraction(1), balances, frozenset(balances))
    with pytest.raises(InvariantViolation, match=r"poplets from '[ab]', which holds"):
        _mix_transfers(state, epoch_draws(SplitMix64(1), state, 50), 50, Fraction(3))


def scalar_epoch_draws(rng, accounts, count):
    """One epoch's ``(A, senders, recipients, amounts)`` from scalar draws, as
    the determinism contract defines them: ``below(A)``, ``below(A - 1)``
    skipping the sender, then the raw amount draw."""
    senders, recipients, amounts = [], [], []
    if accounts >= 2:
        for _ in range(count):
            sender, recipient = rng.below(accounts), rng.below(accounts - 1)
            senders.append(sender)
            recipients.append(recipient + (recipient >= sender))
            amounts.append(rng.next_uint64())
    return accounts, senders, recipients, amounts


@st.composite
def census_paths(draw):
    """A short census path of any kind, or a patched one no kind makes."""
    epochs = draw(st.integers(min_value=0, max_value=12))
    kinds = ["fixed", "exponential", "logistic", "step_shock", "degrowth", "patched"]
    kind = draw(st.sampled_from(kinds))
    if kind == "patched":  # shrinks and grows again, re-admitting dormant holders
        census = st.integers(min_value=1, max_value=9)
        return draw(st.lists(census, min_size=epochs + 1, max_size=epochs + 1))
    n0 = draw(st.integers(min_value=1, max_value=6))  # N0 = 1 draws nothing until the census grows
    population = {
        "fixed": {"N": n0},
        "exponential": {"N0": n0, "n": draw(st.sampled_from([0.1, 0.5, 1.0]))},
        "logistic": {"N0": n0, "K": draw(st.integers(min_value=1, max_value=20)), "rate": 0.9},
        "step_shock": {"N0": n0, "factor": draw(st.sampled_from([0.3, 2.5])), "at_epoch": 3},
        "degrowth": {"N0": n0 + 3, "n": draw(st.sampled_from([-0.1, -0.4]))},
    }[kind]
    return census_path({"kind": kind, **population}, epochs)


class CountingSplitMix64(SplitMix64):
    """A generator that records the size of each ``draws`` call."""

    __slots__ = ("calls",)

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def draws(self, count):
        self.calls.append(count)
        return super().draws(count)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    path=census_paths(),
    count=st.sampled_from([1, 2, 5, 1365, 1366]),
    # the draw budget of a chunk, about 3 * count and at the default 4096
    budget=st.sampled_from([_CHUNK_DRAWS, ("3c", -1), ("3c", 0), ("3c", 1), 7]),
    seed=st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=2**64 - 10**4, max_value=2**64 - 1),  # wraps past 2**64 at once
    ),
)
# growth opens accounts inside one chunk of 1,365 epochs (3 draws each, 4,095 draws)
@example(path=[1, 2, 3, 5, 8, 8, 13], count=1, budget=_CHUNK_DRAWS, seed=2**64 - 1)
# degrowth, then growth past the old peak, in chunks of two epochs
@example(path=[6, 4, 2, 3, 7, 9], count=1, budget=7, seed=11)
# 3 * count of 4,095 against budgets of 4,094 and 4,096, and of 4,098 against
# the default: one epoch per chunk
@example(path=[3, 3, 4], count=1365, budget=("3c", -1), seed=5)
@example(path=[3, 3, 4], count=1365, budget=("3c", 1), seed=5)
@example(path=[2, 3], count=1366, budget=_CHUNK_DRAWS, seed=5)
def test_the_run_draws_each_epoch_as_the_scalar_draws_do(path, count, budget, seed):
    if isinstance(budget, tuple):  # 3 * count plus an offset
        budget = 3 * count + budget[1]
    epochs = len(path) - 1
    mixed, made = [], []
    real_mix = scenario._mix_transfers

    def recording_mix(state, draws, count, frac):
        mixed.append((len(state.balances), draws))
        return real_mix(state, draws, count, frac)

    def recording_rng(seed):
        made.append(CountingSplitMix64(seed))
        return made[-1]

    config = parse_config(
        {
            "policy": {"basic_income": 2922, "demurrage_alpha": 0.02},
            "epochs": epochs,
            "population": {"kind": "fixed", "N": path[0]},
            "seed": seed,
            "transfers": {"count_per_epoch": count, "max_fraction": 0.5},
        }
    )
    with (
        mock.patch.object(scenario, "census_path", lambda population, epochs: path),
        mock.patch.object(scenario, "_mix_transfers", recording_mix),
        mock.patch.object(scenario, "SplitMix64", recording_rng),
        mock.patch.object(scenario, "_CHUNK_DRAWS", budget),
    ):
        for _ in scenario.run_epochs(config):
            pass
    (rng,) = made
    scalar = SplitMix64(seed)
    peaks = list(accumulate(path, max))[1:]
    expected = [scalar_epoch_draws(scalar, accounts, count) for accounts in peaks]
    # each epoch draws over every account opened so far, max(N_0 .. N_t)
    assert [accounts for accounts, _ in mixed] == peaks
    assert [draws for _, draws in mixed] == expected
    assert rng._state == scalar._state
    # each chunk draws exactly its epochs' draws, within the budget unless it is one epoch
    chunk = max(1, budget // (3 * count))
    chunks = [peaks[i : i + chunk] for i in range(0, epochs, chunk)]
    assert rng.calls == [3 * count * sum(accounts >= 2 for accounts in c) for c in chunks]
    assert all(calls <= max(budget, 3 * count) for calls in rng.calls)


@pytest.mark.parametrize(
    "schedule",
    [
        lambda peaks: [accounts + 1 for accounts in peaks],
        lambda peaks: [accounts - 1 for accounts in peaks],
        # the census N_t instead of the accounts opened, max(N_0 .. N_t)
        lambda peaks: [6, 4, 2, 3, 7],
    ],
    ids=["one-more", "one-fewer", "census"],
)
def test_draws_reduced_for_other_than_the_ledger_accounts_trip_the_mix(schedule):
    real_draws = scenario._transfer_draws

    def mutated_draws(rng, accounts, count):
        return real_draws(rng, schedule(list(accounts)), count)

    config = parse_config(
        {
            "policy": {"basic_income": 2922, "demurrage_alpha": 0.02},
            "epochs": 5,
            "population": {"kind": "fixed", "N": 6},
            "seed": 3,
            "transfers": {"count_per_epoch": 4, "max_fraction": 0.5},
        }
    )
    with (
        mock.patch.object(scenario, "census_path", lambda population, epochs: [6, 6, 4, 2, 3, 7]),
        mock.patch.object(scenario, "_transfer_draws", mutated_draws),
        pytest.raises(InvariantViolation, match="transfer mix drew account indices for"),
    ):
        for _ in scenario.run_epochs(config):
            pass
