"""The vectorised transfer mix against its scalar definitions.

``SplitMix64.draws`` must reproduce ``next_uint64`` draw for draw, also
when it serves draws computed ahead, and
``scenario._mix_transfers`` must equal a fold of the pure ``ledger.transfer``
driven by scalar ``below`` draws, as the determinism contract in the
scenario module describes it, and return every position it wrote.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from popcoin_sim import InvariantViolation, LedgerState, SplitMix64, transfer
from popcoin_sim.ledger import Balances
from popcoin_sim.rng import LOOKAHEAD
from popcoin_sim.scenario import _mix_transfers

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
    st.sampled_from([0, 1, 2, 3, 9, LOOKAHEAD - 1, LOOKAHEAD, LOOKAHEAD + 1]),
    st.integers(min_value=0, max_value=2 * LOOKAHEAD + 3),
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
# a scalar draw between two blocks of one size moves the state off the lookahead
@example(seed=5, calls=[("draws", 3), ("next_uint64", 0), ("draws", 3)])
@example(seed=5, calls=[("draws", 9), ("below", 7), ("draws", 9), ("draws", 0), ("draws", 9)])
# a request that outruns the lookahead, and one past it
@example(seed=2**64 - 1, calls=[("draws", 1), ("draws", LOOKAHEAD), ("draws", LOOKAHEAD + 1)])
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
    mixed, written = _mix_transfers(state, rng, count, frac)
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
    mixed, written = _mix_transfers(state, rng, 10, Fraction(1, 2))
    assert mixed is state and not written
    assert rng._state == SplitMix64(9)._state


def test_mix_rejects_an_overdrawing_amount():
    # a fraction above one can only reach the kernel by bypassing validation
    balances = {"a": 10**6, "b": 10**6}
    state = LedgerState(1, Fraction(1), balances, frozenset(balances))
    with pytest.raises(InvariantViolation, match=r"poplets from '[ab]', which holds"):
        _mix_transfers(state, SplitMix64(1), 50, Fraction(3))
