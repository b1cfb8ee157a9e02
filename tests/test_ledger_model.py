"""A stateful model of the public ledger API.

Hypothesis drives a ``LedgerState`` and a ``DirectLedgerState`` side by side
through mints that open, retire and re-admit members, valid and over-balance
transfers, the scenario's transfer mix and its one read of the balances, and
snapshot round trips, and checks after every step what the module docstring
of ``ledger`` promises: the poplets held are exactly the poplets issued, the
issuance residue is at most half a poplet per participant, the census is a
non-empty subset of the holders, each account stays within half a poplet per
credited epoch of the rebasing oracle, a rejected call changes nothing, and
every state kept from earlier still reads the balances and members it had.
The model also carries the run's int64 image of ``held`` as a run does: it
collects the positions each mint, transfer and mix writes, passes them to
the next read with the image the last read returned, and checks that the
image each read returns is absent or equal to that read's ``held``.
Each mint the run makes in place, on a copy of the state with lists of its
own, must equal the pure mint, and where its deltas are rejected leave the
copy's lists as they were.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from popcoin_sim import (
    CensusMismatchError,
    DirectLedgerState,
    InsufficientBalanceError,
    LedgerState,
    PolicyParams,
    SplitMix64,
    direct_genesis,
    direct_transfer,
    genesis,
    mint_epoch_direct,
    mint_epoch_poplet,
    state_from_json,
    state_to_json,
    transfer,
)
from popcoin_sim.ledger import Balances
from popcoin_sim.scenario import _mix_transfers, _read_balances, _transfer_draws


class LedgerModel(RuleBasedStateMachine):
    @initialize(
        income=st.sampled_from([1, 2922, 0.5]),
        alpha=st.sampled_from([0, 0.02, 0.5, 0.9]),
        scale=st.sampled_from([1, 10**6]),
        census=st.integers(min_value=1, max_value=12),
    )
    def start(self, income, alpha, scale, census):
        self.params = PolicyParams(income, alpha)
        accounts = [f"a{i}" for i in range(census)]
        self.state = genesis(self.params, accounts, scale)
        self.mirror = direct_genesis(accounts)
        self.opened = census
        self.issued = 0  # sum over epochs of N_u * issued_u
        self.residue = 0  # the last mint's rounding residue
        self.credited = dict.fromkeys(accounts, 0)  # epochs that paid each account
        self.kept = []  # earlier states, each with the balances and members it had
        self.image = None  # the image the last read returned
        self.image_of = None  # the ``held`` that read saw
        self.written = []  # the positions written since that read
        self._keep()

    def _keep(self):
        self.kept.append((self.state, dict(self.state.balances), self.state.participants))

    def _unchanged_after(self, error, call):
        """Call ``call``, which must raise ``error``, and check it changed nothing."""
        before = state_to_json(self.state), dict(self.mirror.balances)
        with pytest.raises(error):
            call()
        assert (state_to_json(self.state), dict(self.mirror.balances)) == before

    def _mint(self, added, removed):
        """Mint with the census deltas ``added`` and ``removed``; return the report."""
        census = self.state.census + len(added) - len(removed)
        self.state, report = mint_epoch_poplet(self.state, self.params, census, added, removed)
        self.mirror = mint_epoch_direct(self.mirror, self.params, census, added, removed)
        self.issued += census * report.issued_per_participant
        self.written += [self.state.balances.index[account] for account in [*added, *removed]]
        self.residue = report.rounding_residue_poplets
        for account in self.state.participants:
            self.credited[account] = self.credited.get(account, 0) + 1
        self._keep()
        return report

    @rule(grow=st.integers(min_value=0, max_value=3), data=st.data())
    def mint(self, grow, data):
        members = sorted(self.state.participants)
        retire = st.lists(st.sampled_from(members), unique=True, max_size=len(members) - 1)
        removed = data.draw(retire)
        added = [f"a{self.opened + k}" for k in range(grow)]
        self.opened += grow
        self._mint(added, removed)

    @precondition(lambda self: self.state.census < len(self.state.balances))
    @rule(data=st.data())
    def rejoin(self, data):
        # dormant holders re-enter the census with the poplets they kept
        dormant = sorted(self.state.balances.keys() - self.state.participants)
        self._mint(data.draw(st.lists(st.sampled_from(dormant), unique=True, min_size=1)), [])

    def _owned_copy(self) -> LedgerState:
        """The state with lists, flags and table of its own, as a run holds it."""
        balances = self.state.balances
        owned = Balances(dict(balances.index), list(balances.held), bytearray(balances.flags),
                         balances.count, balances.credit)
        return LedgerState(self.state.epoch, self.state.rate, owned)

    @rule(grow=st.integers(min_value=0, max_value=3), data=st.data())
    def mint_in_place(self, grow, data):
        # the run's mint, which writes a census change into the lists of the
        # state it is given, equals the pure mint, which copies them
        members = sorted(self.state.participants)
        dormant = sorted(self.state.balances.keys() - self.state.participants)
        retire = st.lists(st.sampled_from(members), unique=True, max_size=len(members) - 1)
        removed = data.draw(retire)
        rejoin = data.draw(st.lists(st.sampled_from(dormant), unique=True)) if dormant else []
        added = rejoin + [f"a{self.opened + k}" for k in range(grow)]
        self.opened += grow
        owned = self._owned_copy()
        balances = owned.balances
        census = owned.census + len(added) - len(removed)
        after, report = mint_epoch_poplet(
            owned, self.params, census, added, removed, in_place=True
        )
        assert report == self._mint(added, removed)
        assert after == self.state and state_to_json(after) == state_to_json(self.state)
        mine, pure = after.balances, self.state.balances
        assert list(mine.index.items()) == list(pure.index.items())
        assert (mine.held, mine.flags, mine.count, mine.credit) == (
            pure.held, pure.flags, pure.count, pure.credit
        )
        # written in place: the lists and the table are the ones it was given
        assert mine.held is balances.held and mine.flags is balances.flags
        assert mine.index is balances.index

    @rule(
        fault=st.sampled_from(["census", "member added", "unknown removed", "both", "twice"]),
        data=st.data(),
    )
    def mint_in_place_a_rejected_change(self, fault, data):
        # every check passes before the first write, so a rejected change
        # leaves the lists it would have written as they were
        owned = self._owned_copy()
        balances = owned.balances
        before = dict(balances.index), list(balances.held), bytes(balances.flags)
        new = f"a{self.opened}"
        added, removed = [new], []
        if fault == "member added":
            added.append(data.draw(st.sampled_from(sorted(self.state.participants))))
        elif fault == "unknown removed":
            dormant = sorted(self.state.balances.keys() - self.state.participants)
            removed.append(data.draw(st.sampled_from(["ghost", *dormant])))
        elif fault == "both":
            removed.append(new)
        elif fault == "twice":
            added.append(new)
        census = owned.census + len(added) - len(removed) + (fault == "census")
        with pytest.raises(CensusMismatchError):
            mint_epoch_poplet(owned, self.params, census, added, removed, in_place=True)
        assert (dict(balances.index), balances.held, bytes(balances.flags)) == before
        assert list(balances.index) == list(before[0])

    @rule(data=st.data())
    def mint_with_a_wrong_census(self, data):
        census = self.state.census + data.draw(st.sampled_from([-1, 1, 2]))
        self._unchanged_after(
            CensusMismatchError, lambda: mint_epoch_poplet(self.state, self.params, census)
        )

    def _pair(self, data):
        accounts = sorted(self.state.balances)
        return data.draw(st.sampled_from(accounts)), data.draw(st.sampled_from(accounts))

    @rule(data=st.data())
    def transfer_within_balance(self, data):
        sender, recipient = self._pair(data)
        rate = self.state.exchange_rate
        # rounding can leave either ledger a little richer; both must hold the amount
        # (after a mix the mirror may hold less than nothing: then it sends nothing)
        most = min(self.state.balances[sender], int(self.mirror.balances[sender] / rate))
        amount = data.draw(st.integers(min_value=0, max_value=max(most, 0)))
        self.state = transfer(self.state, sender, recipient, amount)
        balances = self.state.balances
        self.written += [balances.index[sender], balances.index[recipient]]
        if amount:
            self.mirror = direct_transfer(self.mirror, sender, recipient, amount * rate)
        self._keep()

    @rule(data=st.data(), excess=st.integers(min_value=1, max_value=10**6))
    def transfer_past_balance(self, data, excess):
        sender, recipient = self._pair(data)
        amount = self.state.balances[sender] + excess
        self._unchanged_after(
            InsufficientBalanceError, lambda: transfer(self.state, sender, recipient, amount)
        )

    @rule(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        patch=st.booleans(),
        frac=st.sampled_from([Fraction(1, 4), Fraction(1)]),
    )
    def mix(self, seed, patch, frac):
        # the run's transfer mix after its read, as in a run: the next read
        # patches the image at the positions one transfer among nine or more
        # accounts returns, and builds it anew after as many transfers as accounts
        self.read()
        accounts = len(self.state.balances)
        count = 1 if patch else accounts
        before = dict(self.state.balances)
        draws = next(_transfer_draws(SplitMix64(seed), [accounts], count))
        # the mix writes the ``held`` it is handed in place, as a run hands it the
        # list of a state it alone holds; a copy keeps every kept state as it was
        balances = self.state.balances
        copied = balances._moved(balances.held.copy(), balances.credit)
        owned = LedgerState(self.state.epoch, self.state.rate, copied)
        self.written += _mix_transfers(owned, draws, count, frac)
        self.state = owned
        rate = self.state.exchange_rate
        moved = {a: (self.state.balances[a] - before[a]) * rate for a in before}
        mirror = {a: b + moved[a] for a, b in self.mirror.balances.items()}
        self.mirror = DirectLedgerState(self.mirror.epoch, mirror, self.mirror.participants)
        self._keep()

    @rule()
    def read(self):
        # the run's one read of the balances, which keeps an image below
        # poplets + N * credit = 2**63 and none past it
        balances = self.state.balances
        total, _, self.image = _read_balances(
            balances, self.state.census, self.issued, self.image, self.written
        )
        self.image_of, self.written = balances.held, []
        assert total == self.issued
        bound = self.issued + self.state.census * balances.credit
        assert (self.image is not None) == (bound < 2**63)

    @rule()
    def snapshot_round_trip(self):
        text = state_to_json(self.state)
        again = state_from_json(text)
        assert again == self.state
        assert state_to_json(again) == text
        self.state = again
        # the snapshot's accounts are in sorted order, not the state's
        self.image, self.written = None, []
        self._keep()

    @rule()
    def snapshot_of_an_empty_census(self):
        # the census never empties, so a snapshot that says it did is rejected
        doc = json.loads(state_to_json(self.state))
        doc.update(census=0, participants=[])
        self._unchanged_after(ValueError, lambda: state_from_json(json.dumps(doc)))

    @invariant()
    def poplets_held_are_poplets_issued(self):
        assert sum(self.state.balances.values()) == self.issued

    @invariant()
    def residue_is_at_most_half_a_poplet_each(self):
        assert abs(self.residue) <= (self.state.census + 1) // 2

    @invariant()
    def census_is_a_non_empty_subset_of_the_holders(self):
        participants = self.state.participants
        assert self.state.census == len(participants) >= 1
        assert participants <= self.state.balances.keys()
        assert participants == self.mirror.participants
        assert self.state.balances.keys() == self.mirror.balances.keys()

    @invariant()
    def the_run_image_is_none_or_held(self):
        image = self.image
        assert image is None or (image.dtype == np.int64 and image.tolist() == self.image_of)

    @invariant()
    def kept_states_read_what_they_held(self):
        # no later mint, transfer, mix or read changed an earlier state
        for state, balances, participants in self.kept:
            assert dict(state.balances) == balances
            index, flags = state.balances.index, state.balances.flags
            assert state.participants == participants == {
                account for account in balances if flags[index[account]] == 1
            }
            assert state.census == len(participants)
            # accounts opened later are not the earlier state's
            assert {a for a in self.state.balances if a in state.balances} == balances.keys()

    @invariant()
    def values_track_the_rebasing_oracle(self):
        rate = self.state.exchange_rate
        for account, poplets in self.state.balances.items():
            gap = abs(poplets * rate - self.mirror.balances[account])
            assert gap <= Fraction(self.credited[account], 2) * rate


LedgerModel.TestCase.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=20, deadline=None
)
TestLedgerModel = LedgerModel.TestCase
