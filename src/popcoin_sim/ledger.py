"""Integer ledger with internal accounting units and epoch minting.

Account balances are integers denominated in "poplets", an internal atomic
unit. One poplet is worth ``exchange_rate`` currency units, and the whole
monetary policy — population redenomination, demurrage, and the per-capita
basic income — is applied by updating that single rational number and then
crediting every participant the same integer number of poplets:

    E'      = E * (1 - alpha) * N_new / N_old
    issued  = round_half_even(B / E')

Balances never shrink and are never rescaled, so value conservation and
audits reduce to integer bookkeeping; the only rounding in the whole system
is the half-even rounding of ``B / E'`` once per epoch, an error of at most
half a poplet per participant per epoch.

``exchange_rate`` is kept as an exact ``fractions.Fraction``. Floats are
unusable here: the rate shrinks geometrically and relative drift would
accumulate across epochs, while exactness makes determinism and the supply
cap checkable by integer comparison.

The rate's numerator and denominator grow by O(1) digits per epoch, so each
epoch does the least big-integer work it can: E' is one ``Fraction``
multiply by the small step factor ``(1 - alpha) * N_new / N_old``, and
``issued`` and the rounding residue come from integer ``divmod`` of the
unreduced ratio ``B.num * E'.den / (B.den * E'.num)``, rounded half to even.
``MintReport`` carries only the issuance and its rounding residue; the epoch,
census and rate are the returned state's.

Every member receives the same ``issued`` poplets, so a state's balances
(``Balances``, a read-only mapping) keep that basic income as one counter,
``credit``: the poplets every current member has received in common. The
balances are indexed by position. An account-id table, the ``ids`` tuple and
its ``index`` dict, gives each account its position; states share it and
never change it, and only a mint that opens accounts copies it. ``held``
lists each account's poplets less the common credit, a ``bytearray`` of
``flags`` marks the members, and ``count`` counts them, so a member's
balance is ``held[i] + credit`` and a dormant holder's ``held[i]``.

A mint adds ``issued`` to ``credit``. At a fixed census it shares ``held``
and ``flags`` with the state it came from, so it does O(1) work; on a census
change it copies the list and the bytearray once and writes only the
positions of the accounts that leave, whose balance is frozen into
``held``, and of those that join, new ones appended in the order given.
``transfer`` copies ``held`` and writes two positions. The member set,
``participants``, is built from the flags on first access and cached, and
the run never asks for it. The ledger keeps no other cache.

The module also ships a second, deliberately naive implementation
(``DirectLedgerState``) that rescales every real-valued balance each epoch.
It exists as an independent oracle for equivalence tests and is not meant
for production use.

``LedgerState`` keeps no genesis metadata: ``genesis``'s ``poplet_scale``
only sets the initial rate 1/poplet_scale.

Accounts may hold balances without being counted in the census: a
participant removed from the census keeps its account, keeps earning the
redenomination/demurrage drift through ``exchange_rate``, but receives no
further basic income.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii

from .errors import (
    CensusMismatchError,
    InsufficientBalanceError,
    InvalidGenesisError,
    UnknownAccountError,
)

Account = str


def _is_int(value) -> bool:
    """An int other than a bool: ``True`` is an int to Python but not to JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def exact(value) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats and Decimals are read through their decimal literal, so a config
    value written as ``0.02`` becomes exactly 1/50 rather than the nearest
    binary double, and a non-finite one raises ``ValueError`` as a string that
    is no decimal literal does. Every other value but a bool goes to
    ``Fraction`` as it is.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric here")
    if isinstance(value, (float, Decimal)):
        return Fraction(str(value))
    try:
        return Fraction(value)
    except TypeError:
        raise TypeError(f"cannot interpret {value!r} as an exact number") from None


@dataclass(frozen=True)
class PolicyParams:
    """The policy's two parameters, fixed for the lifetime of a ledger.

    basic_income: currency units minted per participant per epoch (B > 0).
    demurrage_alpha: fraction of supply withdrawn each epoch (0 <= alpha < 1).
        alpha = 0 is admitted as the no-demurrage limit; steady-state
        quantities such as the supply cap B*N/alpha require alpha > 0.
    """

    basic_income: Fraction
    demurrage_alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "basic_income", exact(self.basic_income))
        object.__setattr__(self, "demurrage_alpha", exact(self.demurrage_alpha))
        if self.basic_income <= 0:
            raise ValueError(f"basic_income must be positive, got {self.basic_income}")
        if not 0 <= self.demurrage_alpha < 1:
            raise ValueError(
                f"demurrage_alpha must lie in [0, 1), got {self.demurrage_alpha}"
            )


class Balances(Mapping):
    """A state's poplet balances, by position: ``held[i] + credit`` for a
    member, ``held[i]`` for a dormant holder (see the module docstring).

    ``ids`` and ``index`` map positions to accounts and back, ``flags[i]`` is
    1 for a member, ``count`` is the number of members and ``credit`` the
    poplets every current member has received in common, so a member who
    joined late holds about ``-credit`` in ``held``. Read-only, like the
    state, except for the member set, which is built on first read.
    """

    __slots__ = ("ids", "index", "held", "flags", "count", "credit", "_members")

    def __init__(self, ids, index, held, flags, count, credit):
        self.ids, self.index, self.held, self.flags = ids, index, held, flags
        self.count, self.credit = count, credit
        self._members = None

    @classmethod
    def from_entries(
        cls, entries: Mapping[Account, int], members: Iterable[Account], credit: int = 0
    ) -> Balances:
        """``entries[a]`` held at each account, in the mapping's order; the
        ``members`` are the census and hold ``credit`` more. Raises
        ``ValueError`` for an empty census or a member without an entry."""
        ids = tuple(entries)
        members = frozenset(members)
        if not members:
            raise ValueError("participants must not be empty")
        if not members <= entries.keys():
            raise ValueError("participants must all hold balance entries")
        balances = cls(
            ids,
            dict(zip(ids, range(len(ids)))),
            [entries[account] for account in ids],
            bytearray(account in members for account in ids),
            len(members),
            credit,
        )
        balances._members = members
        return balances

    def _moved(self, held: list[int], credit: int) -> Balances:
        """These accounts and members, holding ``held`` above ``credit``."""
        moved = Balances(self.ids, self.index, held, self.flags, self.count, credit)
        moved._members = self._members
        return moved

    @property
    def members(self) -> frozenset[Account]:
        if self._members is None:
            self._members = frozenset(compress(self.ids, self.flags))
        return self._members

    def is_member(self, account: Account) -> bool:
        position = self.index.get(account)
        return position is not None and self.flags[position] == 1

    def __getitem__(self, account: Account) -> int:
        position = self.index[account]
        poplets = self.held[position]
        return poplets + self.credit if self.flags[position] else poplets

    def __contains__(self, account) -> bool:
        return account in self.index

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Balances({dict(self)!r})"


@dataclass(frozen=True, init=False)
class LedgerState:
    """Immutable snapshot of the ledger; operations return fresh states.

    ``participants`` is the current census, the members of ``balances``,
    built on first access. It is always a subset of the balance keys; keys
    outside it are dormant holders. ``balances`` may be given as any mapping
    of account to poplets with the ``participants``, which the state copies;
    a ``Balances`` is kept as it is when ``participants`` is omitted or
    equals its members.
    """

    epoch: int
    exchange_rate: Fraction
    balances: Balances
    participants: frozenset[Account]

    def __init__(self, epoch: int, exchange_rate: Fraction, balances, participants=None):
        if not (
            isinstance(balances, Balances)
            and (participants is None or participants == balances.members)
        ):
            balances = Balances.from_entries(balances, participants)
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "exchange_rate", exchange_rate)
        object.__setattr__(self, "balances", balances)

    @property
    def participants(self) -> frozenset[Account]:
        return self.balances.members

    @property
    def census(self) -> int:
        return self.balances.count


@dataclass(frozen=True)
class MintReport:
    """Audit record for one minting epoch.

    ``rounding_residue_poplets`` is the exact residue ``census * issued -
    census * B/E'`` rounded half to even; its magnitude never exceeds
    ``(census + 1) // 2``, half a poplet per participant.
    """

    issued_per_participant: int
    rounding_residue_poplets: int


def _genesis_accounts(initial_accounts: Iterable[Account]) -> list[Account]:
    accounts = list(initial_accounts)
    if not accounts:
        raise InvalidGenesisError("at least one initial account is required")
    if len(set(accounts)) != len(accounts):
        raise InvalidGenesisError("duplicate account ids in genesis")
    return accounts


def genesis(
    params: PolicyParams,
    initial_accounts: Iterable[Account],
    poplet_scale: int = 1,
) -> LedgerState:
    """Create an epoch-0 ledger with the given participants and zero balances.

    ``poplet_scale`` fixes the initial rate at 1/poplet_scale currency units
    per poplet; larger scales make the atomic unit finer.
    """
    accounts = _genesis_accounts(initial_accounts)
    if not _is_int(poplet_scale) or poplet_scale < 1:
        raise InvalidGenesisError(
            f"poplet_scale must be a positive integer, got {poplet_scale!r}"
        )
    return LedgerState(
        epoch=0,
        exchange_rate=Fraction(1, poplet_scale),
        balances={a: 0 for a in accounts},
        participants=frozenset(accounts),
    )


def _check_census(census: int, is_member, new_census, new: list, removed: list) -> None:
    """Raise ``CensusMismatchError`` unless ``new_census`` is the ``census``
    members with ``new`` added and ``removed`` removed.

    ``is_member`` tells a current member; it is asked only about the deltas,
    so the check is O(len(new) + len(removed)), and a mint with no deltas
    compares the counts alone.
    """
    if new or removed:
        new_set, removed_set = set(new), set(removed)
        if len(new_set) != len(new) or len(removed_set) != len(removed):
            raise CensusMismatchError("duplicate ids in census deltas")
        if not new_set.isdisjoint(removed_set):
            raise CensusMismatchError("an id cannot be both added and removed")
        missing = sorted(account for account in removed_set if not is_member(account))
        if missing:
            raise CensusMismatchError(f"removed ids are not current participants: {missing}")
        dupes = sorted(account for account in new_set if is_member(account))
        if dupes:
            raise CensusMismatchError(f"added ids are already participants: {dupes}")
    if not _is_int(new_census) or new_census < 1:
        raise CensusMismatchError(f"census must be a positive integer, got {new_census!r}")
    expected = census + len(new) - len(removed)
    if new_census != expected:
        raise CensusMismatchError(
            f"declared census {new_census} does not match "
            f"{census} + {len(new)} added - {len(removed)} removed = {expected}"
        )


def _census_change(
    balances: Balances, new: list, removed: list, issued: int, credit: int
) -> Balances:
    """``balances`` after ``removed`` leave and ``new`` join at a mint that
    issues ``issued`` and raises the common credit to ``credit``."""
    ids, index = balances.ids, balances.index
    opened = [account for account in new if account not in index]
    if opened:
        ids += tuple(opened)
        index = dict(index)
        index.update(zip(opened, range(len(balances.ids), len(ids))))
    held = balances.held + [0] * len(opened)
    flags = balances.flags + bytes(len(opened))
    for account in removed:
        position = index[account]
        held[position] += balances.credit
        flags[position] = 0
    for account in new:
        position = index[account]
        held[position] += issued - credit
        flags[position] = 1
    count = balances.count + len(new) - len(removed)
    return Balances(ids, index, held, flags, count, credit)


def _round_half_even(num: int, den: int) -> tuple[int, int]:
    """``q = round_half_even(num / den)`` for ``den > 0``, and ``q*den - num``."""
    floor, remainder = divmod(num, den)
    if 2 * remainder > den or (2 * remainder == den and floor % 2):
        return floor + 1, den - remainder
    return floor, -remainder


def mint_epoch_poplet(
    state: LedgerState,
    params: PolicyParams,
    new_census: int,
    new_accounts: Iterable[Account] = (),
    removed_accounts: Iterable[Account] = (),
) -> tuple[LedgerState, MintReport]:
    """Advance one epoch: update the exchange rate, credit every participant.

    The per-participant issuance uses the post-update rate E', so
    redenomination and demurrage are priced into the same epoch's basic
    income. Newly added accounts receive this epoch's issuance; removed ones
    keep their poplets but receive nothing further.

    Each member is credited by adding ``issued`` to the common ``credit``.
    A removed account's balance is frozen into ``held``, and a joining one
    (new, appended in the order given, or a dormant holder) holds its
    balance plus ``issued`` less the new ``credit``; no other position is
    written.
    """
    new, removed = list(new_accounts), list(removed_accounts)
    balances = state.balances
    _check_census(balances.count, balances.is_member, new_census, new, removed)
    # (1 - alpha) * N_new / N_old as one Fraction, with alpha = p/q
    p, q = params.demurrage_alpha.numerator, params.demurrage_alpha.denominator
    step = Fraction((q - p) * new_census, q * balances.count)
    rate = state.exchange_rate * step
    # B / E' as one unreduced integer ratio; ``excess`` is den * (issued - B/E').
    income = params.basic_income
    den = income.denominator * rate.numerator
    issued, excess = _round_half_even(income.numerator * rate.denominator, den)
    credit = balances.credit + issued
    if new or removed:
        balances = _census_change(balances, new, removed, issued, credit)
    else:
        balances = balances._moved(balances.held, credit)
    report = MintReport(issued, _round_half_even(new_census * excess, den)[0])
    return LedgerState(state.epoch + 1, rate, balances), report


def transfer(state: LedgerState, sender: Account, recipient: Account, amount: int) -> LedgerState:
    """Move an integer number of poplets between two known accounts.

    Rejected transfers raise and leave the input state untouched (states are
    immutable, so "unchanged" is structural). Dormant holders may send and
    receive like anyone else.
    """
    if not _is_int(amount) or amount < 0:
        raise ValueError(f"amount must be a non-negative integer, got {amount!r}")
    balances = state.balances
    for account in (sender, recipient):
        if account not in balances.index:
            raise UnknownAccountError(f"unknown account: {account!r}")
    if balances[sender] < amount:
        raise InsufficientBalanceError(
            f"{sender!r} holds {balances[sender]} poplets, cannot send {amount}"
        )
    held = balances.held.copy()
    held[balances.index[sender]] -= amount
    held[balances.index[recipient]] += amount
    return LedgerState(state.epoch, state.exchange_rate, balances._moved(held, balances.credit))


def balance_popcoin_exact(state: LedgerState, account: Account) -> Fraction:
    if account not in state.balances:
        raise UnknownAccountError(f"unknown account: {account!r}")
    return state.balances[account] * state.exchange_rate


def balance_popcoin(state: LedgerState, account: Account) -> float:
    """Currency-unit value of one account at the current exchange rate."""
    return float(balance_popcoin_exact(state, account))


def total_supply_popcoin_exact(state: LedgerState) -> Fraction:
    balances = state.balances
    poplets = sum(balances.held) + balances.count * balances.credit
    return poplets * state.exchange_rate


def total_supply_popcoin(state: LedgerState) -> float:
    """Currency-unit value of all balances, dormant holders included."""
    return float(total_supply_popcoin_exact(state))


# --- snapshot serialization ------------------------------------------------
#
# Snapshots are canonical JSON: sorted keys, no insignificant whitespace,
# ASCII escapes. Two states are equal iff their snapshots are byte-identical,
# which is what scenario determinism tests compare. The "participants" key
# is included only when some holder is outside the census; otherwise every
# balance key is a participant and the census alone carries the information.
#
# The rate's numerator and denominator pass the interpreter's 4300-digit
# int-to-str limit after about 2,500 epochs at alpha = 0.02, so they are
# written through ``decimal``, which has no such limit and writes the same
# digits, and every int is read back through it. Balances pass it too (after
# about 2,150 epochs at alpha = 0.99), so they are written the same way.
# Each account id goes through ``encode_basestring_ascii``, the encoder that
# ``json.dumps`` calls for a string, without its per-call set-up.


def state_to_json(state: LedgerState) -> str:
    rate, balances = state.exchange_rate, state.balances
    ids, flags, credit = balances.ids, balances.flags, balances.credit
    fields = {  # in sorted key order
        "balances": "{" + ",".join(
            f"{encode_basestring_ascii(key)}:{Decimal(poplets + credit if member else poplets)}"
            for key, poplets, member in sorted(zip(ids, balances.held, flags))
        ) + "}",
        "census": str(state.census),
        "epoch": str(state.epoch),
        "exchange_rate": f'{{"den":{Decimal(rate.denominator)},"num":{Decimal(rate.numerator)}}}',
    }
    if balances.count != len(ids):
        members = sorted(compress(ids, flags))
        fields["participants"] = json.dumps(members, separators=(",", ":"))
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields.items()) + "}"


def state_from_json(text: str) -> LedgerState:
    """Read a snapshot back; any text that is not one raises ``ValueError``."""
    try:
        doc = json.loads(text, parse_int=lambda digits: int(Decimal(digits)))
    except RecursionError:
        raise ValueError("malformed ledger snapshot: nested too deeply") from None
    try:
        epoch = doc["epoch"]
        census = doc["census"]
        num = doc["exchange_rate"]["num"]
        den = doc["exchange_rate"]["den"]
        balances = doc["balances"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed ledger snapshot: missing {err}") from None
    if not _is_int(epoch) or epoch < 0:
        raise ValueError(f"epoch must be a non-negative integer, got {epoch!r}")
    if not _is_int(num) or not _is_int(den) or num < 1 or den < 1:
        raise ValueError("exchange_rate num/den must be positive integers")
    if not isinstance(balances, dict) or not balances:
        raise ValueError("balances must be a non-empty object")
    for account, poplets in balances.items():
        if not _is_int(poplets) or poplets < 0:
            raise ValueError(f"balance of {account!r} must be a non-negative integer")
    participants = doc.get("participants")
    if participants is None:
        member_set = frozenset(balances)
    else:
        if not isinstance(participants, list) or not participants or not all(
            isinstance(a, str) for a in participants
        ):
            raise ValueError("participants must be a non-empty list of account ids")
        member_set = frozenset(participants)
        if len(member_set) != len(participants):
            raise ValueError("duplicate ids in participants")
    state = LedgerState(epoch, Fraction(num, den), balances, member_set)
    if not _is_int(census) or census != state.census:
        raise ValueError(f"census {census!r} does not match {state.census} participants")
    return state


# --- direct-rebasing oracle -------------------------------------------------


@dataclass(frozen=True)
class DirectLedgerState:
    """Real-balance ledger that rescales every account each epoch.

    Semantically equivalent to the poplet ledger up to issuance rounding;
    kept exact (Fraction balances) so equivalence tests compare against the
    true rebasing arithmetic rather than float drift.
    """

    epoch: int
    balances: Mapping[Account, Fraction]
    participants: frozenset[Account]

    @property
    def census(self) -> int:
        return len(self.participants)


def direct_genesis(initial_accounts: Iterable[Account]) -> DirectLedgerState:
    accounts = _genesis_accounts(initial_accounts)
    return DirectLedgerState(
        epoch=0,
        balances={a: Fraction(0) for a in accounts},
        participants=frozenset(accounts),
    )


def mint_epoch_direct(
    state: DirectLedgerState,
    params: PolicyParams,
    new_census: int,
    new_accounts: Iterable[Account] = (),
    removed_accounts: Iterable[Account] = (),
) -> DirectLedgerState:
    """One epoch of per-account rebasing: scale everyone, credit participants."""
    new, removed = list(new_accounts), list(removed_accounts)
    participants = state.participants
    _check_census(len(participants), participants.__contains__, new_census, new, removed)
    if new or removed:
        participants = (participants | set(new)) - set(removed)
    scale = (1 - params.demurrage_alpha) * Fraction(new_census, state.census)
    balances = {a: b * scale for a, b in state.balances.items()}
    for account in participants:
        balances[account] = balances.get(account, Fraction(0)) + params.basic_income
    return DirectLedgerState(
        epoch=state.epoch + 1,
        balances=balances,
        participants=participants,
    )


def direct_transfer(
    state: DirectLedgerState, sender: Account, recipient: Account, amount: Fraction
) -> DirectLedgerState:
    amount = exact(amount)
    if amount < 0:
        raise ValueError(f"amount must be non-negative, got {amount}")
    for account in (sender, recipient):
        if account not in state.balances:
            raise UnknownAccountError(f"unknown account: {account!r}")
    if state.balances[sender] < amount:
        raise InsufficientBalanceError(
            f"{sender!r} holds {state.balances[sender]}, cannot send {amount}"
        )
    balances = dict(state.balances)
    balances[sender] -= amount
    balances[recipient] += amount
    return DirectLedgerState(
        epoch=state.epoch, balances=balances, participants=state.participants
    )


def direct_total_supply(state: DirectLedgerState) -> Fraction:
    return sum(state.balances.values(), Fraction(0))
