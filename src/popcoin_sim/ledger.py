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
import numbers
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping

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

    Floats are reinterpreted through their shortest decimal literal, so a
    config value written as ``0.02`` becomes exactly 1/50 rather than the
    nearest binary double. Strings are parsed as decimal literals directly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact number")


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


@dataclass(frozen=True)
class LedgerState:
    """Immutable snapshot of the ledger; operations return fresh states.

    ``participants`` is the current census. It is always a subset of the
    balance keys; keys outside it are dormant holders.
    """

    epoch: int
    exchange_rate: Fraction
    balances: Mapping[Account, int]
    participants: frozenset[Account]

    @property
    def census(self) -> int:
        return len(self.participants)


@dataclass(frozen=True)
class MintReport:
    """Audit record for one minting epoch.

    ``rounding_residue_poplets`` is the exact residue ``census * issued -
    census * B/E'`` rounded half to even; its magnitude never exceeds
    ``(census + 1) // 2``, half a poplet per participant.
    """

    issued_per_participant: int
    rounding_residue_poplets: int


def genesis(
    params: PolicyParams,
    initial_accounts: Iterable[Account],
    poplet_scale: int = 1,
) -> LedgerState:
    """Create an epoch-0 ledger with the given participants and zero balances.

    ``poplet_scale`` fixes the initial rate at 1/poplet_scale currency units
    per poplet; larger scales make the atomic unit finer.
    """
    accounts = list(initial_accounts)
    if not accounts:
        raise InvalidGenesisError("at least one initial account is required")
    if len(set(accounts)) != len(accounts):
        raise InvalidGenesisError("duplicate account ids in genesis")
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


def _apply_census_deltas(
    participants: frozenset[Account],
    new_census: int,
    new_accounts: Iterable[Account],
    removed_accounts: Iterable[Account],
) -> frozenset[Account]:
    new = list(new_accounts)
    removed = list(removed_accounts)
    new_set, removed_set = set(new), set(removed)
    if len(new_set) != len(new) or len(removed_set) != len(removed):
        raise CensusMismatchError("duplicate ids in census deltas")
    if new_set & removed_set:
        raise CensusMismatchError("an id cannot be both added and removed")
    if not removed_set <= participants:
        missing = sorted(removed_set - participants)
        raise CensusMismatchError(f"removed ids are not current participants: {missing}")
    if new_set & participants:
        dupes = sorted(new_set & participants)
        raise CensusMismatchError(f"added ids are already participants: {dupes}")
    if not _is_int(new_census) or new_census < 1:
        raise CensusMismatchError(f"census must be a positive integer, got {new_census!r}")
    expected = len(participants) + len(new_set) - len(removed_set)
    if new_census != expected:
        raise CensusMismatchError(
            f"declared census {new_census} does not match "
            f"{len(participants)} + {len(new_set)} added - {len(removed_set)} removed = {expected}"
        )
    # An empty delta keeps the same frozenset, as every fixed-census epoch does.
    if new_set:
        participants = participants | new_set
    if removed_set:
        participants = participants - removed_set
    return participants


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
    """
    participants = _apply_census_deltas(
        state.participants, new_census, new_accounts, removed_accounts
    )
    # (1 - alpha) * N_new / N_old as one Fraction, with alpha = p/q
    p, q = params.demurrage_alpha.numerator, params.demurrage_alpha.denominator
    step = Fraction((q - p) * new_census, q * state.census)
    rate = state.exchange_rate * step
    # B / E' as one unreduced integer ratio; ``excess`` is den * (issued - B/E').
    income = params.basic_income
    den = income.denominator * rate.numerator
    issued, excess = _round_half_even(income.numerator * rate.denominator, den)
    balances = dict(state.balances)
    for account in participants:
        balances[account] = balances.get(account, 0) + issued
    report = MintReport(issued, _round_half_even(new_census * excess, den)[0])
    next_state = LedgerState(
        epoch=state.epoch + 1,
        exchange_rate=rate,
        balances=balances,
        participants=participants,
    )
    return next_state, report


def transfer(state: LedgerState, sender: Account, recipient: Account, amount: int) -> LedgerState:
    """Move an integer number of poplets between two known accounts.

    Rejected transfers raise and leave the input state untouched (states are
    immutable, so "unchanged" is structural). Dormant holders may send and
    receive like anyone else.
    """
    if not _is_int(amount) or amount < 0:
        raise ValueError(f"amount must be a non-negative integer, got {amount!r}")
    for account in (sender, recipient):
        if account not in state.balances:
            raise UnknownAccountError(f"unknown account: {account!r}")
    if state.balances[sender] < amount:
        raise InsufficientBalanceError(
            f"{sender!r} holds {state.balances[sender]} poplets, cannot send {amount}"
        )
    balances = dict(state.balances)
    balances[sender] -= amount
    balances[recipient] += amount
    return LedgerState(state.epoch, state.exchange_rate, balances, state.participants)


def balance_popcoin_exact(state: LedgerState, account: Account) -> Fraction:
    if account not in state.balances:
        raise UnknownAccountError(f"unknown account: {account!r}")
    return state.balances[account] * state.exchange_rate


def balance_popcoin(state: LedgerState, account: Account) -> float:
    """Currency-unit value of one account at the current exchange rate."""
    return float(balance_popcoin_exact(state, account))


def total_supply_popcoin_exact(state: LedgerState) -> Fraction:
    return sum(state.balances.values()) * state.exchange_rate


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
    rate = state.exchange_rate
    balances = ",".join(
        f"{encode_basestring_ascii(key)}:{Decimal(value)}"
        for key, value in sorted(state.balances.items())
    )
    members = {  # in sorted key order
        "balances": "{" + balances + "}",
        "census": str(state.census),
        "epoch": str(state.epoch),
        "exchange_rate": f'{{"den":{Decimal(rate.denominator)},"num":{Decimal(rate.numerator)}}}',
    }
    if len(state.participants) != len(state.balances):
        members["participants"] = json.dumps(sorted(state.participants), separators=(",", ":"))
    return "{" + ",".join(f'"{key}":{text}' for key, text in members.items()) + "}"


def state_from_json(text: str) -> LedgerState:
    doc = json.loads(text, parse_int=lambda digits: int(Decimal(digits)))
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
        if not isinstance(participants, list) or not all(isinstance(a, str) for a in participants):
            raise ValueError("participants must be a list of account ids")
        member_set = frozenset(participants)
        if len(member_set) != len(participants):
            raise ValueError("duplicate ids in participants")
        if not member_set <= set(balances):
            raise ValueError("participants must all hold balance entries")
    if not _is_int(census) or census != len(member_set):
        raise ValueError(f"census {census!r} does not match {len(member_set)} participants")
    return LedgerState(
        epoch=epoch,
        exchange_rate=Fraction(num, den),
        balances=dict(balances),
        participants=member_set,
    )


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
    accounts = list(initial_accounts)
    if not accounts:
        raise InvalidGenesisError("at least one initial account is required")
    if len(set(accounts)) != len(accounts):
        raise InvalidGenesisError("duplicate account ids in genesis")
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
    participants = _apply_census_deltas(
        state.participants, new_census, new_accounts, removed_accounts
    )
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
