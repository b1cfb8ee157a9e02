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

``exchange_rate`` is an exact ``fractions.Fraction``. Floats are unusable
here: the rate shrinks geometrically and relative drift would accumulate
across epochs, while exactness makes determinism and the supply cap
checkable by integer comparison.

The exact rate gains O(1) digits per epoch (about 11 bits at alpha = 0.02),
so a state carries it as a ``Rate``: the closed form
``E = E_b * ((q - p)/q)**k * N_t / N_b`` from a base rate ``E_b`` and census
``N_b``, with ``alpha = p/q`` and k mints since the base (a mint with another
alpha re-bases it on the exact value), plus a dyadic bracket of ``1/E``,
the poplets per currency unit, whose mantissa follows the bits of
``issued`` with ``GUARD_BITS`` to spare, not the rate's digits. A mint
multiplies the bracket by the small factor ``q * N_old / ((q - p) * N_new)``,
rounding its low end down and its high end up.

One rule decides every value read off the bracket: ``issued`` and the
residue from ``B`` times it, ``float(E)`` and ``float(n * E)`` from its
ends. Rounding is monotone, so round both ends, by ``_round_half_even`` or
integer true division: where they round alike, every value between them
does. Only where they differ is the exact ratio built, unreduced from the
closed form, and rounded the same way; the rate counts those. When the
bracket grows too wide for the bits a decision needs, it is rebuilt from
the closed form at twice that width, so it is rebuilt O(log t) times in t
epochs. The reduced ``Fraction`` is built from the closed form on the first
read of ``exchange_rate`` and kept.
``MintReport`` carries only the issuance and its rounding residue; the epoch,
census and rate are the returned state's.

Every member receives the same ``issued`` poplets, so a state's balances
(``Balances``, a read-only mapping) keep that basic income as one counter,
``credit``: the poplets every current member has received in common. The
balances are indexed by position. One account table, the ``index`` dict,
maps each account to its position and lists the accounts in that order;
states share it and never change it, and only a mint that opens accounts
copies it. ``held``
lists each account's poplets less the common credit, a ``bytearray`` of
``flags`` marks the members, and ``count`` counts them, so a member's
balance is ``held[i] + credit`` and a dormant holder's ``held[i]``.

A mint adds ``issued`` to ``credit``. At a fixed census it shares ``held``
and ``flags`` with the state it came from, so it does O(1) work; on a census
change it copies the list and the bytearray once and writes only the
positions of the accounts that leave, whose balance is frozen into
``held``, and of those that join, new ones appended in the order given.
``transfer`` copies ``held`` and writes two positions. The member set,
``participants``, is read from the flags on each access; the ledger keeps
no cache.

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
import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
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

    ``index`` maps each account to its position, in position order,
    ``flags[i]`` is 1 for a member, ``count`` is the number of members and
    ``credit`` the poplets every current member has received in common, so a
    member who joined late holds about ``-credit`` in ``held``. Read-only,
    like the state.
    """

    __slots__ = ("index", "held", "flags", "count", "credit")

    def __init__(self, index, held, flags, count, credit):
        self.index, self.held, self.flags = index, held, flags
        self.count, self.credit = count, credit

    @classmethod
    def from_entries(
        cls,
        entries: Mapping[Account, int],
        members: Iterable[Account] | None = None,
        credit: int = 0,
    ) -> Balances:
        """``entries[a]`` held at each account, in the mapping's order; the
        ``members``, every account when None, are the census and hold
        ``credit`` more. Raises ``ValueError`` for an empty census or a
        member without an entry."""
        index = dict(zip(entries, range(len(entries))))
        if members is None:
            flags = bytearray(b"\1") * len(index)
        else:
            flags = bytearray(len(index))
            for account in members:
                if account not in index:
                    raise ValueError("participants must all hold balance entries")
                flags[index[account]] = 1
        count = flags.count(1)
        if not count:
            raise ValueError("participants must not be empty")
        return cls(index, list(entries.values()), flags, count, credit)

    def _moved(self, held: list[int], credit: int) -> Balances:
        """These accounts and members, holding ``held`` above ``credit``."""
        return Balances(self.index, held, self.flags, self.count, credit)

    @property
    def members(self) -> frozenset[Account]:
        return frozenset(compress(self.index, self.flags))

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
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return f"Balances({dict(self)!r})"


# --- the exchange rate ------------------------------------------------------
#
# See the module docstring. Every decision rounds the bracket's two ends and
# takes the exact closed form only where they round apart.

GUARD_BITS = 64
_START_BITS = 2 * GUARD_BITS


def _bracket(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """``(lo, hi, shift)`` with ``lo * 2**-shift <= num/den <= hi * 2**-shift``,
    ``hi - lo <= 1`` and ``lo`` of ``bits - 1`` or ``bits`` bits."""
    shift = bits - num.bit_length() + den.bit_length() - 1
    lo, rest = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    return lo, lo + (rest > 0), shift


class Rate:
    """The exchange rate ``E``, immutable: its exact closed form and a bracket.

    ``E = base * (keep/whole)**steps * census/base_census``, where ``base``
    is the rate at the last re-base, ``keep/whole`` the step factor
    ``1 - alpha`` with ``whole`` alpha's denominator, ``steps`` the mints
    since the base, and ``base_census`` and ``census`` the census then and
    now. The bracket holds the poplets per currency unit, ``1/E``:
    ``lo * 2**-shift <= 1/E <= hi * 2**-shift``, with ``lo`` of about
    ``bits`` bits. ``value``, the reduced ``Fraction``, is built on first
    read and kept. ``fallbacks`` counts, by decision, those that needed the
    exact ratio because the bracket's ends rounded apart, on this rate and
    on every rate stepped from it: a run's count is its final rate's.
    """

    __slots__ = ("base", "keep", "whole", "steps", "base_census", "census",
                 "lo", "hi", "shift", "bits", "fallbacks", "_value")

    def __init__(self, base, keep, whole, steps, base_census, census, lo, hi, shift, bits,
                 fallbacks):
        self.base, self.keep, self.whole, self.steps = base, keep, whole, steps
        self.base_census, self.census = base_census, census
        self.lo, self.hi, self.shift, self.bits = lo, hi, shift, bits
        self.fallbacks = fallbacks
        self._value = None

    @classmethod
    def of(cls, value, census: int, bits: int = _START_BITS) -> Rate:
        """The rate ``value``, read by ``exact``, at ``census`` members, with a
        ``bits``-bit bracket. Raises ``ValueError`` unless ``value > 0``."""
        value = exact(value)
        if value <= 0:
            raise ValueError(f"exchange_rate must be positive, got {value}")
        bracket = _bracket(value.denominator, value.numerator, bits)
        return cls(value, 1, 1, 0, census, census, *bracket, bits, Counter())

    def ratio(self) -> tuple[int, int]:
        """``E`` as an unreduced integer ratio ``(num, den)``."""
        base, steps = self.base, self.steps
        return (
            base.numerator * self.keep**steps * self.census,
            base.denominator * self.whole**steps * self.base_census,
        )

    @property
    def value(self) -> Fraction:
        if self._value is None:
            same = not self.steps and self.census == self.base_census
            self._value = self.base if same else Fraction(*self.ratio())
        return self._value

    def step(self, alpha: Fraction, census: int, new_census: int) -> Rate:
        """``E * (1 - alpha) * new_census / census``.

        The closed form gains a step; a rate whose step factor or census
        differs from these is first re-based on its exact value. The bracket
        of ``1/E`` is multiplied by the small factor's inverse, ``lo``
        rounded down and ``hi`` up, and shifted back to ``bits`` bits.
        """
        keep, whole = alpha.denominator - alpha.numerator, alpha.denominator
        rate = self
        if census != rate.census or rate.steps and (keep, whole) != (rate.keep, rate.whole):
            rate = Rate(self.value, keep, whole, 0, census, census,
                        self.lo, self.hi, self.shift, self.bits, self.fallbacks)
        factor, divisor = whole * census, keep * new_census
        lo, hi = rate.lo * factor, rate.hi * factor
        shift = rate.bits - lo.bit_length() + divisor.bit_length()
        if shift >= 0:
            lo, hi = (lo << shift) // divisor, -(-(hi << shift) // divisor)
        else:
            divisor <<= -shift
            lo, hi = lo // divisor, -(-hi // divisor)
        return Rate(rate.base, keep, whole, rate.steps + 1, rate.base_census, new_census,
                    lo, hi, rate.shift + shift, rate.bits, self.fallbacks)

    def within(self, bits: int) -> Rate:
        """This rate if its bracket's relative width is at most ``2**-bits``;
        otherwise the same rate with the bracket rebuilt from the closed form
        at twice ``bits``, so that it stays narrow enough for many steps."""
        if (self.hi - self.lo) << bits <= self.lo:
            return self
        num, den = self.ratio()
        rate = Rate(self.base, self.keep, self.whole, self.steps, self.base_census, self.census,
                    *_bracket(den, num, 2 * bits), 2 * bits, self.fallbacks)
        rate._value = self._value
        return rate

    def float_times(self, count: int = 1) -> float:
        """``float(count * E)`` for an int ``count >= 0``, correctly rounded.

        Rounding is monotone, so when both ends of the bracket round to one
        float every value between them does. Otherwise, or where an end
        overflows, the exact ratio decides, and raises ``OverflowError``
        exactly where ``float(count * E)`` does.
        """
        shift = self.shift
        try:  # integer true division rounds correctly
            if shift >= 0:
                scaled = count << shift
                low, high = scaled / self.hi, scaled / self.lo
            else:
                low, high = count / (self.hi << -shift), count / (self.lo << -shift)
            if low == high:
                return low
        except OverflowError:
            pass
        self.fallbacks["float"] += 1
        num, den = self.ratio()
        return count * num / den


@dataclass(frozen=True, init=False)
class LedgerState:
    """Immutable snapshot of the ledger; operations return fresh states.

    ``participants`` is the current census, the members of ``balances``.
    It is always a subset of the balance keys; keys outside it are dormant
    holders. ``balances`` may be given as any mapping of account to poplets,
    which the state copies, with the ``participants``, every key when they
    are omitted; a ``Balances`` is kept as it is when ``participants`` is
    omitted or equals its members.

    ``rate`` is the exchange rate as a ``Rate``; ``exchange_rate``, the
    reduced ``Fraction``, is built from it on first read. The constructor
    takes either: a ``Rate`` is kept, any other number starts one by
    ``Rate.of``, which reads it by ``exact`` and rejects it unless positive.
    """

    epoch: int
    exchange_rate: Fraction
    balances: Balances
    participants: frozenset[Account]
    rate: Rate = field(init=False, repr=False, compare=False)

    def __init__(self, epoch: int, exchange_rate: Rate | Fraction, balances, participants=None):
        if not (
            isinstance(balances, Balances)
            and (participants is None or participants == balances.members)
        ):
            balances = Balances.from_entries(balances, participants)
        if not isinstance(exchange_rate, Rate):
            exchange_rate = Rate.of(exchange_rate, balances.count)
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "rate", exchange_rate)
        object.__setattr__(self, "balances", balances)

    @property
    def exchange_rate(self) -> Fraction:
        return self.rate.value

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


def _genesis_balances(initial_accounts: Iterable[Account], zero) -> dict:
    """``zero`` held at each of the ``initial_accounts``, in their order."""
    accounts = list(initial_accounts)
    if not accounts:
        raise InvalidGenesisError("at least one initial account is required")
    balances = dict.fromkeys(accounts, zero)
    if len(balances) != len(accounts):
        raise InvalidGenesisError("duplicate account ids in genesis")
    return balances


def genesis(
    params: PolicyParams,
    initial_accounts: Iterable[Account],
    poplet_scale: int = 1,
) -> LedgerState:
    """Create an epoch-0 ledger with the given participants and zero balances.

    ``poplet_scale`` fixes the initial rate at 1/poplet_scale currency units
    per poplet; larger scales make the atomic unit finer.
    """
    balances = _genesis_balances(initial_accounts, 0)
    if not _is_int(poplet_scale) or poplet_scale < 1:
        raise InvalidGenesisError(
            f"poplet_scale must be a positive integer, got {poplet_scale!r}"
        )
    return LedgerState(0, Fraction(1, poplet_scale), balances)


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
    index = balances.index
    opened = [account for account in new if account not in index]
    if opened:
        index = dict(index)
        index.update(zip(opened, range(len(index), len(index) + len(opened))))
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
    return Balances(index, held, flags, count, credit)


def _round_half_even(num: int, den: int, shift: int = 0) -> tuple[int, int]:
    """``q = round_half_even(num / (den << shift))`` for ``den > 0`` and
    ``shift >= 0``, and ``(q * den << shift) - num``. Dividing by ``den``
    first and shifting after keeps a long ``num`` at one short division."""
    q = num // den >> shift
    rest, whole = num - (q * den << shift), den << shift
    if 2 * rest > whole or 2 * rest == whole and q % 2:
        return q + 1, whole - rest
    return q, -rest


def _round_over(low: int, span: int, den: int, shift: int) -> int | None:
    """``round_half_even(x)``, one value for every ``x`` from ``low`` to
    ``low + span`` over ``den << shift`` (``span >= 0``), or None where the
    two ends round apart: where the high end, ``span - excess`` past the low
    end's ``q``, passes ``q + 1/2``, or reaches it with ``q`` odd."""
    q, excess = _round_half_even(low, den, shift)
    reach = 2 * (span - excess) - (den << shift)  # twice the high end's distance past q + 1/2
    return q if reach < 0 or reach == 0 and not q % 2 else None


def _issue(rate: Rate, income: Fraction, census: int) -> tuple[Rate, int, int]:
    """``issued = round_half_even(B/E')`` and the residue ``census * issued -
    census * B/E'`` rounded half to even, for ``rate`` E'; and E' with the
    bracket that decided them.

    ``B/E'`` is ``B`` times the bracket of ``1/E'``, after the bracket is
    made narrow enough: its relative width at most ``2**-GUARD_BITS`` over
    the bits of ``census * B/E'``. Each value comes from ``_round_over`` on
    the bracket's two ends, and where they round apart, both from the exact
    ratio by ``_round_half_even``.
    """
    bn, bd = income.numerator, income.denominator
    bits = max(bn.bit_length() - bd.bit_length() + rate.hi.bit_length() - rate.shift + 1, 0)
    rate = rate.within(bits + census.bit_length() + GUARD_BITS)  # B/E' < 2**bits
    lo, span, shift = bn * rate.lo, bn * (rate.hi - rate.lo), rate.shift
    if shift < 0:
        lo, span, shift = lo << -shift, span << -shift, 0
    # B/E' lies from lo to lo + span over bd << shift
    issued = _round_over(lo, span, bd, shift)
    if issued is not None:  # census * (issued - B/E') lies from low to low + span, over the same
        low = census * ((issued * bd << shift) - lo - span)
        residue = _round_over(low, census * span, bd, shift)
        if residue is not None:
            return rate, issued, residue
    rate.fallbacks["issued" if issued is None else "residue"] += 1
    rate_num, rate_den = rate.ratio()
    issued, excess = _round_half_even(bn * rate_den, bd * rate_num)
    return rate, issued, _round_half_even(census * excess, bd * rate_num)[0]


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
    rate = state.rate.step(params.demurrage_alpha, balances.count, new_census)
    rate, issued, residue = _issue(rate, params.basic_income, new_census)
    credit = balances.credit + issued
    if new or removed:
        balances = _census_change(balances, new, removed, issued, credit)
    else:
        balances = balances._moved(balances.held, credit)
    return LedgerState(state.epoch + 1, rate, balances), MintReport(issued, residue)


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
    return LedgerState(state.epoch, state.rate, balances._moved(held, balances.credit))


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
# int-to-str limit after about 2,500 epochs at alpha = 0.02, and balances
# pass it too (after about 2,150 epochs at alpha = 0.99). Ints past it are
# written through ``decimal``, which has no such limit and writes the same
# digits, and every int is read back through it. ``str`` is faster, so it
# writes the balances while their poplet total, which no balance exceeds,
# is within the limit, and the rate while its numerator and denominator are.
# Each account id goes through ``encode_basestring_ascii``, the encoder that
# ``json.dumps`` calls for a string, without its per-call set-up.

_int_max_str_digits = getattr(sys, "get_int_max_str_digits", None)  # Python 3.10.7 and later


def _int_writer(largest: int):
    """``str`` if it can write every int up to ``largest``, else ``Decimal``."""
    limit = _int_max_str_digits() if _int_max_str_digits else 0  # 0: no limit
    # below 2**(3 * limit) < 10**limit, an int has at most ``limit`` digits
    return Decimal if limit and largest.bit_length() > 3 * limit else str


def state_to_json(state: LedgerState) -> str:
    rate, balances = state.exchange_rate, state.balances
    index, flags, credit = balances.index, balances.flags, balances.credit
    write = _int_writer(sum(balances.held) + balances.count * credit)
    write_rate = _int_writer(max(rate.numerator, rate.denominator))
    fields = {  # in sorted key order
        "balances": "{" + ",".join(
            f"{encode_basestring_ascii(key)}:{write(poplets + credit if member else poplets)}"
            for key, poplets, member in sorted(zip(index, balances.held, flags))
        ) + "}",
        "census": str(state.census),
        "epoch": str(state.epoch),
        "exchange_rate": (
            f'{{"den":{write_rate(rate.denominator)},"num":{write_rate(rate.numerator)}}}'
        ),
    }
    if balances.count != len(index):
        members = sorted(compress(index, flags))
        fields["participants"] = json.dumps(members, separators=(",", ":"))
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields.items()) + "}"


def _must_be_object(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` and its JSON type unless ``value`` is an object."""
    if not isinstance(value, dict):
        kinds = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
        kind = kinds.get(type(value), "a number")
        raise ValueError(f"malformed ledger snapshot: {name} is {kind}, not an object")


def state_from_json(text: str) -> LedgerState:
    """Read a snapshot back; any text that is not one raises ``ValueError``."""
    try:
        doc = json.loads(text, parse_int=lambda digits: int(Decimal(digits)))
    except RecursionError:
        raise ValueError("malformed ledger snapshot: nested too deeply") from None
    try:
        _must_be_object(doc, "the document")
        epoch = doc["epoch"]
        census = doc["census"]
        _must_be_object(doc["exchange_rate"], "exchange_rate")
        num = doc["exchange_rate"]["num"]
        den = doc["exchange_rate"]["den"]
        balances = doc["balances"]
    except KeyError as err:
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
    participants = doc.get("participants")  # every balance key when absent
    if participants is not None:
        if not isinstance(participants, list) or not participants or not all(
            isinstance(a, str) for a in participants
        ):
            raise ValueError("participants must be a non-empty list of account ids")
        if len(set(participants)) != len(participants):
            raise ValueError("duplicate ids in participants")
    state = LedgerState(epoch, Fraction(num, den), balances, participants)
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
    balances = _genesis_balances(initial_accounts, Fraction(0))
    return DirectLedgerState(epoch=0, balances=balances, participants=frozenset(balances))


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
