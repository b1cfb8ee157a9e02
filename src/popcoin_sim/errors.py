"""Exception hierarchy shared across the simulator.

Pure-math domain violations (log of a non-positive number, division by a
vanishing denominator) raise plain ``ValueError``; the classes here cover
failures with ledger or configuration semantics that callers are expected
to catch and map to exit codes.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

_MAX_FLOAT = sys.float_info.max


def _is_int(value) -> bool:
    """An int other than a bool: ``True`` is an int to Python but not to JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_text(value) -> str:
    """How every diagnostic quotes ``value``: a string by ``repr``, anything else
    by ``str``, but an int past the int-to-str limit through ``Decimal`` (the
    same digits), and a ``Fraction``'s terms as ints."""
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, Fraction):
        num, den = _int_text(value.numerator), _int_text(value.denominator)
        return num if den == "1" else f"{num}/{den}"
    try:
        return str(value)
    except ValueError:  # an int past the int-to-str limit
        return str(Decimal(value))


def _check_positive(name: str, value) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {_int_text(value)}")


def _check_non_negative(name: str, value) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {_int_text(value)}")


def _check_float(name: str, value) -> None:
    """Reject a float parameter past the largest float in magnitude but short
    of inf: an int that no float holds, on which float arithmetic raises
    ``OverflowError``. inf and nan pass. The two checks above admit any int,
    as the ledger, ``Rate.of`` and ``SplitMix64.below`` must."""
    if _MAX_FLOAT < abs(value) < math.inf:
        raise ValueError(f"{name} must lie within the float range, got {_int_text(value)}")


def _check_positive_float(name: str, value) -> None:
    _check_positive(name, value)
    _check_float(name, value)


def _check_above_minus_one(name: str, value) -> None:
    """A float parameter above -1; it checks the float range too, at one
    comparison where the value passes."""
    if value <= -1:
        raise ValueError(f"{name} must exceed -1, got {_int_text(value)}")
    if value > _MAX_FLOAT:
        _check_float(name, value)


class PopcoinError(Exception):
    """Base class for all simulator-specific errors."""


class LedgerError(PopcoinError):
    """Base class for ledger state-machine violations."""


class InvalidGenesisError(LedgerError):
    """Genesis called with no accounts, duplicate accounts, or a bad poplet scale."""


class CensusMismatchError(LedgerError):
    """Declared census disagrees with the account deltas applied in a minting."""


class UnknownAccountError(LedgerError):
    """An operation referenced an account id the ledger has never seen."""


class InsufficientBalanceError(LedgerError):
    """A transfer would overdraw the sender; the ledger state is unchanged."""


class UndefinedGiniError(ValueError, PopcoinError):
    """Gini coefficient requested for a distribution with zero mean."""


class NoEquilibriumError(ValueError, PopcoinError):
    """A model has no finite solution for admitted inputs: no exchange rate
    or money-market rate, or no optimal first-period outlay."""


class ConfigError(PopcoinError):
    """A scenario or batch input failed validation.

    Carries the full list of diagnostics so the CLI can print every problem,
    not just the first one.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class InvariantViolation(PopcoinError):
    """A model guarantee failed at runtime (distinct from bad user input)."""
