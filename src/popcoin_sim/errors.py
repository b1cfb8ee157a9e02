"""Exception hierarchy shared across the simulator.

Pure-math domain violations (log of a non-positive number, division by a
vanishing denominator) raise plain ``ValueError``; the classes here cover
failures with ledger or configuration semantics that callers are expected
to catch and map to exit codes.
"""


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
