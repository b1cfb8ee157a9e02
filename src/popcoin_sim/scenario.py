"""Scenario runner: validated configs in, deterministic files out.

A scenario couples the ledger to a census trajectory and replays it epoch
by epoch, measuring supply and inequality as it goes. Reproducibility is a
contract: given one config, every run writes byte-identical files. That
rules out wall clocks, host names, float formatting ambiguity (floats are
written with ``repr``, i.e. shortest round-trip), unsorted containers, and
any RNG other than the seeded splitmix64 stream documented in ``rng``.

Outputs per run:

* ``manifest.json``   — canonical echo of the normalized config
* ``epochs.csv``      — columns t,N,n,E,M_total,D,R,gini,variance,max_ratio
* ``final_state.json``— ledger snapshot in the documented schema
* study files (``supply.csv``, ``inequality.csv``, ``exchange.csv`` +
  ``exchange_summary.json``, ``agent.csv``) when requested
* ``plot_data.csv``   — optional long-format (t, series, value) rows

Inequality columns cover census members only; dormant holders still count
toward M_total. A run makes one pass over the states of the aggregate
supply recurrence (``monetary.run_macro``): each epoch takes ``n``, ``D``
and ``R`` from its state and makes three checks, any of which raises
``InvariantViolation`` when it fails:

* the issuance rounding residue is at most half a poplet per participant;
* the balances, summed once after the transfer mix, equal exactly the
  poplets issued so far, ``sum over epochs of N_t * issued_t``; a transfer
  that creates or destroys a poplet, or a mint that credits other than it
  reports, fails this check;
* the ledger total ``poplets * E`` matches the recurrence's supply within
  the declared rounding-plus-float tolerance.

Each epoch's row is formatted once, and every file that shows one of its
columns writes that string. A member's value is ``float(balance) * float(E)``;
when a balance passes the largest float it is ``balance * E`` correctly
rounded instead, which is finite because no value exceeds the supply.

Random transfer mix (documented for reimplementation): each epoch after
minting, ``count_per_epoch`` transfers run over the sorted list of all
account ids. Per transfer, three draws: sender index ``below(A)``,
recipient index ``below(A-1)`` skipping the sender (add 1 when the draw is
>= the sender index), then an amount ``below(cap + 1)`` where
``cap = balance * frac_num // frac_den`` in exact integer arithmetic from
the decimal ``max_fraction``. Zero-amount draws are no-ops but still
consume their draws; with fewer than two accounts the epoch consumes none.
Transfers apply in order, each seeing the balances the previous ones left.

An epoch's ``3 * count_per_epoch`` raw draws are one contiguous block of
the stream: if the generator enters the epoch in state ``s``, draw i (from
1) mixes the counter ``s + i*GAMMA mod 2**64`` (see ``rng``). The runner
computes the block in one vectorised pass; the order and meaning of the
draws are the ones above.

Account ids are ``p%08d``, created in increasing order, so creation order
is sorted order. Validation therefore rejects census paths that would open
more than ``MAX_ACCOUNTS`` (10**8) accounts, and paths that leave the
floats. It also rejects more than ``MAX_EPOCHS`` (10**5) epochs and more
than ``MAX_TRANSFERS_PER_EPOCH`` (10**6) transfers per epoch, and numbers
that do not fit a float. Every input file is read by ``read_json``, which
turns any fault of the file into one ``<path>: ...`` diagnostic.
"""

from __future__ import annotations

import copy
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .agent import AgentProblem, effective_tax, optimal_out1
from .errors import ConfigError, InvariantViolation
from .exchange import ExchangeScenario, OvershootingResult, overshooting_experiment
# The epoch loop calls neither the single-metric functions nor ``transfer``,
# ``total_supply_popcoin_exact`` and ``interest_rate``; they are its oracles
# and stay patchable attributes of this module.
from .inequality import (
    epoch_metrics,
    gini,  # noqa: F401
    gini_bound,
    max_inequality_ratio,  # noqa: F401
    ratio_bound,
    variance,  # noqa: F401
    variance_bound,
)
from .ledger import (
    PolicyParams,
    exact,
    genesis,
    mint_epoch_poplet,
    state_to_json,
    total_supply_popcoin_exact,  # noqa: F401
    transfer,  # noqa: F401
)
from .monetary import interest_rate, run_macro  # noqa: F401
from .rng import SplitMix64

log = logging.getLogger("popcoin_sim.scenario")

EPOCH_COLUMNS = ["t", "N", "n", "E", "M_total", "D", "R", "gini", "variance", "max_ratio"]
SUPPLY_COLUMNS = ["t", "M_ledger", "M_recurrence", "cap"]
INEQUALITY_COLUMNS = ["t", *EPOCH_COLUMNS[7:], "gini_bound", "variance_bound", "ratio_bound"]
# A grid case's shock and elasticity, then its result, read off by name.
EXCHANGE_COLUMNS = [
    "shock",
    "eta",
    *(spec.name for spec in fields(OvershootingResult)),
    "overshoot",
]
AGENT_COLUMNS = ["in1", "out1", "savings", "tax_rate"]
PLOT_COLUMNS = ["t", "series", "value"]

# Account ids are p%08d, created in increasing order; below this many accounts
# their creation order is also their sorted order, which the epoch loop relies on.
MAX_ACCOUNTS = 10**8
# Validation builds the census path, one entry per epoch, and the transfer mix
# draws its 3 * count_per_epoch numbers at once; these limits bound both.
MAX_EPOCHS = 10**5
MAX_TRANSFERS_PER_EPOCH = 10**6


def census_path(population: dict, epochs: int) -> list[int]:
    """Census trajectory N_0..N_epochs for one validated population block.

    Real-valued formulas are rounded half-even and floored at 1 so every
    epoch keeps at least one participant.
    """
    kind = population["kind"]
    if kind == "fixed":
        return [population["N"]] * (epochs + 1)
    if kind in ("exponential", "degrowth"):
        n0, growth = population["N0"], population["n"]
        return [max(1, round(n0 * (1.0 + growth) ** t)) for t in range(epochs + 1)]
    if kind == "logistic":
        n0, cap, rate = population["N0"], population["K"], population["rate"]
        return [
            max(1, round(cap / (1.0 + (cap / n0 - 1.0) * math.exp(-rate * t))))
            for t in range(epochs + 1)
        ]
    if kind == "step_shock":
        n0, factor, at = population["N0"], population["factor"], population["at_epoch"]
        shocked = max(1, round(n0 * factor))
        return [n0 if t < at else shocked for t in range(epochs + 1)]
    raise ValueError(f"unknown population kind {kind!r}")


# --- the config schema -------------------------------------------------------
#
# Every block of a config is a table of fields. One walker checks a block
# against its table and returns the block with its defaults filled, so the
# diagnostics, the defaults and the manifest echo all come from the tables.
# Only the rules that tie fields together are code.

_ABSENT = object()


class Field(NamedTuple):
    """One key of a config block.

    ``check`` returns None for a value in the field's domain, and otherwise
    the rest of the diagnostic after "must". A field with a ``block`` is a
    nested block, walked with that table instead.
    """

    key: str
    check: Callable[[object], str | None] | None = None
    required: bool = False
    default: object = _ABSENT
    block: tuple = ()


def _is_number(value) -> bool:
    """A JSON number other than a boolean, NaN, an infinity or an int past the floats."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value) and abs(value) <= sys.float_info.max


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _must(ok, expect: str):
    """A check that admits the values ``ok`` accepts and names any other."""
    return lambda value: None if ok(value) else f"{expect}, got {value!r}"


def _at_most(check, limit: int):
    """The domain of ``check`` up to ``limit``; a larger value is named apart."""
    return lambda value: check(value) or (
        f"be at most {limit}, got {value!r}" if value > limit else None
    )


def _reword(check, expect: str):
    """The domain of ``check``, with a diagnostic worded by ``expect``."""
    return lambda value: check(value) and f"{expect}, got {value!r}"


def _list_of(check, expect: str):
    """A check for a non-empty list of items ``check`` admits; it names no value."""
    return lambda value: (
        None if isinstance(value, list) and value and not any(map(check, value)) else expect
    )


_NUMBER = _must(_is_number, "be a number")
_POSITIVE_NUMBER = _must(lambda v: _is_number(v) and v > 0, "be a positive number")
_NON_NEGATIVE_NUMBER = _must(lambda v: _is_number(v) and v >= 0, "be a number >= 0")
_ABOVE_MINUS_ONE = _must(lambda v: _is_number(v) and v > -1, "be a number above -1")
_POSITIVE_INTEGER = _must(lambda v: _is_int(v) and v >= 1, "be a positive integer")
_NON_NEGATIVE_INTEGER = _must(lambda v: _is_int(v) and v >= 0, "be a non-negative integer")
# public: the ``agent`` subcommand checks its --alpha with it
check_alpha = _must(lambda v: _is_number(v) and 0 <= v < 1, "lie in [0, 1)")


_POSITIVE = _reword(_POSITIVE_NUMBER, "be positive")


def _positive_parameter(value) -> str | None:
    """An exchange level: ``be a number`` first, then ``be positive``."""
    return _NUMBER(value) or _POSITIVE(value)


POLICY_FIELDS = (
    Field("basic_income", _POSITIVE_NUMBER, required=True),
    Field("demurrage_alpha", check_alpha, required=True),
    Field("epochs_per_year", _POSITIVE_INTEGER, default=1),
)

_N0 = Field("N0", _POSITIVE_INTEGER, required=True)
_GROWTH = Field("n", _ABOVE_MINUS_ONE, required=True)
POPULATION_FIELDS = {
    "fixed": (Field("N", _POSITIVE_INTEGER, required=True),),
    "exponential": (_N0, _GROWTH),
    "logistic": (
        _N0,
        Field("K", _must(lambda v: _is_number(v) and v >= 1, "be a number >= 1"), required=True),
        Field("rate", _POSITIVE_NUMBER, required=True),
    ),
    "step_shock": (
        _N0,
        Field("factor", _POSITIVE_NUMBER, required=True),
        Field("at_epoch", _reword(_POSITIVE_INTEGER, "be an integer >= 1"), required=True),
    ),
    "degrowth": (_N0, _GROWTH),
}
POPULATION_KINDS = tuple(POPULATION_FIELDS)
_KIND = Field("kind", _must(lambda v: v in POPULATION_KINDS, f"be one of {POPULATION_KINDS}"))

TRANSFER_FIELDS = (
    Field(
        "count_per_epoch",
        _at_most(_NON_NEGATIVE_INTEGER, MAX_TRANSFERS_PER_EPOCH),
        required=True,
    ),
    Field(
        "max_fraction", _must(lambda v: _is_number(v) and 0 < v <= 1, "lie in (0, 1]"), required=True
    ),
)

# Symmetric two-economy baseline: parity anchor, zero rates on both sides.
EXCHANGE_SCENARIO_FIELDS = tuple(
    Field(spec.name, _NUMBER, default=0.0)
    if "growth" in spec.name
    else Field(spec.name, _positive_parameter, default=1.0)
    for spec in fields(ExchangeScenario)
)
EXCHANGE_FIELDS = (
    Field("scenario", block=EXCHANGE_SCENARIO_FIELDS, default={}),
    Field(
        "fiat_supply_shocks",
        _list_of(_NON_NEGATIVE_NUMBER, "be a non-empty list of numbers >= 0"),
        default=[0.0, 0.01, 0.05, 0.1, 0.25],
    ),
    Field(
        "elasticities",
        _list_of(_POSITIVE_NUMBER, "be a non-empty list of positive numbers"),
        default=[0.25, 0.5, 1.0, 2.0, 4.0],
    ),
)
_POLICY_SHOCK_KEYS = ("pop_supply_shocks", "pop_supply_shock")

# An agent study's params, or the object form of the ``agent`` input.
AGENT_FIELDS = (
    Field("demurrage_alpha", check_alpha, default=0.0),
    Field("problems", _list_of(lambda problem: None, "be a non-empty list"), required=True),
)
PROBLEM_FIELDS = (
    Field("basic_income", _NON_NEGATIVE_NUMBER, required=True),
    Field("earned_income", _NON_NEGATIVE_NUMBER),
    Field("interest_rate", _ABOVE_MINUS_ONE),
    Field("price_1", _POSITIVE_NUMBER),
    Field("price_2", _POSITIVE_NUMBER),
    Field("allow_borrowing", _must(lambda v: isinstance(v, bool), "be a boolean")),
    Field("demurrage_alpha", _reword(check_alpha, "be in [0, 1)")),
)

CONFIG_KEYS = ("policy", "epochs", "population", "seed", "poplet_scale", "transfers", "outputs")
_EPOCHS = _at_most(_NON_NEGATIVE_INTEGER, MAX_EPOCHS)
_SEED = _must(lambda v: v is None or _is_int(v) and -(2**63) <= v < 2**64, "be a 64-bit integer")
STUDIES = ("supply", "inequality", "exchange", "agent")


def _report(check, where: str, value, out: list[str]) -> bool:
    """Report ``value`` at ``where`` unless ``check`` admits it; True if it does."""
    problem = check(value)
    if problem:
        out.append(f"{where}: must {problem}")
    return not problem


def _walk(doc, fields, where: str, out: list[str], missing=None, unknown=None) -> dict:
    """Check one block against its table; return it with its defaults filled.

    ``where`` names the block ("" for the root of an input, whose unknown
    keys are reported as ``input``). The unknown keys come first, in
    document order and worded by ``unknown`` when given, then each field in
    table order. An absent required key reads ``<key>: <missing>``, or,
    without ``missing``, is checked as null.
    """
    label = where or "input"
    if not isinstance(doc, dict):
        out.append(f"{label}: must be an object")
        return {}
    known = {spec.key for spec in fields}
    for key in doc:
        if key not in known:
            out.append(unknown(key) if unknown else f"{label}: unknown key {key!r}")
    prefix = f"{where}." if where else ""
    values = {}
    for spec in fields:
        if spec.key in doc:
            value = doc[spec.key]
        elif spec.default is not _ABSENT:
            value = spec.default
        elif not spec.required:
            continue
        elif missing:
            out.append(f"{prefix}{spec.key}: {missing}")
            continue
        else:
            value = None
        if spec.block:
            values[spec.key] = _walk(value, spec.block, prefix + spec.key, out)
        else:
            _report(spec.check, prefix + spec.key, value, out)
            values[spec.key] = copy.copy(value)
    return values


def _validate_census_path(population: dict, epochs: int, out: list[str]) -> None:
    """Reject census paths that leave the floats or open too many accounts."""
    try:
        path = census_path(population, epochs)
    except (OverflowError, ValueError):  # float overflow, round() of inf or nan
        out.append(f"population: the census path is not finite within {epochs} epochs")
        return
    accounts = path[0] + sum(max(0, now - before) for before, now in zip(path, path[1:]))
    if accounts > MAX_ACCOUNTS:
        out.append(
            f"population: the census path opens more than {MAX_ACCOUNTS} accounts, "
            "the most that 8-digit account ids support"
        )


def _population(doc, out: list[str]) -> dict | None:
    """The population block, or None when anything in it is wrong."""
    if not isinstance(doc, dict):
        out.append("population: must be an object")
        return None
    kind = doc.get("kind")
    if not _report(_KIND.check, "population.kind", kind, out):
        return None
    found = len(out)
    population = _walk(
        doc,
        (_KIND, *POPULATION_FIELDS[kind]),
        "population",
        out,
        missing=f"required for kind {kind!r}",
        unknown=lambda key: f"population: unknown key {key!r} for kind {kind!r}",
    )
    growth = population.get("n")
    if kind == "degrowth" and _is_number(growth) and growth >= 0:
        out.append(f"population.n: degrowth requires n < 0, got {growth!r}")
    return population if len(out) == found else None


def _exchange_params(params, where: str, out: list[str]) -> dict:
    def unknown(key):
        if key in _POLICY_SHOCK_KEYS:
            return (
                f"{where}.{key}: the policy currency's supply is census-determined "
                "and cannot be shocked; only fiat_supply_shocks is supported"
            )
        return f"{where}: unknown key {key!r}"

    return _walk(params, EXCHANGE_FIELDS, where, out, unknown=unknown)


def _agent_params(params, where: str, out: list[str]) -> dict:
    values = _walk(params, AGENT_FIELDS, where, out)
    problems = values.get("problems")
    if isinstance(problems, list):
        prefix = f"{where}." if where else ""
        values["problems"] = [
            _walk(problem, PROBLEM_FIELDS, f"{prefix}problems[{i}]", out, missing="required")
            for i, problem in enumerate(problems)
        ]
    return values


def normalize_exchange_params(doc) -> dict:
    """An exchange study's params, which are also the ``exchange`` input,
    with every default filled; raises ConfigError with every diagnostic."""
    out: list[str] = []
    params = _exchange_params(doc, "input", out)
    if out:
        raise ConfigError(out)
    return params


def normalize_agent_input(doc) -> tuple[list[dict], float]:
    """The problems and demurrage rate of an ``agent`` input.

    The input is a bare problem list or an agent study's params,
    ``{demurrage_alpha, problems}``; the rate defaults to 0. Raises
    ConfigError with every diagnostic.
    """
    if isinstance(doc, list):
        doc = {"problems": doc}
    elif not isinstance(doc, dict):
        raise ConfigError(["input: must be a problem list or an object with 'problems'"])
    out: list[str] = []
    params = _agent_params(doc, "", out)
    if out:
        raise ConfigError(out)
    return params["problems"], params["demurrage_alpha"]


def _study(entry, where: str, policy: dict, out: list[str]) -> dict | None:
    """One normalised output selector (None when it is not one)."""
    if not isinstance(entry, dict):
        out.append(f"{where}: must be an object")
        return None
    for key in entry:
        if key not in ("study", "params"):
            out.append(f"{where}: unknown key {key!r}")
    study = entry.get("study")
    if study not in STUDIES:
        out.append(f"{where}.study: must be one of {', '.join(STUDIES)}; got {study!r}")
        return None
    params = entry.get("params")
    if study in ("supply", "inequality"):
        if params not in (None, {}):
            out.append(f"{where}: study {study!r} takes no params")
        return {"study": study, "params": {}}
    if params is None:
        params = {}
    if not isinstance(params, dict):
        out.append(f"{where}: params must be an object")
        return None
    if study == "exchange":
        return {"study": study, "params": _exchange_params(params, where, out)}
    normalized = _agent_params(params, where, out)
    if "demurrage_alpha" not in params:  # the study's rate defaults to the policy's
        normalized["demurrage_alpha"] = policy.get("demurrage_alpha")
    return {"study": study, "params": normalized}


def _normalize(doc) -> tuple[dict, list[str]]:
    """The config with every default filled, and every diagnostic.

    The top level reports its unknown and missing keys first, then each
    block and field in turn. Each rule that ties fields together follows the
    last field it reads: the census path after ``epochs``, the seed that
    random transfers need after ``seed``.
    """
    if not isinstance(doc, dict):
        return {}, ["config: must be a JSON object"]
    out = [f"config: unknown key {key!r}" for key in doc if key not in CONFIG_KEYS]
    out += [
        f"config: missing required key {key!r}"
        for key in ("policy", "epochs", "population")
        if key not in doc
    ]
    policy = _walk(doc["policy"], POLICY_FIELDS, "policy", out) if "policy" in doc else {}
    population = _population(doc["population"], out) if "population" in doc else None
    epochs = doc.get("epochs")
    if "epochs" in doc and _report(_EPOCHS, "epochs", epochs, out) and population:
        _validate_census_path(population, epochs, out)
    poplet_scale = doc.get("poplet_scale", 10**8)
    _report(_POSITIVE_INTEGER, "poplet_scale", poplet_scale, out)
    transfers = doc.get("transfers")
    if transfers is not None:
        transfers = _walk(transfers, TRANSFER_FIELDS, "transfers", out)
    seed = doc.get("seed")
    _report(_SEED, "seed", seed, out)
    count = transfers.get("count_per_epoch") if transfers else None
    if seed is None and _is_int(count) and count > 0:
        out.append("seed: required when random transfers are enabled")
    outputs = doc.get("outputs", [])
    if not isinstance(outputs, list):
        out.append("outputs: must be a list of study selectors")
        outputs = []
    studies = [_study(entry, f"outputs[{i}]", policy, out) for i, entry in enumerate(outputs)]
    normalized = {
        "policy": policy,
        "epochs": epochs,
        "population": population,
        "seed": seed,
        "poplet_scale": poplet_scale,
        "transfers": transfers,
        "outputs": studies,
    }
    return normalized, out


def validate_config(doc) -> list[str]:
    """Return every diagnostic for a scenario config; empty means valid."""
    return _normalize(doc)[1]


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed, validated scenario; ``normalized`` echoes it with defaults filled."""

    policy: PolicyParams
    epochs: int
    population: dict
    seed: int | None
    poplet_scale: int
    transfers: dict | None
    outputs: tuple[dict, ...]
    normalized: dict = field(compare=False)


def parse_config(doc) -> ScenarioConfig:
    """Validate a raw config object and bind defaults; raises ConfigError."""
    normalized, diagnostics = _normalize(doc)
    if diagnostics:
        raise ConfigError(diagnostics)
    return ScenarioConfig(
        policy=PolicyParams(**normalized["policy"]),
        epochs=normalized["epochs"],
        population=dict(normalized["population"]),
        seed=normalized["seed"],
        poplet_scale=normalized["poplet_scale"],
        transfers=normalized["transfers"],
        outputs=tuple(normalized["outputs"]),
        normalized=normalized,
    )


def read_json(path):
    """The JSON document in the file at ``path``, the one reader of every input.

    A file that cannot be opened, is not UTF-8, or is not JSON that Python
    can read (an integer past 4300 digits, arrays nested past the recursion
    limit) is one ``<path>: ...`` ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError([f"{path}: file not found"]) from None
    except OSError as err:
        raise ConfigError([f"{path}: cannot be read ({err.strerror or err})"]) from None
    except (ValueError, RecursionError) as err:
        raise ConfigError([f"{path}: not valid JSON ({err})"]) from None


def load_config(path) -> ScenarioConfig:
    return parse_config(read_json(path))


# --- the epoch loop ----------------------------------------------------------


def _account_id(index: int) -> str:
    return f"p{index:08d}"


def _mix_transfers(state, rng: SplitMix64, count: int, frac: Fraction):
    """Apply one epoch's random transfer mix; see the module docstring.

    Equal to folding ``ledger.transfer`` over the drawn transfers with
    scalar ``rng.below`` draws, but the epoch's ``3 * count`` raw draws come
    from one ``rng.block`` and the transfers update one copy of the
    balances in place.
    """
    accounts = sorted(state.balances)
    n = len(accounts)
    if n < 2:
        return state
    balances = dict(state.balances)
    num, den = frac.numerator, frac.denominator
    draws = iter(rng.block(3 * count))
    for sender_raw, recipient_raw, amount_raw in zip(draws, draws, draws):
        sender_idx = sender_raw % n
        recipient_idx = recipient_raw % (n - 1)
        if recipient_idx >= sender_idx:
            recipient_idx += 1
        sender = accounts[sender_idx]
        held = balances[sender]
        amount = amount_raw % (held * num // den + 1)
        if amount > 0:
            if amount > held:
                raise InvariantViolation(
                    f"transfer mix drew {amount} poplets from {sender!r}, which holds {held}"
                )
            balances[sender] = held - amount
            balances[accounts[recipient_idx]] += amount
    return replace(state, balances=balances)


def run_scenario(config: ScenarioConfig, out_dir, include_plot_data: bool = False) -> dict:
    """Replay the census path through the ledger and write all output files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = census_path(config.population, config.epochs)
    params = config.policy
    alpha = float(params.demurrage_alpha)
    income = float(params.basic_income)
    macro = run_macro(income, alpha, path)
    peak = max(path)

    # Census members in sorted order, kept without sorting: ids are created in
    # increasing order and removals take the highest ids, so growth appends
    # and shrinkage truncates. Every id ever created holds a balance, so the
    # next id is the number of balances.
    members = [_account_id(i) for i in range(path[0])]
    state = genesis(params, members, config.poplet_scale)
    rng = None
    frac = Fraction(0)
    transfer_count = 0
    if config.transfers and config.transfers["count_per_epoch"] > 0:
        rng = SplitMix64(config.seed)
        frac = exact(config.transfers["max_fraction"])
        transfer_count = config.transfers["count_per_epoch"]

    poplets = 0  # every poplet issued so far; genesis balances are zero
    total = 0.0
    cells: list[list[str]] = []  # each epoch's EPOCH_COLUMNS, formatted once
    for macro_state in macro:
        t, n_now = macro_state.epoch, macro_state.census
        new_accounts: list[str] = []
        removed: list[str] = []
        if n_now > len(members):
            opened = len(state.balances)
            new_accounts = [_account_id(opened + k) for k in range(n_now - len(members))]
            members.extend(new_accounts)
        elif n_now < len(members):
            removed = members[n_now:]
            del members[n_now:]
        state, report = mint_epoch_poplet(state, params, n_now, new_accounts, removed)
        poplets += n_now * report.issued_per_participant
        if abs(report.rounding_residue_poplets) > (n_now + 1) // 2:
            raise InvariantViolation(
                f"epoch {t}: issuance rounding residue of {report.rounding_residue_poplets} "
                f"poplets exceeds half a poplet for each of {n_now} participants"
            )
        if rng is not None:
            state = _mix_transfers(state, rng, transfer_count, frac)
        balances = state.balances
        held = sum(balances.values())
        if held != poplets:
            raise InvariantViolation(
                f"epoch {t}: the ledger holds {held} poplets, not the {poplets} issued"
            )

        # Integer true division is correctly rounded: these are float() of the exact values.
        num, den = state.exchange_rate.numerator, state.exchange_rate.denominator
        rate_float = num / den
        total = poplets * num / den
        # Issuance rounding moves each epoch's total by at most half a poplet per
        # participant, carried forward as poplets; the rest is float error in the
        # recurrence itself.
        tolerance = peak * t * rate_float + 1e-9 * max(abs(macro_state.supply), 1.0)
        if abs(total - macro_state.supply) > tolerance:
            raise InvariantViolation(
                f"epoch {t}: ledger supply {total} deviates from "
                f"recurrence {macro_state.supply} by more than {tolerance}"
            )
        try:
            values = np.fromiter(map(balances.__getitem__, members), float, n_now) * rate_float
        except OverflowError:
            # A balance past the floats: each value is at most the supply, so the
            # correctly rounded ``balance * num / den`` is finite.
            values = np.array([balances[account] * num / den for account in members])
        row = (
            t,
            n_now,
            macro_state.census_growth,
            rate_float,
            total,
            macro_state.demurrage,
            macro_state.interest,
            *epoch_metrics(values),
        )
        cells.append(list(map(_format_cell, row)))

    files = {}
    files["manifest.json"] = _write_json(
        out / "manifest.json", {"format_version": 1, "config": config.normalized}
    )
    files["epochs.csv"] = _write_csv(out / "epochs.csv", EPOCH_COLUMNS, cells)
    files["final_state.json"] = _write_text(out / "final_state.json", state_to_json(state) + "\n")
    # The study tables reuse the epoch cells t and M_total (row[4]), and gini,
    # variance and max_ratio (row[7:]); they format only their own columns.
    for entry in config.outputs:
        study = entry["study"]
        if study == "supply":
            table = (
                [
                    row[0],
                    row[4],
                    macro_state.supply,
                    income * macro_state.census / alpha if alpha > 0 else math.inf,
                ]
                for row, macro_state in zip(cells, macro)
            )
            files["supply.csv"] = _write_csv(out / "supply.csv", SUPPLY_COLUMNS, table)
        elif study == "inequality":
            table = (
                [
                    row[0],
                    *row[7:],
                    gini_bound(alpha, macro_state.census),
                    variance_bound(alpha, income, macro_state.census),
                    ratio_bound(alpha, macro_state.census),
                ]
                for row, macro_state in zip(cells, macro)
            )
            files["inequality.csv"] = _write_csv(out / "inequality.csv", INEQUALITY_COLUMNS, table)
        elif study == "exchange":
            files.update(write_exchange(out, entry["params"]))
        elif study == "agent":
            files["agent.csv"] = write_agent_csv(
                out / "agent.csv",
                entry["params"]["problems"],
                entry["params"]["demurrage_alpha"],
            )
    if include_plot_data:
        files["plot_data.csv"] = _write_csv(out / "plot_data.csv", PLOT_COLUMNS, _long_rows(cells))
    log.info("run complete: %d epochs, %d files in %s", config.epochs, len(files), out)
    return {
        "out_dir": str(out),
        "epochs": config.epochs,
        "files": sorted(files),
        "final_supply": total,
    }


def emit_plot_data(rows: Sequence[dict]) -> list[list]:
    """Long-format (t, series, value) rows for every non-time epoch column."""
    return list(_long_rows([row[column] for column in EPOCH_COLUMNS] for row in rows))


def _long_rows(rows):
    """``(t, series, value)`` for each non-time cell of rows in EPOCH_COLUMNS order."""
    for row in rows:
        t = row[0]
        for column, value in zip(EPOCH_COLUMNS[1:], row[1:]):
            yield [t, column, value]


def write_exchange(out: Path, params: dict) -> dict:
    """Run the exchange grid for normalised params; write its two files into ``out``."""
    rows, summary = run_exchange_grid(params)
    return {
        "exchange.csv": _write_csv(out / "exchange.csv", EXCHANGE_COLUMNS, rows),
        "exchange_summary.json": _write_json(out / "exchange_summary.json", summary),
    }


def run_exchange_grid(params: dict) -> tuple[list[list], dict]:
    """Overshooting experiment over the shock x elasticity grid."""
    base = ExchangeScenario(**params["scenario"])
    rows = []
    overshoots = []
    for eta in params["elasticities"]:
        scenario = replace(base, liquidity_elasticity=eta)
        for shock in params["fiat_supply_shocks"]:
            result = overshooting_experiment(scenario, shock)
            rows.append([shock, eta, *(getattr(result, name) for name in EXCHANGE_COLUMNS[2:])])
            if shock > 0:
                overshoots.append(result.overshoot)
    summary = {
        "cases": len(rows),
        "positive_shock_cases": len(overshoots),
        "all_positive_shocks_overshoot": all(o > 0 for o in overshoots),
        "min_overshoot": min(overshoots) if overshoots else None,
        "max_overshoot": max(overshoots) if overshoots else None,
    }
    return rows, summary


def run_agent_batch(problems: Sequence[dict], default_alpha: float) -> list[list]:
    """Rows (in1, out1, savings, tax_rate) for a list of problem objects."""
    rows = []
    for doc in problems:
        doc = dict(doc)
        alpha = doc.pop("demurrage_alpha", default_alpha)
        problem = AgentProblem(**doc)
        spend = optimal_out1(problem)
        report = effective_tax(problem, alpha)
        rows.append([problem.earned_income, spend, report.savings, report.tax_rate])
    return rows


def write_agent_csv(path: Path, problems, default_alpha: float) -> str:
    """Solve a batch of normalised problems and write their rows to ``path``."""
    return _write_csv(path, AGENT_COLUMNS, run_agent_batch(problems, default_alpha))


# --- deterministic file writers ----------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, str):  # first: the epoch rows arrive formatted
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value + 0.0)  # folds -0.0 into 0.0
    return str(value)


def write_rows(handle, header: Sequence[str], rows) -> None:
    """Write a header and rows as CSV to an open text handle, file or stdout."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])


def _write_csv(path: Path, header: Sequence[str], rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_rows(handle, header, rows)
    return path.name


def _write_json(path: Path, doc) -> str:
    return _write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_text(path: Path, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path.name
