"""Scenario runner: validated configs in, deterministic files out.

A scenario couples the ledger to a census trajectory and replays it epoch
by epoch, measuring supply and inequality as it goes. Reproducibility is a
contract: given one config, every run writes byte-identical files. That
rules out wall clocks, host names, float formatting ambiguity (floats are
written with ``repr``, i.e. shortest round-trip), unsorted containers, and
any RNG other than the seeded splitmix64 stream documented in ``rng``.
``parse_config`` makes a config a ``ScenarioConfig``: its ``PolicyParams`` and
the config with defaults filled, which the run reads and the manifest echoes.

A run is a generator and its consumer. ``run_epochs`` makes one pass over
the states of the aggregate supply recurrence (``monetary.run_macro``).
Each epoch opens or retires members, mints, runs the transfer mix, and
yields an ``EpochRecord``: the macro state (``n``, ``D``, ``R``), ``float(E)``,
``M_total``, and the members' gini, variance and max ratio. It returns the
final ledger state. Each epoch makes three checks, any of which raises
``InvariantViolation`` when it fails:

* the issuance rounding residue is at most half a poplet per participant;
* the balances, summed once after the transfer mix, equal exactly the
  poplets issued so far, ``sum over epochs of N_t * issued_t``; a transfer
  that creates or destroys a poplet, or a mint that credits other than it
  reports, fails this check;
* the ledger total ``poplets * E`` matches the recurrence's supply within
  the declared rounding-plus-float tolerance.

The balances are read once per epoch, from the ledger's position-indexed
``held`` list (see ``ledger``): an int64 array while ``poplets + N_t *
credit`` is below 2**63 and Python ints from there on, whose exact sum plus
``N_t * credit`` is the poplet check's total and whose first ``N_t`` entries
plus ``credit`` are the members' balances: a run keeps ``held`` in id order,
the order the accounts were opened, with the members first (see the ids below).
The int64 array is the run's image of ``held``, and ``_read_balances``
alone builds, patches, keeps and drops it: ``run_epochs`` passes each read
the image the previous read returned and the positions written since, the
ids between the two censuses and the senders and recipients the transfer
mix returns, and the read patches a copy of the image at those positions,
or builds it anew with ``np.fromiter`` when they are a quarter of the
entries or more; past 2**63 it drops it. An epoch thus copies its lists
and arrays whole but writes only the positions that change.

``run_scenario`` formats each record's cells once; every file that shows one
of its columns writes that string. Only after the last epoch does it write
``manifest.json``, ``epochs.csv``, ``final_state.json``, the files that
``STUDY_FILES`` maps each requested study to (``supply.csv``,
``inequality.csv``, ``exchange.csv`` with ``exchange_summary.json``,
``agent.csv``), and the optional long-format ``plot_data.csv``, and it
removes each other name of ``RUN_FILES`` that an earlier run left. Inequality
columns cover census members only; dormant holders still count toward
M_total. A member's value is ``float(balance) * float(E)`` while ``float(E)``
is a normal float and the poplet total is at most the largest float;
otherwise it is ``balance * E`` correctly rounded, finite because no value
exceeds the supply.

Random transfer mix (documented for reimplementation): each epoch after
minting, ``count_per_epoch`` transfers run over the list of all accounts,
members and dormant holders, in the ledger's order, which in a run is id
order. Per transfer, three draws: sender index ``below(A)``, recipient index
``below(A-1)`` skipping the sender (add 1 when the draw is >= the sender
index), then an amount ``below(cap + 1)`` where
``cap = balance * frac_num // frac_den`` in exact integer arithmetic from
the decimal ``max_fraction``. Zero-amount draws are no-ops but still
consume their draws; with fewer than two accounts the epoch consumes none.
Transfers apply in order, each seeing the balances the previous ones left.

An epoch's ``3 * count_per_epoch`` raw draws are one contiguous block of
the stream: if the generator enters the epoch in state ``s``, draw i (from
1) mixes the counter ``s + i*GAMMA mod 2**64`` (see ``rng``). The runner
takes the block as one array, which the generator may have computed epochs
ahead, and reduces the account indices in uint64; the order and meaning of
the draws are the ones above.

Account ids are ``p%08d``, and the census at epoch t is the accounts
``p00000000`` .. ``p(N_t - 1)``: a shrinking census makes its highest-numbered
members dormant, and a growing one takes the ids ``N_{t-1}`` .. ``N_t - 1``,
re-admitting each dormant holder among them and opening the rest. Ids are
therefore opened in increasing order, so id order is the order of opening,
and a run opens ``max(N_t)`` accounts. Validation rejects census paths whose
peak passes ``MAX_ACCOUNTS`` (10**8), and paths that leave the floats. It
also rejects more than ``MAX_EPOCHS`` (10**5) epochs and more than
``MAX_TRANSFERS_PER_EPOCH`` (10**6) transfers per epoch, numbers that do not
fit a float, a study listed twice in ``outputs``, and, last, a money supply
that can pass the largest float.
Every input file is read by ``read_json``, which turns any fault of the file
into one ``<path>: ...`` diagnostic.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import sys
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .agent import AgentProblem, effective_tax, optimal_out1
from .errors import ConfigError, InvariantViolation
from .exchange import LEVEL_FIELDS, ExchangeScenario, OvershootingResult, overshooting_experiment
# The epoch generator calls neither the single-metric functions nor ``transfer``,
# ``total_supply_popcoin_exact`` and ``interest_rate``; they stay attributes of
# this module only as the seams that perfbench/spans.py wraps.
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
    Balances,
    LedgerState,
    PolicyParams,
    _is_int,
    exact,
    genesis,
    mint_epoch_poplet,
    state_to_json,
    total_supply_popcoin_exact,  # noqa: F401
    transfer,  # noqa: F401
)
from .monetary import (
    MacroState,
    interest_rate,  # noqa: F401
    run_macro,
    steady_state_supply,
)
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

# Account ids are p%08d and a run opens the ids below its peak census, so below
# this many accounts their string order is their numeric order.
MAX_ACCOUNTS = 10**8
# Validation builds the census path, one entry per epoch, and the transfer mix
# draws its 3 * count_per_epoch numbers at once; these limits bound both.
MAX_EPOCHS = 10**5
MAX_TRANSFERS_PER_EPOCH = 10**6
# The member view's float path: int64 below a poplet total of 2**63, float64
# up to the largest float, and only while float(E) is a normal float.
_INT64_LIMIT, _MAX_FLOAT, _MIN_NORMAL = 2**63, int(sys.float_info.max), sys.float_info.min


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


def _level(value) -> str | None:
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

# ExchangeScenario's defaults are the symmetric baseline; its levels must be positive.
EXCHANGE_SCENARIO_FIELDS = tuple(
    Field(spec.name, _level if spec.name in LEVEL_FIELDS else _NUMBER, default=spec.default)
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

# An output selector: a study, which checks its own params.
SELECTOR_FIELDS = (
    Field("study", lambda v: None if v in STUDIES else f"be one of {', '.join(STUDIES)}; got {v!r}",
          required=True),
    Field("params", lambda params: None),
)

CONFIG_KEYS = ("policy", "epochs", "population", "seed", "poplet_scale", "transfers", "outputs")
_EPOCHS = _at_most(_NON_NEGATIVE_INTEGER, MAX_EPOCHS)
_SEED = _must(lambda v: v is None or _is_int(v) and -(2**63) <= v < 2**64, "be a 64-bit integer")


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


def _validate_census_path(population: dict, epochs: int, out: list[str]) -> list[int] | None:
    """The census path; reject one that leaves the floats or opens too many accounts."""
    try:
        path = census_path(population, epochs)
    except (OverflowError, ValueError):  # float overflow, round() of inf or nan
        out.append(f"population: the census path is not finite within {epochs} epochs")
        return None
    if max(path) > MAX_ACCOUNTS:  # the census at epoch t is the first N_t accounts
        out.append(
            f"population: the census path opens more than {MAX_ACCOUNTS} accounts, "
            "the most that 8-digit account ids support"
        )
    return path


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


def normalize_agent_input(doc) -> dict:
    """An ``agent`` input as an agent study's params, ``{demurrage_alpha, problems}``.

    The input is a bare problem list or such params; the rate defaults to 0.
    Raises ConfigError with every diagnostic.
    """
    if isinstance(doc, list):
        doc = {"problems": doc}
    elif not isinstance(doc, dict):
        raise ConfigError(["input: must be a problem list or an object with 'problems'"])
    out: list[str] = []
    params = _agent_params(doc, "", out)
    if out:
        raise ConfigError(out)
    return params


def _study(entry, where: str, policy: dict, out: list[str]) -> dict | None:
    """One normalised output selector (None when it is not one); the table
    checks its shape and study, and each study its params."""
    selector = _walk(entry, SELECTOR_FIELDS, where, out)
    study, params = selector.get("study"), selector.get("params")
    if study not in STUDIES:
        return None
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
    random transfers need after ``seed``, and, once every output entry is
    well-formed, each entry whose study an earlier entry selects.
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
    path = None
    if "epochs" in doc and _report(_EPOCHS, "epochs", epochs, out) and population:
        path = _validate_census_path(population, epochs, out)
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
    found = len(out)
    studies = [_study(entry, f"outputs[{i}]", policy, out) for i, entry in enumerate(outputs)]
    names = [entry["study"] for entry in studies] if len(out) == found else []
    for i, name in enumerate(names):
        if (first := names.index(name)) < i:
            out.append(f"outputs[{i}]: study {name!r} is already selected by outputs[{first}]")
    if not out:  # last, on a config that every other rule admits: from zero,
        # M_t / N_t = B * sum over k < t of (1 - alpha)^k < B * min(t, 1/alpha)
        alpha = policy["demurrage_alpha"]
        bound = float(policy["basic_income"]) * max(path)
        if bound * (min(epochs, 1 / alpha) if alpha else epochs) > sys.float_info.max:
            out.append(
                "policy: the money supply, up to B * max(N_t) * min(epochs, 1/alpha), "
                f"passes the largest float within {epochs} epochs"
            )
    return {
        "policy": policy,
        "epochs": epochs,
        "population": population,
        "seed": seed,
        "poplet_scale": poplet_scale,
        "transfers": transfers,
        "outputs": studies,
    }, out


def validate_config(doc) -> list[str]:
    """Return every diagnostic for a scenario config; empty means valid."""
    return _normalize(doc)[1]


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: its policy, and the config with defaults filled."""

    policy: PolicyParams
    normalized: dict


def parse_config(doc) -> ScenarioConfig:
    """Validate a raw config object and bind defaults; raises ConfigError."""
    normalized, diagnostics = _normalize(doc)
    if diagnostics:
        raise ConfigError(diagnostics)
    policy = normalized["policy"]
    return ScenarioConfig(PolicyParams(policy["basic_income"], policy["demurrage_alpha"]), normalized)


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


# --- the epoch generator -----------------------------------------------------


def _account_id(index: int) -> str:
    return f"p{index:08d}"


def _mix_transfers(state, rng: SplitMix64, count: int, frac: Fraction):
    """Apply one epoch's random transfer mix; see the module docstring.

    Equal to folding ``ledger.transfer`` over the drawn transfers with
    scalar ``rng.below`` draws, but the epoch's ``3 * count`` raw draws come
    from one ``rng.draws`` array, the account indices are reduced in uint64
    arrays, and the transfers move poplets inside one copy of the balances'
    ``held``, indexed by position, where a member's balance is its entry
    plus the common ``credit``. Only the amount draws become Python ints:
    their bound ``cap + 1`` can pass 64 bits. Returns the mixed state and
    the positions written, its senders and recipients, every entry of
    ``held`` that the mix may have changed.
    """
    balances = state.balances
    n = len(balances.held)
    if n < 2:
        return state, ()
    held, flags, credit = balances.held.copy(), balances.flags, balances.credit
    num, den = frac.numerator, frac.denominator
    draws = rng.draws(3 * count)
    # uint64 operands throughout: numpy 1.x promotes uint64 % int64 to float64
    senders = draws[0::3] % np.uint64(n)
    recipients = draws[1::3] % np.uint64(n - 1)
    # Skip the sender: add 1 when the draw is >= the sender index.
    recipients += recipients >= senders
    senders, recipients = senders.tolist(), recipients.tolist()
    for sender, recipient, amount_raw in zip(senders, recipients, draws[2::3].tolist()):
        entry = held[sender]
        poplets = entry + credit if flags[sender] else entry
        amount = amount_raw % (poplets * num // den + 1)
        if amount > 0:
            if amount > poplets:
                raise InvariantViolation(
                    f"transfer mix drew {Decimal(amount)} poplets from {balances.ids[sender]!r}, "
                    f"which holds {Decimal(poplets)}"
                )
            held[sender] = entry - amount
            held[recipient] += amount
    mixed = LedgerState(state.epoch, state.exchange_rate, balances._moved(held, credit))
    return mixed, senders + recipients


def _read_balances(balances: Balances, members: int, poplets: int, image, written):
    """The poplets ``balances`` hold, each member's balance, and the run's
    image of ``held`` for the next read, from one read of ``held``, whose
    first ``members`` entries are the members'.

    ``image`` is the int64 image of ``held`` that the previous read returned,
    or None, and ``written`` the positions written since that read, appended
    ones among them. While ``poplets + N * credit`` is below 2**63 the read
    sums the image: a copy of ``image`` patched at ``written``, or one built
    from ``held`` with ``np.fromiter`` when ``image`` is None or ``written``
    lists a quarter of the entries or more, where the patch costs about as
    much. Best of 9 ``timeit`` runs, 2-core Intel Xeon, Python 3.11, numpy
    2.4: 250 positions of 1,000 patch in 21 µs and 300 in 24 µs, against
    23 µs for ``np.fromiter``; 2,000 of 1,000 in 138 µs, and 2,500 of 10,000
    in 185 µs against 230 µs. Patching a copy rather than ``image`` in place
    keeps the benchmark's peak RSS: the in-place patch, which keeps one array
    for the whole run, raised it by 0.4 MB on ``wide_census``.

    The poplet check and the members' values then read the image, not
    ``held``: they see a fault in ``held`` only at a position in ``written``
    and rest on the earlier reads for the others. The image's sum cannot
    wrap: in a ledger that holds the ``poplets`` issued, a dormant holder's
    entry lies in [0, poplets] and a member's in [-credit, poplets], so the
    entries' magnitudes sum to at most that bound. Where a ledger that holds
    other than ``poplets`` wraps the sum, the sum is off by a multiple of
    2**64, so a fault goes unseen only if it is itself a nonzero multiple of
    2**64 poplets. Past the bound, or with an entry past int64, the balances
    are a list of ints and the image is dropped; should a shrinking census
    bring the total back under the bound, the next read builds it anew.
    """
    held, credit = balances.held, balances.credit
    common = members * credit
    try:
        if poplets + common >= _INT64_LIMIT:
            image = None
        elif image is None or 4 * len(written) >= len(held):
            image = np.fromiter(held, np.int64, len(held))
        elif written:
            image = np.concatenate((image, np.zeros(len(held) - len(image), np.int64)))
            image[written] = np.array([held[i] for i in written], np.int64)
    except OverflowError:  # an entry past int64, which only a faulty ledger holds
        image = None
    if image is not None:
        return int(image.sum()) + common, image[:members] + credit, image
    return sum(held) + common, [entry + credit for entry in held[:members]], None


def _member_values(balances, poplets: int, rate: Fraction, rate_float: float):
    """Each member's value as a float array; see the module docstring.

    ``balances`` are the members' balances from ``_read_balances``, an int64
    array or a list of ints, all non-negative and at most ``poplets``, the
    exact sum of every balance. Each converts to float64 half-even exactly as
    ``float(int)`` does, and up to the largest float none overflows. A normal
    ``float(E)`` keeps each nonzero value normal, so it carries a float's
    full precision.
    """
    if rate_float >= _MIN_NORMAL and poplets <= _MAX_FLOAT:
        return np.asarray(balances, float) * rate_float
    num, den = rate.numerator, rate.denominator
    return np.array([balance * num / den for balance in map(int, balances)])


class EpochRecord(NamedTuple):
    """One epoch: its macro state, ``float(E)``, ``M_total``, ``(gini, variance, max_ratio)``."""

    macro: MacroState
    rate: float
    total: float
    metrics: tuple[float, float, float]


def run_epochs(config: ScenarioConfig):
    """Yield one ``EpochRecord`` per epoch of ``config`` as the module docstring
    describes; return the final ledger state, the genesis state at 0 epochs."""
    normalized, params = config.normalized, config.policy
    path = census_path(normalized["population"], normalized["epochs"])
    peak = max(path)
    state = genesis(params, map(_account_id, range(path[0])), normalized["poplet_scale"])
    transfers = normalized["transfers"] or {"count_per_epoch": 0, "max_fraction": 0}
    transfer_count, frac = transfers["count_per_epoch"], exact(transfers["max_fraction"])
    rng = SplitMix64(normalized["seed"]) if transfer_count else None

    poplets = 0  # every poplet issued so far; genesis balances are zero
    image = None  # the int64 image of ``held`` the last read returned; see _read_balances
    for macro_state in run_macro(float(params.basic_income), float(params.demurrage_alpha), path):
        t, n_now, before = macro_state.epoch, macro_state.census, state.census
        # The ids between the two censuses join (a dormant holder in its place
        # in ``held``, a new id appended) or leave: ``held`` stays in id order
        # with the members first, and the mint writes no other position.
        moved = range(min(before, n_now), max(before, n_now))
        ids = map(_account_id, moved)
        joining, leaving = (ids, ()) if n_now > before else ((), ids)
        state, report = mint_epoch_poplet(state, params, n_now, joining, leaving)
        poplets += n_now * report.issued_per_participant
        if abs(report.rounding_residue_poplets) > (n_now + 1) // 2:
            raise InvariantViolation(
                f"epoch {t}: issuance rounding residue of {report.rounding_residue_poplets} "
                f"poplets exceeds half a poplet for each of {n_now} participants"
            )
        written = moved  # the positions written since the last read
        if rng is not None:
            state, mixed = _mix_transfers(state, rng, transfer_count, frac)
            written = [*moved, *mixed] if moved else mixed
        held, balances, image = _read_balances(state.balances, n_now, poplets, image, written)
        if held != poplets:
            raise InvariantViolation(
                f"epoch {t}: the ledger holds {Decimal(held)} poplets, "
                f"not the {Decimal(poplets)} issued"
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
        values = _member_values(balances, poplets, state.exchange_rate, rate_float)
        yield EpochRecord(macro_state, rate_float, total, epoch_metrics(values))
    return state


def run_scenario(config: ScenarioConfig, out_dir, include_plot_data: bool = False) -> dict:
    """Run ``config`` through ``run_epochs``; once the last epoch has passed its
    checks, write every output file into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_epochs(config)
    macros, cells = [], []  # each epoch's MacroState, and its EPOCH_COLUMNS formatted once
    while True:
        try:
            m, rate, total, metrics = next(records)
        except StopIteration as done:  # run_epochs returns the final ledger state
            state = done.value
            break
        macros.append(m)
        row = (m.epoch, m.census, m.census_growth, rate, total, m.demurrage, m.interest, *metrics)
        cells.append(list(map(_format_cell, row)))
    files = {
        "manifest.json": {"format_version": 1, "config": config.normalized},
        "epochs.csv": (EPOCH_COLUMNS, cells),
        "final_state.json": state_to_json(state) + "\n",
    }
    for entry in config.normalized["outputs"]:
        files.update(STUDY_FILES[entry["study"]](entry["params"], config.policy, macros, cells))
    if include_plot_data:
        files["plot_data.csv"] = (PLOT_COLUMNS, _long_rows(cells))
    for name in set(RUN_FILES) - files.keys():  # left by an earlier run
        (out / name).unlink(missing_ok=True)
    write_outputs(out, files)
    log.info("run complete: %d epochs, %d files in %s", len(cells), len(files), out)
    return {"out_dir": str(out), "files": sorted(files)}


def _long_rows(rows):
    """``(t, series, value)`` for each non-time cell of rows in EPOCH_COLUMNS order."""
    for row in rows:
        t = row[0]
        for column, value in zip(EPOCH_COLUMNS[1:], row[1:]):
            yield [t, column, value]


# --- the study table ---------------------------------------------------------
# The supply and inequality tables reuse the epoch cells t and M_total
# (row[4]), and gini, variance and max_ratio (row[7:]); they format only
# their own columns. The cap and the bounds depend on alpha, B and N_t alone,
# so each is computed and formatted once per distinct census.


def _supply_files(params: dict, policy: PolicyParams, macros: list, cells: list) -> dict:
    income, alpha = float(policy.basic_income), float(policy.demurrage_alpha)
    caps = {
        n: _format_cell(steady_state_supply(income, alpha, n) if alpha else math.inf)
        for n in {m.census for m in macros}
    }
    rows = (
        [row[0], row[4], _format_cell(m.supply), caps[m.census]] for row, m in zip(cells, macros)
    )
    return {"supply.csv": (SUPPLY_COLUMNS, rows)}


def _inequality_files(params: dict, policy: PolicyParams, macros: list, cells: list) -> dict:
    income, alpha = float(policy.basic_income), float(policy.demurrage_alpha)
    bounds = {
        n: [
            _format_cell(gini_bound(alpha, n)),
            _format_cell(variance_bound(alpha, income, n)),
            _format_cell(ratio_bound(alpha, n)),
        ]
        for n in {m.census for m in macros}
    }
    rows = ([row[0], *row[7:], *bounds[m.census]] for row, m in zip(cells, macros))
    return {"inequality.csv": (INEQUALITY_COLUMNS, rows)}


def _exchange_files(params: dict, *run) -> dict:
    """The overshooting experiment over the shock x elasticity grid, and its summary."""
    # int levels enter as floats, so a product past the floats is inf, which the rate checks catch
    base = ExchangeScenario(**{name: float(value) for name, value in params["scenario"].items()})
    rows, overshoots = [], []
    for eta in params["elasticities"]:
        scenario = replace(base, liquidity_elasticity=eta)
        for shock in params["fiat_supply_shocks"]:
            result = overshooting_experiment(scenario, shock)
            cells = (shock, eta, *(getattr(result, name) for name in EXCHANGE_COLUMNS[2:]))
            rows.append(list(map(_format_cell, cells)))
            if shock > 0:
                overshoots.append(result.overshoot)
    summary = {
        "cases": len(rows),
        "positive_shock_cases": len(overshoots),
        "all_positive_shocks_overshoot": all(o > 0 for o in overshoots),
        "min_overshoot": min(overshoots) if overshoots else None,
        "max_overshoot": max(overshoots) if overshoots else None,
    }
    return {"exchange.csv": (EXCHANGE_COLUMNS, rows), "exchange_summary.json": summary}


def _agent_files(params: dict, *run) -> dict:
    """Each problem's (in1, out1, savings, tax_rate) under the params' demurrage rate."""
    rows = []
    for doc in params["problems"]:
        doc = dict(doc)
        alpha = doc.pop("demurrage_alpha", params["demurrage_alpha"])
        problem = AgentProblem(**doc)
        spend = optimal_out1(problem)
        report = effective_tax(problem, alpha)
        cells = (problem.earned_income, spend, report.savings, report.tax_rate)
        rows.append(list(map(_format_cell, cells)))
    return {"agent.csv": (AGENT_COLUMNS, rows)}


# study -> (params[, policy, macros, cells]) -> {file name: (header, rows) or JSON document}
STUDY_FILES = {
    "supply": _supply_files,
    "inequality": _inequality_files,
    "exchange": _exchange_files,
    "agent": _agent_files,
}
STUDIES = tuple(STUDY_FILES)
# Every file a run can write; ``run_scenario`` removes those it does not write.
RUN_FILES = ("manifest.json", "epochs.csv", "final_state.json", "supply.csv", "inequality.csv",
             "exchange.csv", "exchange_summary.json", "agent.csv", "plot_data.csv")


# --- deterministic file writers ----------------------------------------------


def _format_cell(value) -> str:
    """One CSV cell: a float by its shortest round-trip ``repr``, an int by ``str``."""
    if isinstance(value, float):
        return repr(value + 0.0)  # folds -0.0 into 0.0
    return str(value)


def write_rows(handle, header: Sequence[str], rows) -> None:
    """Write a header and rows of ``_format_cell`` strings as CSV to an open
    text handle, file or stdout; each table formats its cells where it builds them.

    Every cell is a ``_format_cell`` string of an int or a float and every
    header a fixed column name, so none holds ``,``, ``"``, ``\\r`` or ``\\n``:
    joining the cells with commas writes the bytes ``csv.writer`` with
    ``lineterminator="\\n"`` would, with nothing to quote.
    """
    handle.writelines(",".join(row) + "\n" for row in chain([header], rows))


def write_outputs(out: Path, files: dict) -> list[str]:
    """Write each output, text, a JSON document (a dict) or a CSV table
    ``(header, rows)``, into the directory ``out`` under its name; return the names."""
    for name, output in files.items():
        if isinstance(output, str):
            _write_text(out / name, output)
        elif isinstance(output, dict):
            _write_json(out / name, output)
        else:
            _write_csv(out / name, *output)
    return list(files)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_rows(handle, header, rows)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
