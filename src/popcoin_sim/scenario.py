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
* the ledger total ``float(poplets * E)`` matches the recurrence's supply
  within ``max(N_t) * t * float(E)``, the issuance rounding carried so far,
  plus 1e-9 of the supply for the recurrence's float error.

The records arrive a census block at a time: a run of consecutive epochs
with the same census N and at most ``_BLOCK_VALUES`` (4,096) member values,
40 epochs at N = 100, 4 at N = 1,000, and one once N passes 2,048.
``_census_blocks`` walks the census path a block at a time. A block's first
epoch allocates one float array once its checks pass, each epoch writes its
member values into its own row, one ``inequality.block_metrics`` pass
measures the rows, the records are yielded in epoch order, and the array is
freed before the next block's is allocated. ``epoch_metrics`` is the one-row
block, and every record is bit for bit the one a run measuring each epoch
alone yields. A failing check raises at once, before its block is measured.
The gain therefore needs epochs that share a census: all of them on
``long_horizon`` (blocks of 40) and ``transfer_heavy`` (blocks of 4), none
on ``wide_census``, whose census changes every epoch and passes 4,096.

``float(E)`` and ``float(poplets * E)`` are correctly rounded; the ledger's
``Rate`` decides them from its bracket and builds the exact ratio only
where the bracket holds a float midpoint (see ``ledger``). ``run_scenario``
logs at debug how many decisions of the run needed the exact ratio.

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
entries or more; past 2**63 it drops it.

``run_epochs`` owns the lists of the one state it holds: it hands
``_mix_transfers`` only the state the mint just returned, and keeps neither
that state nor the one the mint read, so the mix moves the epoch's poplets
inside that state's ``held`` in place and returns only the positions it
wrote. For the same reason it calls ``mint_epoch_poplet`` with
``in_place=True``: a census change freezes the balances of the members who
leave, writes those who rejoin and appends the accounts it opens in the
state's own ``held``, ``flags`` and ``index``, and a fixed-census mint shares
them. An epoch thus never copies ``held``, and it writes only the positions
that change. Every other caller of ``ledger`` keeps its pure API.

``run_scenario`` writes each record as it arrives, and keeps none: its
floats are formatted once, and every table line that shows one of its
columns joins that string; the cells that depend on the census transition
alone (``N``, ``n``, ``D``, ``R``, the supply cap and the three bounds) are
formatted once per distinct ``(N_t, n_t)``. The epoch tables, ``epochs.csv``,
the ``supply.csv`` and ``inequality.csv`` of those two studies, and the
optional long-format ``plot_data.csv``, are written into a staging directory
that ``tempfile.mkdtemp`` makes inside the output directory, and after the
last epoch so are ``manifest.json``, ``final_state.json`` and the files that
``STUDY_FILES`` maps the exchange and agent studies to (``exchange.csv`` with
``exchange_summary.json``, ``agent.csv``). Only then does the run move
them all into the output directory with ``os.replace``, remove each other
name of ``RUN_FILES`` that an earlier run left, and remove the staging
directory. A run whose check or write fails leaves the output directory as
it was, or, when the run made it, removes it and every parent the run made
for it; a killed process can leave a staging directory behind, hidden as
``.popcoin-sim-*``. Inequality columns cover census members only; dormant
holders still count toward M_total. A member's value is ``float(balance) *
float(E)`` while ``float(E)`` is a normal float and the poplet total is at
most the largest float; otherwise it is ``balance * E`` correctly rounded,
decided like ``float(E)``, and finite because no value exceeds the supply.

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
1) mixes the counter ``s + i*GAMMA mod 2**64`` (see ``rng``). The account
count of epoch t is fixed in advance, ``A_t = max(N_0 .. N_t)``, so the run
reduces a chunk of epochs ahead (``_transfer_draws``): ``max(1, 4096 //
(3 * count_per_epoch))`` epochs, at most ``_CHUNK_DRAWS`` (4,096) draws
unless one epoch takes more, come from one ``rng.draws`` array, and one
uint64 pass reduces every sender and recipient index in it against its
epoch's ``A_t``; each epoch then hands its own draws to the mix. The order
and meaning of the draws are the ones above.

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
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack, suppress
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import accumulate, chain, islice, takewhile
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .agent import AgentProblem, effective_tax, optimal_out1
from .errors import ConfigError, InvariantViolation, _int_text, _is_int
from .exchange import LEVEL_FIELDS, ExchangeScenario, OvershootingResult, overshooting_experiment
# The epoch generator calls neither the single-metric functions nor ``transfer``,
# ``total_supply_popcoin_exact`` and ``interest_rate``; they stay attributes of
# this module only as the seams that perfbench/spans.py wraps.
from .inequality import (
    block_metrics,
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
    Rate,
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
# draws at most max(3 * count_per_epoch, _CHUNK_DRAWS) numbers at once; these
# limits bound both.
MAX_EPOCHS = 10**5
MAX_TRANSFERS_PER_EPOCH = 10**6
# The member view's float path: int64 below a poplet total of 2**63, float64
# up to the largest float, and only while float(E) is a normal float.
_INT64_LIMIT, _MAX_FLOAT, _MIN_NORMAL = 2**63, int(sys.float_info.max), sys.float_info.min
# A census block, the epochs whose member values one ``block_metrics`` pass
# measures, holds at most this many values, and at least one epoch.
_BLOCK_VALUES = 4096
# A chunk of transfer draws, the epochs whose draws one ``rng.draws`` array
# holds, takes at most this many draws, 32 KB, and at least one epoch.
_CHUNK_DRAWS = 4096


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
    raise ValueError(f"unknown population kind {_int_text(kind)}")


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
    return lambda value: None if ok(value) else f"{expect}, got {_int_text(value)}"


def _at_most(check, limit: int):
    """The domain of ``check`` up to ``limit``; a larger value is named apart."""
    return lambda value: check(value) or (
        f"be at most {limit}, got {_int_text(value)}" if value > limit else None
    )


def _reword(check, expect: str):
    """The domain of ``check``, with a diagnostic worded by ``expect``."""
    return lambda value: check(value) and f"{expect}, got {_int_text(value)}"


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
    Field("study",
          lambda v: None if v in STUDIES else f"be one of {', '.join(STUDIES)}; got {_int_text(v)}",
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
            out.append(unknown(key) if unknown else f"{label}: unknown key {_int_text(key)}")
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
        unknown=lambda key: f"population: unknown key {_int_text(key)} for kind {kind!r}",
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
        return f"{where}: unknown key {_int_text(key)}"

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
    out = [f"config: unknown key {_int_text(key)}" for key in doc if key not in CONFIG_KEYS]
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


_account_id = "p%08d".__mod__  # the id of the account at ``index``
_ID_SUFFIXES = tuple("%02d" % i for i in range(100))


def _account_ids(start: int, stop: int):
    """The ids of the accounts at ``start`` .. ``stop - 1``, as
    ``map(_account_id, range(start, stop))`` yields them, built a hundred to
    one formatted ``p%06d`` prefix."""
    if stop <= start:  # every epoch at a fixed census asks for none
        return iter(())
    hundreds = range(start // 100, -(-stop // 100))
    ids = chain.from_iterable(map(("p%06d" % h).__add__, _ID_SUFFIXES) for h in hundreds)
    return islice(ids, start % 100, start % 100 + stop - start)


def _transfer_draws(rng: SplitMix64, accounts, count: int):
    """Yield each epoch's transfer draws, ``(A, senders, recipients, amounts)``,
    for the account counts ``A`` that ``accounts`` gives, one per epoch.

    Each transfer's three draws are the ones the module docstring names, with
    the sender and recipient indices reduced and the amount draw raw: its
    bound ``cap + 1`` depends on the balances the mix reaches, and can pass
    64 bits. An epoch with fewer than two accounts draws nothing and yields
    empty lists. A chunk of ``_CHUNK_DRAWS // (3 * count)`` epochs, at least
    one, takes its draws from one ``rng.draws`` array, and one uint64 pass
    over it reduces every epoch's indices in place against that epoch's
    ``A`` and ``A - 1``; only the epoch being yielded becomes Python ints.
    """
    epochs = iter(accounts)
    chunk = max(1, _CHUNK_DRAWS // (3 * count or 1))
    while bounds := list(islice(epochs, chunk)):
        drawing = [n for n in bounds if n >= 2]
        raw = rng.draws(3 * count * len(drawing)).reshape(len(drawing), count, 3)
        senders, recipients = raw[:, :, 0], raw[:, :, 1]
        # uint64 operands throughout: numpy 1.x promotes uint64 % int64 to float64
        moduli = np.array(drawing, np.uint64)[:, None]
        senders %= moduli
        recipients %= moduli - np.uint64(1)
        recipients += recipients >= senders  # skip the sender: add 1 at or above its index
        rows = iter(raw)
        for n in bounds:
            yield (n, *next(rows).T.tolist()) if n >= 2 else (n, [], [], [])


def _mix_transfers(state, draws, count: int, frac: Fraction):
    """Apply one epoch's random transfer mix; see the module docstring.

    ``draws`` is the epoch's ``(A, senders, recipients, amounts)`` from
    ``_transfer_draws``, and ``count`` its number of transfers, which the
    mix does not read: perfbench/spans.py counts the transfers a run
    attempts by it. Equal to folding ``ledger.transfer`` over the drawn
    transfers, but the transfers move poplets inside ``state.balances.held``
    itself, in place, indexed by position, where a member's balance is its
    entry plus the common ``credit``: the caller owns that list, and no
    state it keeps may share it (``run_epochs`` passes the state the mint
    just returned and keeps neither that state nor the one the mint read).
    Raises ``InvariantViolation`` when the ledger holds other than the ``A``
    accounts the indices were reduced for, or when ``frac`` lies outside
    (0, 1]. Returns the positions written, the senders and the recipients:
    every entry of ``held`` the mix may have changed.

    The fraction is checked once, up front, and no transfer checks its
    amount: with ``0 < num <= den`` the bound ``cap + 1`` is positive only
    for a balance ``poplets >= 0``, and then ``amount <= cap <= poplets``.
    A zero amount writes its two entries back unchanged. For integers,
    ``(entry + credit) * num // den + 1 == (entry * num + credit * num +
    den) // den``, so the bound of a transfer is ``(entry * num + offset) //
    den``, where ``offset`` is ``credit * num + den`` for a member, computed
    once per epoch, and ``den`` for a dormant holder.

    There are three loops. A ledger with a dormant holder reads each
    sender's flag. A ledger whose every account is a member, as at every
    fixed census, reads no flag; where ``frac`` is ``1/2**k`` its bound is
    ``(entry + credit + 2**k) >> k``, one add and one shift, since ``>>``
    floors exactly as ``// 2**k`` does, negative values included, and every
    other fraction takes the multiply and the division.
    """
    balances = state.balances
    accounts, senders, recipients, amounts = draws
    if len(balances.held) != accounts:
        raise InvariantViolation(
            f"transfer mix drew account indices for {accounts} accounts, "
            f"but the ledger holds {len(balances.held)}"
        )
    num, den = frac.numerator, frac.denominator
    if not 0 < num <= den:
        raise InvariantViolation(f"transfer mix fraction {frac} lies outside (0, 1]")
    held, flags = balances.held, balances.flags
    member = balances.credit * num + den
    if balances.count != accounts:  # a dormant holder, whose bound has no credit
        for sender, recipient, amount_raw in zip(senders, recipients, amounts):
            entry = held[sender]
            amount = amount_raw % ((entry * num + (member if flags[sender] else den)) // den)
            held[sender] = entry - amount
            held[recipient] += amount
    elif num == 1 and not den & (den - 1):  # frac is 1/2**shift
        shift = den.bit_length() - 1
        for sender, recipient, amount_raw in zip(senders, recipients, amounts):
            entry = held[sender]
            amount = amount_raw % ((entry + member) >> shift)
            held[sender] = entry - amount
            held[recipient] += amount
    else:
        for sender, recipient, amount_raw in zip(senders, recipients, amounts):
            entry = held[sender]
            amount = amount_raw % ((entry * num + member) // den)
            held[sender] = entry - amount
            held[recipient] += amount
    return senders + recipients


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
            image[written] = np.array(list(map(held.__getitem__, written)), np.int64)
    except OverflowError:  # an entry past int64, which only a faulty ledger holds
        image = None
    if image is not None:
        return int(image.sum()) + common, image[:members] + credit, image
    return sum(held) + common, [entry + credit for entry in held[:members]], None


def _member_values(balances, poplets: int, rate: Rate, rate_float: float, out: np.ndarray):
    """Write each member's value into the float row ``out`` and return it;
    see the module docstring.

    ``balances`` are the members' balances from ``_read_balances``, an int64
    array or a list of ints, all non-negative and at most ``poplets``, the
    exact sum of every balance. Each converts to float64 half-even exactly as
    ``float(int)`` does, and up to the largest float none overflows. A normal
    ``float(E)`` keeps each nonzero value normal, so it carries a float's
    full precision. Otherwise each value is ``rate.float_times(balance)``.
    """
    if rate_float >= _MIN_NORMAL and poplets <= _MAX_FLOAT:
        out[:] = balances
        out *= rate_float
    else:
        out[:] = [rate.float_times(balance) for balance in map(int, balances)]
    return out


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
    state = genesis(params, _account_ids(0, path[0]), normalized["poplet_scale"])
    transfers = normalized["transfers"] or {"count_per_epoch": 0, "max_fraction": 0}
    transfer_count, frac = transfers["count_per_epoch"], exact(transfers["max_fraction"])
    rng = SplitMix64(normalized["seed"]) if transfer_count else None
    # epoch t's transfers draw over every account opened so far, max(N_0 .. N_t)
    draws = rng and _transfer_draws(rng, islice(accumulate(path, max), 1, None), transfer_count)

    poplets = 0  # every poplet issued so far; genesis balances are zero
    image = None  # the int64 image of ``held`` the last read returned; see _read_balances
    macro_states = iter(run_macro(float(params.basic_income), float(params.demurrage_alpha), path))
    for _, length in _census_blocks(path):
        block = []  # (macro state, float(E), M_total) of each epoch
        for macro_state in islice(macro_states, length):
            t, n_now, before = macro_state.epoch, macro_state.census, state.census
            # The ids between the two censuses join (a dormant holder in its place
            # in ``held``, a new id appended) or leave: ``held`` stays in id order
            # with the members first, and the mint writes no other position.
            moved = range(min(before, n_now), max(before, n_now))
            ids = _account_ids(moved.start, moved.stop)
            joining, leaving = (ids, ()) if n_now > before else ((), ids)
            state, report = mint_epoch_poplet(state, params, n_now, joining, leaving, in_place=True)
            poplets += n_now * report.issued_per_participant
            if abs(report.rounding_residue_poplets) > (n_now + 1) // 2:
                raise InvariantViolation(
                    f"epoch {t}: issuance rounding residue of {report.rounding_residue_poplets} "
                    f"poplets exceeds half a poplet for each of {n_now} participants"
                )
            written = moved  # the positions written since the last read
            if rng is not None:
                mixed = _mix_transfers(state, next(draws), transfer_count, frac)
                written = [*moved, *mixed] if moved else mixed
            held, balances, image = _read_balances(state.balances, n_now, poplets, image, written)
            if held != poplets:
                raise InvariantViolation(
                    f"epoch {t}: the ledger holds {_int_text(held)} poplets, "
                    f"not the {_int_text(poplets)} issued"
                )

            rate = state.rate
            rate_float, total = rate.float_times(), rate.float_times(poplets)
            # Issuance rounding moves each epoch's total by at most half a poplet per
            # participant, carried forward as poplets; the rest is float error in the
            # recurrence itself.
            tolerance = peak * t * rate_float + 1e-9 * max(abs(macro_state.supply), 1.0)
            if abs(total - macro_state.supply) > tolerance:
                raise InvariantViolation(
                    f"epoch {t}: ledger supply {total} deviates from "
                    f"recurrence {macro_state.supply} by more than {tolerance}"
                )
            if not block:  # here, not before the mint: there it raised wide_census peak RSS
                rows = np.empty((length, n_now))
            _member_values(balances, poplets, rate, rate_float, rows[len(block)])
            block.append((macro_state, rate_float, total))
        for (macro_state, rate_float, total), metrics in zip(block, block_metrics(rows)):
            yield EpochRecord(macro_state, rate_float, total, metrics)
        del rows  # free the block before the next one is allocated
    return state


def _census_blocks(path: list[int]):
    """Yield each census block of epochs 1 .. T of ``path`` as ``(start, length)``,
    in order: the epochs from ``start`` on that share its census, at most
    ``_BLOCK_VALUES`` values, at least one."""
    start = 1
    while start < len(path):
        census, end = path[start], min(len(path), start + max(1, _BLOCK_VALUES // path[start]))
        length = next((k for k in range(start + 1, end) if path[k] != census), end) - start
        yield start, length
        start += length


def run_scenario(config: ScenarioConfig, out_dir, include_plot_data: bool = False) -> dict:
    """Run ``config`` through ``run_epochs``, staging each record's table lines
    in ``out_dir`` as it arrives and every other output once the studies pass,
    then publish them all. A failed check or write leaves ``out_dir`` as it
    was, and removes it and the parents the run made for it."""
    out = Path(out_dir)
    made = list(takewhile(lambda directory: not directory.exists(), (out, *out.parents)))
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = _stage_and_publish(config, out, include_plot_data)
    except BaseException:
        for directory in made:  # innermost first; each is empty unless someone else wrote there
            with suppress(OSError):
                directory.rmdir()
        raise
    epochs = config.normalized["epochs"]
    log.info("run complete: %d epochs, %d files in %s", epochs, len(written), out)
    return {"out_dir": str(out), "files": sorted(written)}


def _stage_and_publish(config: ScenarioConfig, out: Path, include_plot_data: bool) -> list[str]:
    """``run_scenario`` in the directory ``out``, which exists; return the names written."""
    studies = [entry["study"] for entry in config.normalized["outputs"]]
    streamed = {
        name: header
        for name, header, wanted in (
            ("epochs.csv", EPOCH_COLUMNS, True),
            ("supply.csv", SUPPLY_COLUMNS, "supply" in studies),
            ("inequality.csv", INEQUALITY_COLUMNS, "inequality" in studies),
            ("plot_data.csv", PLOT_COLUMNS, include_plot_data),
        )
        if wanted
    }
    staging = Path(tempfile.mkdtemp(prefix=".popcoin-sim-", dir=out))
    try:
        with ExitStack() as stack:
            tables = {}
            for name, header in streamed.items():
                path = staging / name
                handle = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
                handle.write(",".join(header) + "\n")
                tables[name] = handle.write
            state = _write_records(run_epochs(config), config.policy, tables)
        files = {
            "manifest.json": {"format_version": 1, "config": config.normalized},
            "final_state.json": state_to_json(state) + "\n",
        }
        for entry in config.normalized["outputs"]:
            if entry["study"] in STUDY_FILES:
                files.update(STUDY_FILES[entry["study"]](entry["params"]))
        written = [*streamed, *write_outputs(staging, files)]
        for name in written:
            os.replace(staging / name, out / name)
        for name in set(RUN_FILES).difference(written):  # left by an earlier run
            (out / name).unlink(missing_ok=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    log.debug("exact fallbacks: %d", state.rate.fallbacks.total())
    return written


def _write_records(records, policy: PolicyParams, tables: dict) -> LedgerState:
    """Write each ``EpochRecord`` of ``records`` as the lines of every table in
    ``tables``, a file name and its handle's ``write``, as the record arrives;
    return the final ledger state.

    A record's floats are formatted once, as ``_format_cell`` does, and its
    epoch by ``str``; every line that shows a column joins that string. The
    cells of a census transition ``(N_t, n_t)``, ``N``, ``n``, ``D``, ``R``,
    the supply cap and the three bounds, are formatted once per distinct
    transition, keyed by the growth as well: a degrowth path can reach one
    census twice, shrinking and then flat.
    """
    epochs = tables["epochs.csv"]
    supply, inequality, plot = map(tables.get, ("supply.csv", "inequality.csv", "plot_data.csv"))
    income, alpha = float(policy.basic_income), float(policy.demurrage_alpha)
    transitions = {}  # (N_t, n_t) -> the cells of _census_cells
    while True:
        try:
            m, rate, total, (gini_value, variance_value, ratio) = next(records)
        except StopIteration as done:  # run_epochs returns the final ledger state
            return done.value
        key = (m.census, m.census_growth)
        cells = transitions.get(key)
        if cells is None:
            cells = transitions[key] = _census_cells(
                m, income, alpha, supply is not None, inequality is not None
            )
        census, minted, cap, bounds, plot_n, plot_growth, plot_d, plot_r = cells
        t, e, m_total = str(m.epoch), repr(rate + 0.0), repr(total + 0.0)
        g, v, r = repr(gini_value + 0.0), repr(variance_value + 0.0), repr(ratio + 0.0)
        epochs(f"{t},{census},{e},{m_total},{minted},{g},{v},{r}\n")
        if supply:
            supply(f"{t},{m_total},{repr(m.supply + 0.0)},{cap}\n")
        if inequality:
            inequality(f"{t},{g},{v},{r},{bounds}\n")
        if plot:
            plot(
                f"{t}{plot_n}{t}{plot_growth}{t},E,{e}\n{t},M_total,{m_total}\n{t}{plot_d}"
                f"{t}{plot_r}{t},gini,{g}\n{t},variance,{v}\n{t},max_ratio,{r}\n"
            )


def _census_cells(
    m: MacroState, income: float, alpha: float, supply: bool, inequality: bool
) -> tuple:
    """The cells of ``m``'s census transition as ``_write_records`` joins them:
    ``N,n`` and ``D,R`` of the epoch line, the supply cap and the joined
    bounds when their study runs, and the four ``plot_data`` line ends."""
    census = m.census
    n, growth, minted, interest = map(
        _format_cell, (census, m.census_growth, m.demurrage, m.interest)
    )
    cap = bounds = None
    if supply:
        cap = _format_cell(steady_state_supply(income, alpha, census) if alpha else math.inf)
    if inequality:
        values = (
            gini_bound(alpha, census),
            variance_bound(alpha, income, census),
            ratio_bound(alpha, census),
        )
        bounds = ",".join(map(_format_cell, values))
    return (
        f"{n},{growth}",
        f"{minted},{interest}",
        cap,
        bounds,
        f",N,{n}\n",
        f",n,{growth}\n",
        f",D,{minted}\n",
        f",R,{interest}\n",
    )


# --- the study table ---------------------------------------------------------
# The supply and inequality studies are tables of the epoch records, which
# ``run_scenario`` writes as the records arrive (see ``_write_records``): they
# reuse the epoch cells t, M_total, gini, variance and max_ratio as formatted
# once, and their cap and bounds, which depend on alpha, B and N_t alone, are
# formatted once per census transition. The exchange and agent studies read
# only their params; ``STUDY_FILES`` maps each to its files, which the
# ``exchange`` and ``agent`` subcommands also write.


def _exchange_files(params: dict) -> dict:
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


def _agent_files(params: dict) -> dict:
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


# study -> params -> {file name: (header, rows) or JSON document}
STUDY_FILES = {"exchange": _exchange_files, "agent": _agent_files}
# every study, in the order the diagnostics name them
STUDIES = ("supply", "inequality", *STUDY_FILES)
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
