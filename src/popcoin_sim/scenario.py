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
toward M_total. Every run cross-checks the ledger total against the
aggregate supply recurrence and fails loudly on disagreement beyond the
declared rounding-plus-float tolerance, and checks each epoch's issuance
rounding residue against the half-poplet-per-participant bound.

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
floats.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .agent import AgentProblem, effective_tax, optimal_out1
from .errors import ConfigError, InvariantViolation
from .exchange import ExchangeScenario, overshooting_experiment
# The epoch loop calls neither the single-metric functions nor ``transfer``
# and ``total_supply_popcoin_exact``; they are its oracles and stay
# patchable attributes of this module.
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
    LedgerState,
    PolicyParams,
    exact,
    genesis,
    mint_epoch_poplet,
    state_to_json,
    total_supply_popcoin_exact,  # noqa: F401
    transfer,  # noqa: F401
)
from .monetary import interest_rate, run_macro
from .rng import SplitMix64

log = logging.getLogger("popcoin_sim.scenario")

EPOCH_COLUMNS = ["t", "N", "n", "E", "M_total", "D", "R", "gini", "variance", "max_ratio"]

POPULATION_KINDS = ("fixed", "exponential", "logistic", "step_shock", "degrowth")

DEFAULT_POPLET_SCALE = 10**8
# Account ids are p%08d, created in increasing order; below this many accounts
# their creation order is also their sorted order, which the epoch loop relies on.
MAX_ACCOUNTS = 10**8
DEFAULT_FIAT_SHOCKS = [0.0, 0.01, 0.05, 0.1, 0.25]
DEFAULT_ELASTICITIES = [0.25, 0.5, 1.0, 2.0, 4.0]

# Symmetric two-economy baseline: parity anchor, zero rates on both sides.
DEFAULT_EXCHANGE_FIELDS = {
    "money_supply_pop": 1.0,
    "money_supply_fiat": 1.0,
    "liquidity_pop": 1.0,
    "liquidity_fiat": 1.0,
    "income_pop": 1.0,
    "income_fiat": 1.0,
    "sticky_price_pop": 1.0,
    "sticky_price_fiat": 1.0,
    "liquidity_elasticity": 1.0,
    "supply_growth_pop": 0.0,
    "supply_growth_fiat": 0.0,
    "income_growth_pop": 0.0,
    "income_growth_fiat": 0.0,
}

_AGENT_PROBLEM_KEYS = {
    "basic_income",
    "earned_income",
    "interest_rate",
    "price_1",
    "price_2",
    "allow_borrowing",
    "demurrage_alpha",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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


# --- config validation -------------------------------------------------------


def _validate_census_path(population: dict, epochs: int, out: list[str]) -> None:
    """Reject census paths that leave the floats or open too many accounts."""
    if population["kind"] == "fixed":  # constant; skip building the list
        path = [population["N"]]
    else:
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


def _validate_policy(policy, out: list[str]) -> None:
    if not isinstance(policy, dict):
        out.append("policy: must be an object")
        return
    for key in policy:
        if key not in ("basic_income", "demurrage_alpha", "epochs_per_year"):
            out.append(f"policy: unknown key {key!r}")
    income = policy.get("basic_income")
    if not _is_number(income) or income <= 0:
        out.append(f"policy.basic_income: must be a positive number, got {income!r}")
    alpha = policy.get("demurrage_alpha")
    if not _is_number(alpha) or not 0 <= alpha < 1:
        out.append(f"policy.demurrage_alpha: must lie in [0, 1), got {alpha!r}")
    per_year = policy.get("epochs_per_year", 1)
    if not _is_int(per_year) or per_year < 1:
        out.append(f"policy.epochs_per_year: must be a positive integer, got {per_year!r}")


def _validate_population(population, out: list[str]) -> None:
    if not isinstance(population, dict):
        out.append("population: must be an object")
        return
    kind = population.get("kind")
    if kind not in POPULATION_KINDS:
        out.append(f"population.kind: must be one of {POPULATION_KINDS}, got {kind!r}")
        return
    required = {
        "fixed": {"N"},
        "exponential": {"N0", "n"},
        "degrowth": {"N0", "n"},
        "logistic": {"N0", "K", "rate"},
        "step_shock": {"N0", "factor", "at_epoch"},
    }[kind]
    for key in population:
        if key != "kind" and key not in required:
            out.append(f"population: unknown key {key!r} for kind {kind!r}")
    for key in required:
        if key not in population:
            out.append(f"population.{key}: required for kind {kind!r}")
    def num(key):
        return population.get(key) if _is_number(population.get(key)) else None

    if "N" in required and (not _is_int(population.get("N")) or population.get("N", 0) < 1):
        out.append(f"population.N: must be a positive integer, got {population.get('N')!r}")
    if "N0" in required and (not _is_int(population.get("N0")) or population.get("N0", 0) < 1):
        out.append(f"population.N0: must be a positive integer, got {population.get('N0')!r}")
    if "n" in required:
        growth = population.get("n")
        if not _is_number(growth) or growth <= -1:
            out.append(f"population.n: must be a number above -1, got {growth!r}")
        elif kind == "degrowth" and growth >= 0:
            out.append(f"population.n: degrowth requires n < 0, got {growth!r}")
    if "K" in required and (num("K") is None or num("K") < 1):
        out.append(f"population.K: must be a number >= 1, got {population.get('K')!r}")
    if "rate" in required and (num("rate") is None or num("rate") <= 0):
        out.append(f"population.rate: must be a positive number, got {population.get('rate')!r}")
    if "factor" in required and (num("factor") is None or num("factor") <= 0):
        out.append(f"population.factor: must be a positive number, got {population.get('factor')!r}")
    if "at_epoch" in required and (
        not _is_int(population.get("at_epoch")) or population.get("at_epoch", -1) < 1
    ):
        out.append(
            f"population.at_epoch: must be an integer >= 1, got {population.get('at_epoch')!r}"
        )


def _validate_exchange_params(params, where: str, out: list[str]) -> None:
    if not isinstance(params, dict):
        out.append(f"{where}: params must be an object")
        return
    for key in params:
        if key in ("pop_supply_shocks", "pop_supply_shock"):
            out.append(
                f"{where}.{key}: the policy currency's supply is census-determined "
                "and cannot be shocked; only fiat_supply_shocks is supported"
            )
        elif key not in ("scenario", "fiat_supply_shocks", "elasticities"):
            out.append(f"{where}: unknown key {key!r}")
    scenario = params.get("scenario", {})
    if not isinstance(scenario, dict):
        out.append(f"{where}.scenario: must be an object")
    else:
        growth_keys = {
            "supply_growth_pop",
            "supply_growth_fiat",
            "income_growth_pop",
            "income_growth_fiat",
        }
        for key, value in scenario.items():
            if key not in DEFAULT_EXCHANGE_FIELDS:
                out.append(f"{where}.scenario: unknown key {key!r}")
            elif not _is_number(value):
                out.append(f"{where}.scenario.{key}: must be a number, got {value!r}")
            elif key not in growth_keys and value <= 0:
                out.append(f"{where}.scenario.{key}: must be positive, got {value!r}")
    shocks = params.get("fiat_supply_shocks", DEFAULT_FIAT_SHOCKS)
    if not isinstance(shocks, list) or not shocks or not all(
        _is_number(s) and s >= 0 for s in shocks
    ):
        out.append(f"{where}.fiat_supply_shocks: must be a non-empty list of numbers >= 0")
    elasticities = params.get("elasticities", DEFAULT_ELASTICITIES)
    if not isinstance(elasticities, list) or not elasticities or not all(
        _is_number(e) and e > 0 for e in elasticities
    ):
        out.append(f"{where}.elasticities: must be a non-empty list of positive numbers")


def _validate_agent_params(params, where: str, out: list[str]) -> None:
    if not isinstance(params, dict):
        out.append(f"{where}: params must be an object")
        return
    for key in params:
        if key not in ("problems", "demurrage_alpha"):
            out.append(f"{where}: unknown key {key!r}")
    alpha = params.get("demurrage_alpha")
    if alpha is not None and (not _is_number(alpha) or not 0 <= alpha < 1):
        out.append(f"{where}.demurrage_alpha: must lie in [0, 1), got {alpha!r}")
    problems = params.get("problems")
    if not isinstance(problems, list) or not problems:
        out.append(f"{where}.problems: must be a non-empty list")
        return
    for i, problem in enumerate(problems):
        validate_agent_problem(problem, f"{where}.problems[{i}]", out)


def validate_agent_problem(problem, where: str, out: list[str]) -> None:
    """Append diagnostics for one agent-problem object to ``out``."""
    if not isinstance(problem, dict):
        out.append(f"{where}: must be an object")
        return
    for key in problem:
        if key not in _AGENT_PROBLEM_KEYS:
            out.append(f"{where}: unknown key {key!r}")
    checks = [
        ("basic_income", lambda v: _is_number(v) and v >= 0, "a number >= 0", True),
        ("earned_income", lambda v: _is_number(v) and v >= 0, "a number >= 0", False),
        ("interest_rate", lambda v: _is_number(v) and v > -1, "a number above -1", False),
        ("price_1", lambda v: _is_number(v) and v > 0, "a positive number", False),
        ("price_2", lambda v: _is_number(v) and v > 0, "a positive number", False),
        ("allow_borrowing", lambda v: isinstance(v, bool), "a boolean", False),
        ("demurrage_alpha", lambda v: _is_number(v) and 0 <= v < 1, "in [0, 1)", False),
    ]
    for key, ok, expect, required in checks:
        if key in problem:
            if not ok(problem[key]):
                out.append(f"{where}.{key}: must be {expect}, got {problem[key]!r}")
        elif required:
            out.append(f"{where}.{key}: required")


def validate_config(doc) -> list[str]:
    """Return every diagnostic for a scenario config; empty means valid."""
    out: list[str] = []
    if not isinstance(doc, dict):
        return ["config: must be a JSON object"]
    allowed = {"policy", "epochs", "population", "seed", "poplet_scale", "transfers", "outputs"}
    for key in doc:
        if key not in allowed:
            out.append(f"config: unknown key {key!r}")
    for key in ("policy", "epochs", "population"):
        if key not in doc:
            out.append(f"config: missing required key {key!r}")
    if "policy" in doc:
        _validate_policy(doc["policy"], out)
    population_ok = False
    if "population" in doc:
        found = len(out)
        _validate_population(doc["population"], out)
        population_ok = len(out) == found
    epochs = doc.get("epochs")
    if "epochs" in doc and (not _is_int(epochs) or epochs < 0):
        out.append(f"epochs: must be a non-negative integer, got {epochs!r}")
    elif "epochs" in doc and population_ok:
        _validate_census_path(doc["population"], epochs, out)

    scale = doc.get("poplet_scale", DEFAULT_POPLET_SCALE)
    if not _is_int(scale) or scale < 1:
        out.append(f"poplet_scale: must be a positive integer, got {scale!r}")

    transfers = doc.get("transfers")
    transfers_active = False
    if transfers is not None:
        if not isinstance(transfers, dict):
            out.append("transfers: must be an object")
        else:
            for key in transfers:
                if key not in ("count_per_epoch", "max_fraction"):
                    out.append(f"transfers: unknown key {key!r}")
            count = transfers.get("count_per_epoch")
            if not _is_int(count) or count < 0:
                out.append(
                    f"transfers.count_per_epoch: must be a non-negative integer, got {count!r}"
                )
            else:
                transfers_active = count > 0
            frac = transfers.get("max_fraction")
            if not _is_number(frac) or not 0 < frac <= 1:
                out.append(f"transfers.max_fraction: must lie in (0, 1], got {frac!r}")

    seed = doc.get("seed")
    if seed is not None and (not _is_int(seed) or not -(2**63) <= seed < 2**64):
        out.append(f"seed: must be a 64-bit integer, got {seed!r}")
    if transfers_active and seed is None:
        out.append("seed: required when random transfers are enabled")

    outputs = doc.get("outputs", [])
    if not isinstance(outputs, list):
        out.append("outputs: must be a list of study selectors")
        outputs = []
    for i, entry in enumerate(outputs):
        where = f"outputs[{i}]"
        if not isinstance(entry, dict):
            out.append(f"{where}: must be an object")
            continue
        for key in entry:
            if key not in ("study", "params"):
                out.append(f"{where}: unknown key {key!r}")
        study = entry.get("study")
        if study not in ("supply", "inequality", "exchange", "agent"):
            out.append(
                f"{where}.study: must be one of supply, inequality, exchange, agent; got {study!r}"
            )
            continue
        params = entry.get("params")
        if study in ("supply", "inequality"):
            if params not in (None, {}):
                out.append(f"{where}: study {study!r} takes no params")
        elif study == "exchange":
            _validate_exchange_params(params if params is not None else {}, where, out)
        elif study == "agent":
            _validate_agent_params(params if params is not None else {}, where, out)
    return out


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
    diagnostics = validate_config(doc)
    if diagnostics:
        raise ConfigError(diagnostics)
    policy_doc = doc["policy"]
    policy = PolicyParams(
        basic_income=exact(policy_doc["basic_income"]),
        demurrage_alpha=exact(policy_doc["demurrage_alpha"]),
        epochs_per_year=policy_doc.get("epochs_per_year", 1),
    )
    transfers = doc.get("transfers")
    if transfers is not None:
        transfers = {
            "count_per_epoch": transfers["count_per_epoch"],
            "max_fraction": transfers["max_fraction"],
        }
    outputs = []
    for entry in doc.get("outputs", []):
        study = entry["study"]
        if study in ("supply", "inequality"):
            outputs.append({"study": study, "params": {}})
        elif study == "exchange":
            params = entry.get("params") or {}
            scenario = dict(DEFAULT_EXCHANGE_FIELDS)
            scenario.update(params.get("scenario", {}))
            outputs.append(
                {
                    "study": "exchange",
                    "params": {
                        "scenario": scenario,
                        "fiat_supply_shocks": list(
                            params.get("fiat_supply_shocks", DEFAULT_FIAT_SHOCKS)
                        ),
                        "elasticities": list(
                            params.get("elasticities", DEFAULT_ELASTICITIES)
                        ),
                    },
                }
            )
        else:
            params = entry.get("params") or {}
            outputs.append(
                {
                    "study": "agent",
                    "params": {
                        "demurrage_alpha": params.get(
                            "demurrage_alpha", policy_doc["demurrage_alpha"]
                        ),
                        "problems": [dict(p) for p in params["problems"]],
                    },
                }
            )
    normalized = {
        "policy": {
            "basic_income": policy_doc["basic_income"],
            "demurrage_alpha": policy_doc["demurrage_alpha"],
            "epochs_per_year": policy_doc.get("epochs_per_year", 1),
        },
        "epochs": doc["epochs"],
        "population": dict(doc["population"]),
        "seed": doc.get("seed"),
        "poplet_scale": doc.get("poplet_scale", DEFAULT_POPLET_SCALE),
        "transfers": transfers,
        "outputs": outputs,
    }
    return ScenarioConfig(
        policy=policy,
        epochs=doc["epochs"],
        population=dict(doc["population"]),
        seed=doc.get("seed"),
        poplet_scale=doc.get("poplet_scale", DEFAULT_POPLET_SCALE),
        transfers=transfers,
        outputs=tuple(outputs),
        normalized=normalized,
    )


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError([f"config: not valid JSON ({err})"]) from None
    return parse_config(doc)


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
    if sum(balances.values()) != sum(state.balances.values()):
        raise InvariantViolation(f"epoch {state.epoch}: the transfer mix changed the poplet total")
    return LedgerState(
        epoch=state.epoch,
        exchange_rate=state.exchange_rate,
        balances=balances,
        participants=state.participants,
        poplet_scale=state.poplet_scale,
    )


def run_scenario(config: ScenarioConfig, out_dir, include_plot_data: bool = False) -> dict:
    """Replay the census path through the ledger and write all output files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = census_path(config.population, config.epochs)
    params = config.policy
    alpha = float(params.demurrage_alpha)
    income = float(params.basic_income)

    # Census members in sorted order, kept without sorting: ids are created in
    # increasing order and removals take the highest ids, so growth appends
    # and shrinkage truncates.
    members = [_account_id(i) for i in range(path[0])]
    state = genesis(params, members, config.poplet_scale)
    next_id = path[0]
    rng = None
    frac = Fraction(0)
    transfer_count = 0
    if config.transfers and config.transfers["count_per_epoch"] > 0:
        rng = SplitMix64(config.seed)
        frac = exact(config.transfers["max_fraction"])
        transfer_count = config.transfers["count_per_epoch"]

    rows: list[dict] = []
    ledger_totals: list[float] = []
    for t in range(1, config.epochs + 1):
        n_prev, n_now = path[t - 1], path[t]
        new_accounts: list[str] = []
        removed: list[str] = []
        if n_now > n_prev:
            new_accounts = [_account_id(next_id + k) for k in range(n_now - n_prev)]
            next_id += n_now - n_prev
            members.extend(new_accounts)
        elif n_now < n_prev:
            removed = members[n_now:]
            del members[n_now:]
        state, report = mint_epoch_poplet(state, params, n_now, new_accounts, removed)
        if abs(report.rounding_residue_poplets) > (n_now + 1) // 2:
            raise InvariantViolation(
                f"epoch {t}: issuance rounding residue of {report.rounding_residue_poplets} "
                f"poplets exceeds half a poplet for each of {n_now} participants"
            )
        if rng is not None:
            state = _mix_transfers(state, rng, transfer_count, frac)

        # Integer true division is correctly rounded: these are float() of the exact values.
        num, den = state.exchange_rate.numerator, state.exchange_rate.denominator
        rate_float = num / den
        total = sum(state.balances.values()) * num / den
        ledger_totals.append(total)
        member_poplets = np.array([state.balances[a] for a in members], dtype=float)
        gini_value, variance_value, max_ratio = epoch_metrics(member_poplets * rate_float)
        growth = n_now / n_prev - 1.0
        rows.append(
            {
                "t": t,
                "N": n_now,
                "n": growth,
                "E": rate_float,
                "M_total": total,
                "D": income * n_now,
                "R": interest_rate(growth, alpha),
                "gini": gini_value,
                "variance": variance_value,
                "max_ratio": max_ratio,
            }
        )

    macro = run_macro(income, alpha, path, initial_supply=0.0)
    _check_supply_consistency(rows, macro, path, ledger_totals)

    files = {}
    files["manifest.json"] = _write_json(
        out / "manifest.json", {"format_version": 1, "config": config.normalized}
    )
    files["epochs.csv"] = _write_csv(
        out / "epochs.csv", EPOCH_COLUMNS, [[row[c] for c in EPOCH_COLUMNS] for row in rows]
    )
    files["final_state.json"] = _write_text(out / "final_state.json", state_to_json(state) + "\n")
    for entry in config.outputs:
        study = entry["study"]
        if study == "supply":
            files["supply.csv"] = _emit_supply(out, rows, macro, params)
        elif study == "inequality":
            files["inequality.csv"] = _emit_inequality(out, rows, params)
        elif study == "exchange":
            for name, written in _emit_exchange(out, entry["params"]).items():
                files[name] = written
        elif study == "agent":
            files["agent.csv"] = _emit_agent_csv(
                out / "agent.csv",
                entry["params"]["problems"],
                entry["params"]["demurrage_alpha"],
            )
    if include_plot_data:
        files["plot_data.csv"] = _write_csv(
            out / "plot_data.csv", ["t", "series", "value"], emit_plot_data(rows)
        )
    log.info("run complete: %d epochs, %d files in %s", config.epochs, len(files), out)
    return {
        "out_dir": str(out),
        "epochs": config.epochs,
        "files": sorted(files),
        "final_supply": ledger_totals[-1] if ledger_totals else 0.0,
    }


def emit_plot_data(rows: Sequence[dict]) -> list[list]:
    """Long-format (t, series, value) rows for every non-time epoch column."""
    out = []
    for row in rows:
        for column in EPOCH_COLUMNS[1:]:
            out.append([row["t"], column, row[column]])
    return out


def _check_supply_consistency(rows, macro, path, ledger_totals) -> None:
    """Ledger totals must track the aggregate recurrence within rounding.

    Issuance rounding moves each epoch's total by at most half a poplet per
    participant, carried forward as poplets; everything else is float error
    in the recurrence itself.
    """
    peak = max(path)
    for row, macro_state, total in zip(rows, macro, ledger_totals):
        tolerance = peak * macro_state.epoch * row["E"] + 1e-9 * max(abs(macro_state.supply), 1.0)
        if abs(total - macro_state.supply) > tolerance:
            raise InvariantViolation(
                f"epoch {macro_state.epoch}: ledger supply {total} deviates from "
                f"recurrence {macro_state.supply} by more than {tolerance}"
            )


def _emit_supply(out: Path, rows, macro, params: PolicyParams) -> str:
    alpha = float(params.demurrage_alpha)
    income = float(params.basic_income)
    table = []
    for row, macro_state in zip(rows, macro):
        cap = income * macro_state.census / alpha if alpha > 0 else float("inf")
        table.append([row["t"], row["M_total"], macro_state.supply, cap])
    return _write_csv(out / "supply.csv", ["t", "M_ledger", "M_recurrence", "cap"], table)


def _emit_inequality(out: Path, rows, params: PolicyParams) -> str:
    alpha = float(params.demurrage_alpha)
    income = float(params.basic_income)
    table = []
    for row in rows:
        table.append(
            [
                row["t"],
                row["gini"],
                row["variance"],
                row["max_ratio"],
                gini_bound(alpha, row["N"]),
                variance_bound(alpha, income, row["N"]),
                ratio_bound(alpha, row["N"]),
            ]
        )
    header = ["t", "gini", "variance", "max_ratio", "gini_bound", "variance_bound", "ratio_bound"]
    return _write_csv(out / "inequality.csv", header, table)


def _emit_exchange(out: Path, params: dict) -> dict:
    rows, summary = run_exchange_grid(params)
    header = [
        "shock",
        "eta",
        "spot_before",
        "longrun_before",
        "spot_after",
        "longrun_after",
        "rate_pop",
        "rate_fiat_before",
        "rate_fiat_after",
        "overshoot",
    ]
    return {
        "exchange.csv": _write_csv(out / "exchange.csv", header, rows),
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
            rows.append(
                [
                    shock,
                    eta,
                    result.spot_before,
                    result.longrun_before,
                    result.spot_after,
                    result.longrun_after,
                    result.rate_pop,
                    result.rate_fiat_before,
                    result.rate_fiat_after,
                    result.overshoot,
                ]
            )
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


def _emit_agent_csv(path: Path, problems, default_alpha: float) -> str:
    return _write_csv(
        path, ["in1", "out1", "savings", "tax_rate"], run_agent_batch(problems, default_alpha)
    )


# --- deterministic file writers ----------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value + 0.0)  # folds -0.0 into 0.0
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    return path.name


def _write_json(path: Path, doc) -> str:
    return _write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_text(path: Path, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path.name
