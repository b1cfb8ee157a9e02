"""Diagnostics golden: the exact lines that ``validate_config`` and the
``agent`` and ``exchange`` subcommands emit for bad inputs.

The table of bad inputs reaches every rule of every block: the top level,
``policy``, each population kind, the census path, ``poplet_scale``,
``transfers``, ``seed``, the output selectors, the exchange params with
their ``scenario`` block and two lists, the agent params and one agent
problem. ``EXPECTED`` was recorded from the hand-written validators that the
field tables replaced and must not change. ``CHANGED`` holds the cases whose
lines changed on purpose; each says what the old validators emitted.

Print every case's lines with ``python tests/test_diagnostics.py``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from popcoin_sim import validate_config
from popcoin_sim.cli import main

INF = math.inf
NAN = math.nan
DROP = object()

BASE = {
    "policy": {"basic_income": 2922.0, "demurrage_alpha": 0.02},
    "epochs": 5,
    "population": {"kind": "fixed", "N": 4},
    "seed": 1,
    "transfers": {"count_per_epoch": 2, "max_fraction": 0.5},
}

PROBLEM = {"basic_income": 10.0, "earned_income": 100.0, "interest_rate": -0.02}

BAD_PROBLEMS = [
    5,
    {},
    {
        "basic_income": -1,
        "wage": 3,
        "earned_income": -1,
        "interest_rate": -1,
        "price_1": 0,
        "price_2": "1",
        "allow_borrowing": 1,
        "demurrage_alpha": 1,
    },
    {"basic_income": True, "earned_income": 5, "price_1": False},
]


def cfg(**changes):
    """BASE with top-level keys replaced, added, or dropped (value DROP)."""
    doc = copy.deepcopy(BASE)
    for key, value in changes.items():
        if value is DROP:
            doc.pop(key)
        else:
            doc[key] = value
    return doc


def pop(**population):
    return cfg(population=population)


def study(name, params=DROP):
    entry = {"study": name}
    if params is not DROP:
        entry["params"] = params
    return cfg(outputs=[entry])


# name -> raw config document
CONFIGS = {
    "not_an_object": [],
    "top_unknown_and_missing": {"tpyo": 1, "seeds": 2},
    "missing_epochs_and_population": {"policy": BASE["policy"]},
    "missing_population_then_policy": {"x": 1, "policy": {}, "epochs": 1},
    "policy_not_object": cfg(policy=5),
    "policy_empty": cfg(policy={}),
    "policy_out_of_domain": cfg(
        policy={"basic_income": 0, "demurrage_alpha": 1, "epochs_per_year": 0, "extra": 1}
    ),
    "policy_wrong_types": cfg(
        policy={"basic_income": "1", "demurrage_alpha": True, "epochs_per_year": 1.5}
    ),
    "policy_negative_and_null": cfg(
        policy={"basic_income": -5, "demurrage_alpha": -0.1, "epochs_per_year": None}
    ),
    "policy_nan_alpha": cfg(policy={"basic_income": 1, "demurrage_alpha": NAN}),
    "population_not_object": cfg(population=[1]),
    "population_no_kind": pop(N=4),
    "population_bad_kind": pop(kind="linear", N=4),
    "population_kind_list": pop(kind=["fixed"]),
    "fixed_bad_N_and_unknown": pop(kind="fixed", N=0, N0=3),
    "fixed_float_N": pop(kind="fixed", N=4.0),
    "fixed_bool_N": pop(kind="fixed", N=True),
    "exponential_bad": pop(kind="exponential", N0=1.5, n=-1),
    "exponential_string_n": pop(kind="exponential", N0=3, n="0.1"),
    "degrowth_positive_n": pop(kind="degrowth", N0=10, n=0.01),
    "degrowth_zero_n": pop(kind="degrowth", N0=10, n=0),
    "degrowth_n_below_minus_one": pop(kind="degrowth", N0=10, n=-1.5),
    "logistic_bad": pop(kind="logistic", N0=10, K=0.5, rate=0),
    "logistic_unknown_key": pop(kind="logistic", N0=10, K=50, rate=0.1, n=0.1),
    "step_shock_bad": pop(kind="step_shock", N0=10, factor=0, at_epoch=0),
    "step_shock_wrong_types": pop(kind="step_shock", N0=10, factor="2", at_epoch=2.0),
    "epochs_negative": cfg(epochs=-1),
    "epochs_float": cfg(epochs=5.0),
    "epochs_bool": cfg(epochs=True),
    "epochs_null": cfg(epochs=None),
    "epochs_and_population_bad": cfg(epochs=-1, population={"kind": "fixed", "N": 0}),
    "census_not_finite": cfg(epochs=60, population={"kind": "exponential", "N0": 3, "n": 1e6}),
    "census_beyond_account_ids": cfg(
        population={"kind": "step_shock", "N0": 4, "factor": 1e300, "at_epoch": 2}
    ),
    "census_growth_beyond_account_ids": cfg(
        epochs=4, population={"kind": "exponential", "N0": 10**7, "n": 1.0}
    ),
    "poplet_scale_zero": cfg(poplet_scale=0),
    "poplet_scale_float": cfg(poplet_scale=1e8),
    "poplet_scale_null": cfg(poplet_scale=None),
    "transfers_not_object": cfg(transfers=3),
    "transfers_list": cfg(transfers=[]),
    "transfers_empty": cfg(transfers={}),
    "transfers_bad": cfg(transfers={"count_per_epoch": -1, "max_fraction": 0, "rate": 1}),
    "transfers_wrong_types": cfg(transfers={"count_per_epoch": 2.5, "max_fraction": 1.5}),
    "transfers_nan_fraction": cfg(transfers={"count_per_epoch": 1, "max_fraction": NAN}),
    "seed_string": cfg(seed="7"),
    "seed_too_big": cfg(seed=2**64),
    "seed_too_small": cfg(seed=-(2**63) - 1),
    "seed_float": cfg(seed=1.0),
    "seed_bool": cfg(seed=True),
    "seed_missing": cfg(seed=DROP),
    "seed_missing_count_bad": cfg(seed=DROP, transfers={"count_per_epoch": "x", "max_fraction": 1}),
    "outputs_not_list": cfg(outputs={"study": "supply"}),
    "outputs_null": cfg(outputs=None),
    "outputs_entries": cfg(
        outputs=[
            5,
            {"study": "supply", "extra": 1},
            {"study": "nope"},
            {},
            {"study": "supply", "params": {"a": 1}},
            {"study": "inequality", "params": []},
            {"study": "inequality", "params": None},
        ]
    ),
    "exchange_params_not_object": study("exchange", 3),
    "exchange_params_list": study("exchange", []),
    "exchange_policy_shocks": study(
        "exchange", {"pop_supply_shocks": [0.1], "other": 1, "pop_supply_shock": 0.1}
    ),
    "exchange_scenario_not_object": study("exchange", {"scenario": [1]}),
    "exchange_scenario_fields": study(
        "exchange",
        {
            "scenario": {
                "bogus": 1,
                "money_supply_pop": 0,
                "income_fiat": "1",
                "liquidity_elasticity": -2,
                "supply_growth_pop": "x",
                "income_growth_fiat": -0.5,
            }
        },
    ),
    "exchange_scenario_bool": study("exchange", {"scenario": {"income_pop": True}}),
    "exchange_lists_empty": study("exchange", {"fiat_supply_shocks": [], "elasticities": [0]}),
    "exchange_lists_bad_items": study(
        "exchange", {"fiat_supply_shocks": [-0.1, 0.1], "elasticities": "1"}
    ),
    "exchange_lists_bool_item": study(
        "exchange", {"fiat_supply_shocks": [True], "elasticities": []}
    ),
    "exchange_all_bad": study(
        "exchange",
        {
            "x": 1,
            "scenario": {"income_pop": 0},
            "fiat_supply_shocks": None,
            "elasticities": [-1],
        },
    ),
    "agent_params_not_object": study("agent", 3),
    "agent_params_missing": study("agent"),
    "agent_params_null": study("agent", None),
    "agent_params_bad": study("agent", {"demurrage_alpha": 1, "problems": [], "x": 1}),
    "agent_problems_not_list": study("agent", {"problems": {"a": 1}}),
    "agent_problem_entries": study("agent", {"problems": BAD_PROBLEMS}),
    "agent_alpha_bool": study("agent", {"demurrage_alpha": False, "problems": [PROBLEM]}),
    "every_block_bad": {
        "policy": {"basic_income": 0, "demurrage_alpha": 2, "rate": 1},
        "tpyo": 0,
        "epochs": -2,
        "population": {"kind": "exponential", "N0": 0, "n": -3, "N": 2},
        "seed": "s",
        "poplet_scale": -1,
        "transfers": {"count_per_epoch": 3, "max_fraction": 2},
        "outputs": [
            {"study": "exchange", "params": {"scenario": {"income_pop": -1}}},
            {"study": "agent", "params": {"problems": [{"basic_income": -1}]}},
            {"study": "bad"},
        ],
    },
}

# name -> (input document, extra command-line arguments)
AGENT_INPUTS = {
    "not_list_or_object": (5, []),
    "empty_list": ([], []),
    "object_unknown_no_problems": ({"x": 1}, []),
    "object_problems_not_list": ({"problems": {"a": 1}}, []),
    "object_bad_alpha": ({"demurrage_alpha": 1.5, "problems": [PROBLEM]}, []),
    "object_null_alpha": ({"demurrage_alpha": None, "problems": [PROBLEM]}, []),
    "object_bad_alpha_with_good_flag": (
        {"demurrage_alpha": 2, "problems": [PROBLEM]},
        ["--alpha", "0.1"],
    ),
    "problem_entries": (BAD_PROBLEMS, []),
    "object_problem_entries": ({"demurrage_alpha": 0.1, "problems": BAD_PROBLEMS}, []),
    "alpha_flag_too_big": ([PROBLEM], ["--alpha", "1.5"]),
    "alpha_flag_negative": ([PROBLEM], ["--alpha", "-0.1"]),
    "alpha_flag_infinite": ([PROBLEM], ["--alpha", "inf"]),
}

# name -> input document
EXCHANGE_INPUTS = {
    "not_object": [1],
    "unknown_and_policy_shock": {"x": 1, "pop_supply_shock": 0.1, "pop_supply_shocks": [0.1]},
    "scenario_not_object": {"scenario": 3},
    "scenario_fields": {
        "scenario": {"bad": 1, "money_supply_fiat": -1, "income_growth_pop": None}
    },
    "lists": {"fiat_supply_shocks": [-1], "elasticities": []},
    "lists_not_lists": {"fiat_supply_shocks": 0.1, "elasticities": {"a": 1}},
}

# Inputs whose diagnostics changed on purpose; their expectations are in CHANGED.
CONFIGS.update(
    {
        "fixed_missing_N": pop(kind="fixed"),
        "logistic_missing_keys": pop(kind="logistic"),
        "logistic_missing_and_bad": pop(kind="logistic", N0=0, rate=-1),
        "step_shock_missing": pop(kind="step_shock", N0=5),
        "policy_infinite_income": cfg(policy={"basic_income": INF, "demurrage_alpha": 0.02}),
        "population_infinite_factor": pop(kind="step_shock", N0=5, factor=INF, at_epoch=2),
        "population_nan_growth": pop(kind="exponential", N0=5, n=NAN),
        "exchange_infinite_scenario": study("exchange", {"scenario": {"income_pop": INF}}),
        "exchange_nan_growth": study("exchange", {"scenario": {"supply_growth_pop": NAN}}),
        "exchange_infinite_lists": study(
            "exchange", {"fiat_supply_shocks": [INF], "elasticities": [INF]}
        ),
        "exchange_scenario_table_order": study(
            "exchange", {"scenario": {"supply_growth_pop": "x", "bogus": 1, "money_supply_pop": 0}}
        ),
        "agent_infinite_income": study(
            "agent", {"problems": [{"basic_income": 10.0, "earned_income": INF}]}
        ),
        "agent_null_alpha": study("agent", {"demurrage_alpha": None, "problems": [PROBLEM]}),
        "supply_past_the_floats": cfg(
            policy={"basic_income": 1e308, "demurrage_alpha": 0},
            epochs=3,
            population={"kind": "fixed", "N": 3},
        ),
        "study_listed_twice": cfg(
            outputs=[
                {"study": "exchange", "params": {"fiat_supply_shocks": [0.1]}},
                {"study": "supply"},
                {"study": "exchange", "params": {"fiat_supply_shocks": [0.2, 0.3]}},
            ]
        ),
    }
)
AGENT_INPUTS.update(
    {
        "infinite_earned_income": ([{"basic_income": 10.0, "earned_income": INF}], []),
        "bad_alpha_and_problems": ({"demurrage_alpha": 2, "problems": "p"}, []),
    }
)
EXCHANGE_INPUTS.update(
    {
        "infinite_income": {"scenario": {"income_pop": INF}},
        "infinite_shock": {"fiat_supply_shocks": [INF]},
    }
)


def cli_lines(command: str, doc, extra, work_dir: Path) -> list[str]:
    """Stderr lines of one subcommand run, plus its exit code unless that is 2."""
    path = work_dir / f"{command}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([command, str(path), *extra])
        except Exception as exc:  # an input that ends in a traceback is a failed case
            code = f"{type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    return lines if code == 2 else [*lines, f"exit {code}"]


def record(work_dir: Path) -> dict[str, list[str]]:
    """Every case's diagnostics, keyed ``<source>/<name>``."""
    table = {f"config/{name}": validate_config(doc) for name, doc in CONFIGS.items()}
    for name, (doc, extra) in AGENT_INPUTS.items():
        table[f"agent/{name}"] = cli_lines("agent", doc, extra, work_dir)
    for name, doc in EXCHANGE_INPUTS.items():
        table[f"exchange/{name}"] = cli_lines("exchange", doc, [], work_dir)
    return table


# Recorded from the hand-written validators; must not change.
EXPECTED = {
    'config/not_an_object': [
        'config: must be a JSON object',
    ],
    'config/top_unknown_and_missing': [
        "config: unknown key 'tpyo'",
        "config: unknown key 'seeds'",
        "config: missing required key 'policy'",
        "config: missing required key 'epochs'",
        "config: missing required key 'population'",
    ],
    'config/missing_epochs_and_population': [
        "config: missing required key 'epochs'",
        "config: missing required key 'population'",
    ],
    'config/missing_population_then_policy': [
        "config: unknown key 'x'",
        "config: missing required key 'population'",
        'policy.basic_income: must be a positive number, got None',
        'policy.demurrage_alpha: must lie in [0, 1), got None',
    ],
    'config/policy_not_object': [
        'policy: must be an object',
    ],
    'config/policy_empty': [
        'policy.basic_income: must be a positive number, got None',
        'policy.demurrage_alpha: must lie in [0, 1), got None',
    ],
    'config/policy_out_of_domain': [
        "policy: unknown key 'extra'",
        'policy.basic_income: must be a positive number, got 0',
        'policy.demurrage_alpha: must lie in [0, 1), got 1',
        'policy.epochs_per_year: must be a positive integer, got 0',
    ],
    'config/policy_wrong_types': [
        "policy.basic_income: must be a positive number, got '1'",
        'policy.demurrage_alpha: must lie in [0, 1), got True',
        'policy.epochs_per_year: must be a positive integer, got 1.5',
    ],
    'config/policy_negative_and_null': [
        'policy.basic_income: must be a positive number, got -5',
        'policy.demurrage_alpha: must lie in [0, 1), got -0.1',
        'policy.epochs_per_year: must be a positive integer, got None',
    ],
    'config/policy_nan_alpha': [
        'policy.demurrage_alpha: must lie in [0, 1), got nan',
    ],
    'config/population_not_object': [
        'population: must be an object',
    ],
    'config/population_no_kind': [
        "population.kind: must be one of ('fixed', 'exponential', 'logistic', 'step_shock', 'degrowth'), got None",
    ],
    'config/population_bad_kind': [
        "population.kind: must be one of ('fixed', 'exponential', 'logistic', 'step_shock', 'degrowth'), got 'linear'",
    ],
    'config/population_kind_list': [
        "population.kind: must be one of ('fixed', 'exponential', 'logistic', 'step_shock', 'degrowth'), got ['fixed']",
    ],
    'config/fixed_bad_N_and_unknown': [
        "population: unknown key 'N0' for kind 'fixed'",
        'population.N: must be a positive integer, got 0',
    ],
    'config/fixed_float_N': [
        'population.N: must be a positive integer, got 4.0',
    ],
    'config/fixed_bool_N': [
        'population.N: must be a positive integer, got True',
    ],
    'config/exponential_bad': [
        'population.N0: must be a positive integer, got 1.5',
        'population.n: must be a number above -1, got -1',
    ],
    'config/exponential_string_n': [
        "population.n: must be a number above -1, got '0.1'",
    ],
    'config/degrowth_positive_n': [
        'population.n: degrowth requires n < 0, got 0.01',
    ],
    'config/degrowth_zero_n': [
        'population.n: degrowth requires n < 0, got 0',
    ],
    'config/degrowth_n_below_minus_one': [
        'population.n: must be a number above -1, got -1.5',
    ],
    'config/logistic_bad': [
        'population.K: must be a number >= 1, got 0.5',
        'population.rate: must be a positive number, got 0',
    ],
    'config/logistic_unknown_key': [
        "population: unknown key 'n' for kind 'logistic'",
    ],
    'config/step_shock_bad': [
        'population.factor: must be a positive number, got 0',
        'population.at_epoch: must be an integer >= 1, got 0',
    ],
    'config/step_shock_wrong_types': [
        "population.factor: must be a positive number, got '2'",
        'population.at_epoch: must be an integer >= 1, got 2.0',
    ],
    'config/epochs_negative': [
        'epochs: must be a non-negative integer, got -1',
    ],
    'config/epochs_float': [
        'epochs: must be a non-negative integer, got 5.0',
    ],
    'config/epochs_bool': [
        'epochs: must be a non-negative integer, got True',
    ],
    'config/epochs_null': [
        'epochs: must be a non-negative integer, got None',
    ],
    'config/epochs_and_population_bad': [
        'population.N: must be a positive integer, got 0',
        'epochs: must be a non-negative integer, got -1',
    ],
    'config/census_not_finite': [
        'population: the census path is not finite within 60 epochs',
    ],
    'config/census_beyond_account_ids': [
        'population: the census path opens more than 100000000 accounts, the most that 8-digit account ids support',
    ],
    'config/census_growth_beyond_account_ids': [
        'population: the census path opens more than 100000000 accounts, the most that 8-digit account ids support',
    ],
    'config/poplet_scale_zero': [
        'poplet_scale: must be a positive integer, got 0',
    ],
    'config/poplet_scale_float': [
        'poplet_scale: must be a positive integer, got 100000000.0',
    ],
    'config/poplet_scale_null': [
        'poplet_scale: must be a positive integer, got None',
    ],
    'config/transfers_not_object': [
        'transfers: must be an object',
    ],
    'config/transfers_list': [
        'transfers: must be an object',
    ],
    'config/transfers_empty': [
        'transfers.count_per_epoch: must be a non-negative integer, got None',
        'transfers.max_fraction: must lie in (0, 1], got None',
    ],
    'config/transfers_bad': [
        "transfers: unknown key 'rate'",
        'transfers.count_per_epoch: must be a non-negative integer, got -1',
        'transfers.max_fraction: must lie in (0, 1], got 0',
    ],
    'config/transfers_wrong_types': [
        'transfers.count_per_epoch: must be a non-negative integer, got 2.5',
        'transfers.max_fraction: must lie in (0, 1], got 1.5',
    ],
    'config/transfers_nan_fraction': [
        'transfers.max_fraction: must lie in (0, 1], got nan',
    ],
    'config/seed_string': [
        "seed: must be a 64-bit integer, got '7'",
    ],
    'config/seed_too_big': [
        'seed: must be a 64-bit integer, got 18446744073709551616',
    ],
    'config/seed_too_small': [
        'seed: must be a 64-bit integer, got -9223372036854775809',
    ],
    'config/seed_float': [
        'seed: must be a 64-bit integer, got 1.0',
    ],
    'config/seed_bool': [
        'seed: must be a 64-bit integer, got True',
    ],
    'config/seed_missing': [
        'seed: required when random transfers are enabled',
    ],
    'config/seed_missing_count_bad': [
        "transfers.count_per_epoch: must be a non-negative integer, got 'x'",
    ],
    'config/outputs_not_list': [
        'outputs: must be a list of study selectors',
    ],
    'config/outputs_null': [
        'outputs: must be a list of study selectors',
    ],
    'config/outputs_entries': [
        'outputs[0]: must be an object',
        "outputs[1]: unknown key 'extra'",
        "outputs[2].study: must be one of supply, inequality, exchange, agent; got 'nope'",
        'outputs[3].study: must be one of supply, inequality, exchange, agent; got None',
        "outputs[4]: study 'supply' takes no params",
        "outputs[5]: study 'inequality' takes no params",
    ],
    'config/exchange_params_not_object': [
        'outputs[0]: params must be an object',
    ],
    'config/exchange_params_list': [
        'outputs[0]: params must be an object',
    ],
    'config/exchange_policy_shocks': [
        "outputs[0].pop_supply_shocks: the policy currency's supply is census-determined and cannot be shocked; only fiat_supply_shocks is supported",
        "outputs[0]: unknown key 'other'",
        "outputs[0].pop_supply_shock: the policy currency's supply is census-determined and cannot be shocked; only fiat_supply_shocks is supported",
    ],
    'config/exchange_scenario_not_object': [
        'outputs[0].scenario: must be an object',
    ],
    'config/exchange_scenario_fields': [
        "outputs[0].scenario: unknown key 'bogus'",
        'outputs[0].scenario.money_supply_pop: must be positive, got 0',
        "outputs[0].scenario.income_fiat: must be a number, got '1'",
        'outputs[0].scenario.liquidity_elasticity: must be positive, got -2',
        "outputs[0].scenario.supply_growth_pop: must be a number, got 'x'",
    ],
    'config/exchange_scenario_bool': [
        'outputs[0].scenario.income_pop: must be a number, got True',
    ],
    'config/exchange_lists_empty': [
        'outputs[0].fiat_supply_shocks: must be a non-empty list of numbers >= 0',
        'outputs[0].elasticities: must be a non-empty list of positive numbers',
    ],
    'config/exchange_lists_bad_items': [
        'outputs[0].fiat_supply_shocks: must be a non-empty list of numbers >= 0',
        'outputs[0].elasticities: must be a non-empty list of positive numbers',
    ],
    'config/exchange_lists_bool_item': [
        'outputs[0].fiat_supply_shocks: must be a non-empty list of numbers >= 0',
        'outputs[0].elasticities: must be a non-empty list of positive numbers',
    ],
    'config/exchange_all_bad': [
        "outputs[0]: unknown key 'x'",
        'outputs[0].scenario.income_pop: must be positive, got 0',
        'outputs[0].fiat_supply_shocks: must be a non-empty list of numbers >= 0',
        'outputs[0].elasticities: must be a non-empty list of positive numbers',
    ],
    'config/agent_params_not_object': [
        'outputs[0]: params must be an object',
    ],
    'config/agent_params_missing': [
        'outputs[0].problems: must be a non-empty list',
    ],
    'config/agent_params_null': [
        'outputs[0].problems: must be a non-empty list',
    ],
    'config/agent_params_bad': [
        "outputs[0]: unknown key 'x'",
        'outputs[0].demurrage_alpha: must lie in [0, 1), got 1',
        'outputs[0].problems: must be a non-empty list',
    ],
    'config/agent_problems_not_list': [
        'outputs[0].problems: must be a non-empty list',
    ],
    'config/agent_problem_entries': [
        'outputs[0].problems[0]: must be an object',
        'outputs[0].problems[1].basic_income: required',
        "outputs[0].problems[2]: unknown key 'wage'",
        'outputs[0].problems[2].basic_income: must be a number >= 0, got -1',
        'outputs[0].problems[2].earned_income: must be a number >= 0, got -1',
        'outputs[0].problems[2].interest_rate: must be a number above -1, got -1',
        'outputs[0].problems[2].price_1: must be a positive number, got 0',
        "outputs[0].problems[2].price_2: must be a positive number, got '1'",
        'outputs[0].problems[2].allow_borrowing: must be a boolean, got 1',
        'outputs[0].problems[2].demurrage_alpha: must be in [0, 1), got 1',
        'outputs[0].problems[3].basic_income: must be a number >= 0, got True',
        'outputs[0].problems[3].price_1: must be a positive number, got False',
    ],
    'config/agent_alpha_bool': [
        'outputs[0].demurrage_alpha: must lie in [0, 1), got False',
    ],
    'config/every_block_bad': [
        "config: unknown key 'tpyo'",
        "policy: unknown key 'rate'",
        'policy.basic_income: must be a positive number, got 0',
        'policy.demurrage_alpha: must lie in [0, 1), got 2',
        "population: unknown key 'N' for kind 'exponential'",
        'population.N0: must be a positive integer, got 0',
        'population.n: must be a number above -1, got -3',
        'epochs: must be a non-negative integer, got -2',
        'poplet_scale: must be a positive integer, got -1',
        'transfers.max_fraction: must lie in (0, 1], got 2',
        "seed: must be a 64-bit integer, got 's'",
        'outputs[0].scenario.income_pop: must be positive, got -1',
        'outputs[1].problems[0].basic_income: must be a number >= 0, got -1',
        "outputs[2].study: must be one of supply, inequality, exchange, agent; got 'bad'",
    ],
    'agent/not_list_or_object': [
        "input: must be a problem list or an object with 'problems'",
    ],
    'agent/empty_list': [
        'problems: must be a non-empty list',
    ],
    'agent/object_unknown_no_problems': [
        "input: unknown key 'x'",
        'problems: must be a non-empty list',
    ],
    'agent/object_problems_not_list': [
        'problems: must be a non-empty list',
    ],
    'agent/object_bad_alpha': [
        'demurrage_alpha: must lie in [0, 1), got 1.5',
    ],
    'agent/object_null_alpha': [
        'demurrage_alpha: must lie in [0, 1), got None',
    ],
    'agent/object_bad_alpha_with_good_flag': [
        'demurrage_alpha: must lie in [0, 1), got 2',
    ],
    'agent/problem_entries': [
        'problems[0]: must be an object',
        'problems[1].basic_income: required',
        "problems[2]: unknown key 'wage'",
        'problems[2].basic_income: must be a number >= 0, got -1',
        'problems[2].earned_income: must be a number >= 0, got -1',
        'problems[2].interest_rate: must be a number above -1, got -1',
        'problems[2].price_1: must be a positive number, got 0',
        "problems[2].price_2: must be a positive number, got '1'",
        'problems[2].allow_borrowing: must be a boolean, got 1',
        'problems[2].demurrage_alpha: must be in [0, 1), got 1',
        'problems[3].basic_income: must be a number >= 0, got True',
        'problems[3].price_1: must be a positive number, got False',
    ],
    'agent/object_problem_entries': [
        'problems[0]: must be an object',
        'problems[1].basic_income: required',
        "problems[2]: unknown key 'wage'",
        'problems[2].basic_income: must be a number >= 0, got -1',
        'problems[2].earned_income: must be a number >= 0, got -1',
        'problems[2].interest_rate: must be a number above -1, got -1',
        'problems[2].price_1: must be a positive number, got 0',
        "problems[2].price_2: must be a positive number, got '1'",
        'problems[2].allow_borrowing: must be a boolean, got 1',
        'problems[2].demurrage_alpha: must be in [0, 1), got 1',
        'problems[3].basic_income: must be a number >= 0, got True',
        'problems[3].price_1: must be a positive number, got False',
    ],
    'agent/alpha_flag_too_big': [
        '--alpha: must lie in [0, 1), got 1.5',
    ],
    'agent/alpha_flag_negative': [
        '--alpha: must lie in [0, 1), got -0.1',
    ],
    'agent/alpha_flag_infinite': [
        '--alpha: must lie in [0, 1), got inf',
    ],
    'exchange/not_object': [
        'input: must be an object',
    ],
    'exchange/unknown_and_policy_shock': [
        "input: unknown key 'x'",
        "input.pop_supply_shock: the policy currency's supply is census-determined and cannot be shocked; only fiat_supply_shocks is supported",
        "input.pop_supply_shocks: the policy currency's supply is census-determined and cannot be shocked; only fiat_supply_shocks is supported",
    ],
    'exchange/scenario_not_object': [
        'input.scenario: must be an object',
    ],
    'exchange/scenario_fields': [
        "input.scenario: unknown key 'bad'",
        'input.scenario.money_supply_fiat: must be positive, got -1',
        'input.scenario.income_growth_pop: must be a number, got None',
    ],
    'exchange/lists': [
        'input.fiat_supply_shocks: must be a non-empty list of numbers >= 0',
        'input.elasticities: must be a non-empty list of positive numbers',
    ],
    'exchange/lists_not_lists': [
        'input.fiat_supply_shocks: must be a non-empty list of numbers >= 0',
        'input.elasticities: must be a non-empty list of positive numbers',
    ],
}

# Deliberate changes. Missing population keys are reported once each, in
# table order (the old validators walked a set, so the order moved with
# PYTHONHASHSEED, and then repeated each missing key as "got None").
# Non-finite numbers are rejected where they used to pass validation and
# fail later. The agent params share one table with the ``agent`` input, so
# a null study alpha is rejected (it used to pass and then fail ``run`` with
# a TypeError) and the ``agent`` input reports the alpha before the
# problems. The exchange ``scenario`` block reports in table order like
# every other block, not in document order. A money supply that can pass the
# largest float is rejected where it used to pass and then fail ``run``. A
# study selected by a second well-formed entry is rejected there, where
# ``run`` used to keep only the last entry's files.
CHANGED = {
    # was ["population.N: required for kind 'fixed'",
    #      "population.N: must be a positive integer, got None"]
    "config/fixed_missing_N": [
        "population.N: required for kind 'fixed'",
    ],
    # was the three "required" lines in set order, then three "got None" lines
    "config/logistic_missing_keys": [
        "population.N0: required for kind 'logistic'",
        "population.K: required for kind 'logistic'",
        "population.rate: required for kind 'logistic'",
    ],
    # was ["population.K: required for kind 'logistic'",
    #      "population.N0: must be a positive integer, got 0",
    #      "population.K: must be a number >= 1, got None",
    #      "population.rate: must be a positive number, got -1"]
    "config/logistic_missing_and_bad": [
        "population.N0: must be a positive integer, got 0",
        "population.K: required for kind 'logistic'",
        "population.rate: must be a positive number, got -1",
    ],
    # was the two "required" lines in set order, then two "got None" lines
    "config/step_shock_missing": [
        "population.factor: required for kind 'step_shock'",
        "population.at_epoch: required for kind 'step_shock'",
    ],
    # was [] (then `run` failed: Invalid literal for Fraction: 'inf')
    "config/policy_infinite_income": [
        "policy.basic_income: must be a positive number, got inf",
    ],
    # was ["population: the census path is not finite within 5 epochs"]
    "config/population_infinite_factor": [
        "population.factor: must be a positive number, got inf",
    ],
    # was ["population: the census path is not finite within 5 epochs"]
    "config/population_nan_growth": [
        "population.n: must be a number above -1, got nan",
    ],
    # was []
    "config/exchange_infinite_scenario": [
        "outputs[0].scenario.income_pop: must be a number, got inf",
    ],
    # was []
    "config/exchange_nan_growth": [
        "outputs[0].scenario.supply_growth_pop: must be a number, got nan",
    ],
    # was []
    "config/exchange_infinite_lists": [
        "outputs[0].fiat_supply_shocks: must be a non-empty list of numbers >= 0",
        "outputs[0].elasticities: must be a non-empty list of positive numbers",
    ],
    # was in document order: supply_growth_pop, the unknown key, money_supply_pop
    "config/exchange_scenario_table_order": [
        "outputs[0].scenario: unknown key 'bogus'",
        "outputs[0].scenario.money_supply_pop: must be positive, got 0",
        "outputs[0].scenario.supply_growth_pop: must be a number, got 'x'",
    ],
    # was []
    "config/agent_infinite_income": [
        "outputs[0].problems[0].earned_income: must be a number >= 0, got inf",
    ],
    # was [] (then `run` failed with a TypeError in effective_tax)
    "config/agent_null_alpha": [
        "outputs[0].demurrage_alpha: must lie in [0, 1), got None",
    ],
    # was [] (then `run` failed: OverflowError in poplets * num / den)
    "config/supply_past_the_floats": [
        "policy: the money supply, up to B * max(N_t) * min(epochs, 1/alpha), "
        "passes the largest float within 3 epochs",
    ],
    # was [] (then `run` computed both grids and kept only the second's files)
    "config/study_listed_twice": [
        "outputs[2]: study 'exchange' is already selected by outputs[0]",
    ],
    # was exit 0 with the row inf,inf,nan,nan
    "agent/infinite_earned_income": [
        "problems[0].earned_income: must be a number >= 0, got inf",
    ],
    # was the problems line first
    "agent/bad_alpha_and_problems": [
        "demurrage_alpha: must lie in [0, 1), got 2",
        "problems: must be a non-empty list",
    ],
    # was exit 1: ValueError: math domain error
    "exchange/infinite_income": [
        "input.scenario.income_pop: must be a number, got inf",
    ],
    # was exit 1: ValueError: expected rate must be positive, got 0.0
    "exchange/infinite_shock": [
        "input.fiat_supply_shocks: must be a non-empty list of numbers >= 0",
    ],
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record(tmp_path_factory.mktemp("diagnostics"))


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_diagnostics_unchanged(case, recorded):
    assert recorded[case] == EXPECTED[case]


@pytest.mark.parametrize("case", sorted(CHANGED))
def test_diagnostics_changed_on_purpose(case, recorded):
    assert recorded[case] == CHANGED[case]


def test_every_case_has_one_expectation(recorded):
    assert not EXPECTED.keys() & CHANGED.keys()
    assert recorded.keys() == EXPECTED.keys() | CHANGED.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for case, lines in record(Path(work)).items():
            sys.stdout.write(f"    {case!r}: [\n")
            for line in lines:
                sys.stdout.write(f"        {line!r},\n")
            sys.stdout.write("    ],\n")
