"""Scenario configs for the benchmark workloads, generated from a seed.

Every workload runs the README quick-start policy (basic income 2922.0,
demurrage 0.02) with random transfers of at most a quarter of the sender's
balance, seeded by the benchmark's ``--seed``. The three shapes load
different layers; NOTES.md says which and why.

All four studies run on every workload, so every per-layer span is entered
on every workload and no traced self time is a constant zero. The exchange
grid and the agent batch together cost about a millisecond.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 7  # the README quick-start seed; its output digests are recorded

POLICY = {"basic_income": 2922.0, "demurrage_alpha": 0.02}
MAX_FRACTION = 0.25
AGENT_PROBLEMS = 20

# name -> (population, epochs, transfers per epoch, include_plot_data)
SHAPES = {
    "transfer_heavy": ({"kind": "fixed", "N": 1000}, 100, 1000, False),
    "wide_census": ({"kind": "degrowth", "N0": 10000, "n": -0.005}, 100, 100, False),
    "long_horizon": ({"kind": "fixed", "N": 100}, 2000, 3, True),
}

# The same shapes cut down to run in well under a second, for the self-tests.
REDUCED_SHAPES = {
    "transfer_heavy": ({"kind": "fixed", "N": 100}, 10, 100, False),
    "wide_census": ({"kind": "degrowth", "N0": 500, "n": -0.005}, 10, 10, False),
    "long_horizon": ({"kind": "fixed", "N": 10}, 200, 3, True),
}

WORKLOADS = tuple(SHAPES)


def make_config(workload: str, seed: int, reduced: bool = False) -> tuple[dict, bool]:
    """Return the raw config document and the ``include_plot_data`` flag."""
    population, epochs, transfers, plot_data = (REDUCED_SHAPES if reduced else SHAPES)[workload]
    draw = random.Random(seed)
    problems = [
        {
            "basic_income": POLICY["basic_income"],
            "earned_income": round(draw.uniform(0.0, 100000.0), 2),
            "interest_rate": -POLICY["demurrage_alpha"],
            "allow_borrowing": draw.random() < 0.5,
        }
        for _ in range(AGENT_PROBLEMS)
    ]
    doc = {
        "policy": dict(POLICY),
        "epochs": epochs,
        "population": dict(population),
        "seed": seed % 2**64,
        "transfers": {"count_per_epoch": transfers, "max_fraction": MAX_FRACTION},
        "outputs": [
            {"study": "supply"},
            {"study": "inequality"},
            {"study": "exchange"},
            {"study": "agent", "params": {"problems": problems}},
        ],
    }
    return doc, plot_data


def expected_files(include_plot_data: bool) -> list[str]:
    """Names of the files every workload's run must write."""
    names = [
        "agent.csv",
        "epochs.csv",
        "exchange.csv",
        "exchange_summary.json",
        "final_state.json",
        "inequality.csv",
        "manifest.json",
        "supply.csv",
    ]
    if include_plot_data:
        names.append("plot_data.csv")
    return sorted(names)
