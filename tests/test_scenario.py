"""Scenario-runner tests: census paths, config validation, output files,
reproducibility, and the deterministic RNG contract."""

import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import sys
import tempfile
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from popcoin_sim import (
    ConfigError,
    SplitMix64,
    census_path,
    genesis,
    load_config,
    mint_epoch_poplet,
    parse_config,
    run_scenario,
    scenario,
    state_from_json,
    validate_config,
)
from popcoin_sim.ledger import Balances, LedgerState, Rate

GOOD_CONFIG = {
    "policy": {"basic_income": 2922, "demurrage_alpha": 0.02},
    "epochs": 8,
    "population": {"kind": "fixed", "N": 5},
    "seed": 7,
    "poplet_scale": 10**8,
    "transfers": {"count_per_epoch": 2, "max_fraction": 0.5},
    "outputs": [{"study": "supply"}, {"study": "inequality"}],
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


# --- deterministic RNG -----------------------------------------------------------


def test_splitmix64_reference_vectors():
    # first outputs for seed 0, cross-checked against the published
    # reference implementation of splitmix64
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_seed_masking_and_range():
    assert SplitMix64(2**64 + 5).next_uint64() == SplitMix64(5).next_uint64()
    rng = SplitMix64(123)
    for _ in range(1000):
        assert 0 <= rng.next_uint64() < 2**64


def test_splitmix64_bounded_draws():
    rng = SplitMix64(99)
    draws = [rng.below(10) for _ in range(1000)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10  # all residues show up quickly
    with pytest.raises(ValueError):
        rng.below(0)


# --- census paths ----------------------------------------------------------------


def test_fixed_path():
    assert census_path({"kind": "fixed", "N": 42}, 3) == [42, 42, 42, 42]


def test_exponential_path_rounds_half_even():
    path = census_path({"kind": "exponential", "N0": 100, "n": 0.01}, 3)
    assert path == [100, 101, round(100 * 1.01**2), round(100 * 1.01**3)]
    assert path[-1] == 103  # 103.0301 rounds down


def test_degrowth_path_floors_at_one():
    path = census_path({"kind": "degrowth", "N0": 4, "n": -0.5}, 5)
    assert path == [4, 2, 1, 1, 1, 1]


def test_logistic_path_saturates_at_capacity():
    population = {"kind": "logistic", "N0": 10, "K": 500, "rate": 0.5}
    path = census_path(population, 40)
    assert path[0] == 10
    assert path[-1] == 500
    assert all(a <= b for a, b in zip(path, path[1:]))  # monotone approach


def test_step_shock_path():
    population = {"kind": "step_shock", "N0": 10, "factor": 2.0, "at_epoch": 3}
    assert census_path(population, 5) == [10, 10, 10, 20, 20, 20]


# --- config validation -------------------------------------------------------------


def test_good_config_has_no_diagnostics():
    assert validate_config(GOOD_CONFIG) == []


def test_validation_names_offending_fields():
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["policy"]["demurrage_alpha"] = 1.5
    bad["population"] = {"kind": "exponential", "N0": 0, "n": -2}
    bad["epochs"] = -1
    diagnostics = validate_config(bad)
    joined = "\n".join(diagnostics)
    assert "policy.demurrage_alpha" in joined
    assert "population.N0" in joined
    assert "population.n" in joined
    assert "epochs" in joined


def test_validation_catches_unknown_keys():
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["tpyo"] = 1
    bad["transfers"]["frq"] = 2
    diagnostics = validate_config(bad)
    assert any("tpyo" in d for d in diagnostics)
    assert any("frq" in d for d in diagnostics)


def test_transfers_require_a_seed():
    bad = json.loads(json.dumps(GOOD_CONFIG))
    del bad["seed"]
    assert any("seed" in d for d in validate_config(bad))
    bad["transfers"]["count_per_epoch"] = 0
    assert validate_config(bad) == []  # no randomness, no seed needed


def test_degrowth_requires_negative_growth():
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["population"] = {"kind": "degrowth", "N0": 10, "n": 0.01}
    assert any("degrowth" in d for d in validate_config(bad))


def test_policy_supply_shock_is_rejected():
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["outputs"] = [{"study": "exchange", "params": {"pop_supply_shocks": [0.1]}}]
    diagnostics = validate_config(bad)
    assert any("census-determined" in d for d in diagnostics)


def test_parse_config_raises_with_all_diagnostics():
    bad = {"policy": {}, "epochs": -1, "population": {}}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert len(excinfo.value.diagnostics) >= 3


# --- runner -----------------------------------------------------------------------


def test_run_writes_documented_files(tmp_path):
    config = parse_config(GOOD_CONFIG)
    summary = run_scenario(config, tmp_path / "out")
    assert set(summary["files"]) == {
        "manifest.json",
        "epochs.csv",
        "final_state.json",
        "supply.csv",
        "inequality.csv",
    }
    rows = read_csv(tmp_path / "out" / "epochs.csv")
    assert rows[0] == ["t", "N", "n", "E", "M_total", "D", "R", "gini", "variance", "max_ratio"]
    assert len(rows) == 1 + 8
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 8
    assert manifest["config"]["policy"]["demurrage_alpha"] == 0.02
    final = state_from_json((tmp_path / "out" / "final_state.json").read_text())
    assert final.epoch == 8
    assert final.census == 5


def test_zero_epochs_yields_header_only_csv(tmp_path):
    config = parse_config({**GOOD_CONFIG, "epochs": 0, "outputs": []})
    run_scenario(config, tmp_path)
    assert read_csv(tmp_path / "epochs.csv") == [
        ["t", "N", "n", "E", "M_total", "D", "R", "gini", "variance", "max_ratio"]
    ]


def test_runs_are_byte_identical(tmp_path):
    config = parse_config(GOOD_CONFIG)
    run_scenario(config, tmp_path / "a", include_plot_data=True)
    run_scenario(config, tmp_path / "b", include_plot_data=True)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seed_changes_transfer_mix(tmp_path):
    run_scenario(parse_config(GOOD_CONFIG), tmp_path / "a")
    run_scenario(parse_config({**GOOD_CONFIG, "seed": 8}), tmp_path / "b")
    assert (tmp_path / "a" / "final_state.json").read_bytes() != (
        tmp_path / "b" / "final_state.json"
    ).read_bytes()


def test_epoch_columns_carry_the_model(tmp_path):
    # step shock doubling at epoch 3: that epoch's rate must be
    # 2 * 0.98 - 1 = 0.96 and every other epoch -0.02
    config = parse_config(
        {
            "policy": {"basic_income": 2922, "demurrage_alpha": 0.02},
            "epochs": 5,
            "population": {"kind": "step_shock", "N0": 10, "factor": 2.0, "at_epoch": 3},
            "outputs": [],
        }
    )
    run_scenario(config, tmp_path)
    header, *rows = read_csv(tmp_path / "epochs.csv")
    idx = {name: i for i, name in enumerate(header)}
    by_epoch = {int(r[idx["t"]]): r for r in rows}
    assert float(by_epoch[3][idx["R"]]) == approx(0.96)
    assert float(by_epoch[2][idx["R"]]) == approx(-0.02)
    assert int(by_epoch[3][idx["N"]]) == 20
    assert float(by_epoch[3][idx["D"]]) == approx(2922 * 20)
    # two cohorts (pre- and post-shock joiners) with equal balances inside
    # each: the spread stays finite and modest
    assert 1.0 < float(by_epoch[5][idx["max_ratio"]]) < 3.0


def test_supply_study_tracks_recurrence_and_cap(tmp_path):
    config = parse_config({**GOOD_CONFIG, "transfers": None, "seed": None})
    run_scenario(config, tmp_path)
    header, *rows = read_csv(tmp_path / "supply.csv")
    assert header == ["t", "M_ledger", "M_recurrence", "cap"]
    for row in rows:
        ledger, recurrence, cap = map(float, row[1:])
        assert ledger == approx(recurrence, rel=1e-6)
        assert ledger < cap
    assert float(rows[-1][3]) == approx(2922 * 5 / 0.02)


def test_inequality_study_respects_bounds(tmp_path):
    config = parse_config({**GOOD_CONFIG, "epochs": 30})
    run_scenario(config, tmp_path)
    header, *rows = read_csv(tmp_path / "inequality.csv")
    idx = {name: i for i, name in enumerate(header)}
    for row in rows:
        assert float(row[idx["gini"]]) <= float(row[idx["gini_bound"]])
        assert float(row[idx["variance"]]) <= float(row[idx["variance_bound"]])
        assert float(row[idx["max_ratio"]]) <= float(row[idx["ratio_bound"]])


def test_agent_study_emits_problem_rows(tmp_path):
    config = parse_config(
        {
            **GOOD_CONFIG,
            "outputs": [
                {
                    "study": "agent",
                    "params": {
                        "problems": [
                            {"basic_income": 10.0, "earned_income": 0.0, "interest_rate": -0.02},
                            {"basic_income": 10.0, "earned_income": 100.0, "interest_rate": -0.02},
                        ]
                    },
                }
            ],
        }
    )
    run_scenario(config, tmp_path)
    header, *rows = read_csv(tmp_path / "agent.csv")
    assert header == ["in1", "out1", "savings", "tax_rate"]
    assert len(rows) == 2
    assert float(rows[0][3]) == approx(0.0)  # hand-to-mouth pays nothing
    assert float(rows[1][3]) > 0.0  # the earner saves and pays


def test_exchange_study_defaults_overshoot(tmp_path):
    config = parse_config({**GOOD_CONFIG, "outputs": [{"study": "exchange"}]})
    run_scenario(config, tmp_path)
    summary = json.loads((tmp_path / "exchange_summary.json").read_text())
    assert summary["all_positive_shocks_overshoot"] is True
    assert summary["cases"] == 25
    header, *rows = read_csv(tmp_path / "exchange.csv")
    idx = {name: i for i, name in enumerate(header)}
    for row in rows:
        if float(row[idx["shock"]]) > 0:
            assert float(row[idx["spot_after"]]) < float(row[idx["longrun_after"]])
            assert float(row[idx["longrun_after"]]) < float(row[idx["longrun_before"]])


def test_plot_data_long_format(tmp_path):
    config = parse_config({**GOOD_CONFIG, "epochs": 2, "outputs": []})
    run_scenario(config, tmp_path, include_plot_data=True)
    rows = read_csv(tmp_path / "plot_data.csv")
    assert rows[0] == ["t", "series", "value"]
    assert len(rows) == 1 + 2 * 9  # two epochs, nine series each
    assert rows[1][:2] == ["1", "N"]


@pytest.mark.parametrize("epochs", [0, 12])
def test_epoch_records_format_to_the_epochs_csv_rows(tmp_path, epochs):
    # transfers, and a census that retires members every few epochs
    config = parse_config(
        {
            **GOOD_CONFIG,
            "epochs": epochs,
            "population": {"kind": "degrowth", "N0": 40, "n": -0.1},
            "outputs": [],
        }
    )
    run_scenario(config, tmp_path)
    records = scenario.run_epochs(config)
    rows = [
        [
            scenario._format_cell(value)
            for value in (
                record.macro.epoch,
                record.macro.census,
                record.macro.census_growth,
                record.rate,
                record.total,
                record.macro.demurrage,
                record.macro.interest,
                *record.metrics,
            )
        ]
        for record in itertools.islice(records, epochs)
    ]
    assert read_csv(tmp_path / "epochs.csv") == [scenario.EPOCH_COLUMNS, *rows]
    # the generator returns the final ledger state, the genesis state at 0 epochs
    with pytest.raises(StopIteration) as done:
        next(records)
    final = (tmp_path / "final_state.json").read_text(encoding="utf-8")
    assert final == scenario.state_to_json(done.value.value) + "\n"
    assert done.value.value.epoch == epochs


def test_plot_data_is_emit_plot_data_of_the_epoch_rows(tmp_path):
    # plot_data.csv is the long form of epochs.csv: one (t, series, value) row
    # per non-time cell, row by row in column order, each cell as written there
    config = parse_config({**GOOD_CONFIG, "epochs": 12, "outputs": []})
    run_scenario(config, tmp_path, include_plot_data=True)
    header, *table = read_csv(tmp_path / "epochs.csv")
    long_rows = [
        [row[0], column, cell] for row in table for column, cell in zip(header[1:], row[1:])
    ]
    assert len(long_rows) == 12 * 9
    expected = "".join(",".join(row) + "\n" for row in [["t", "series", "value"], *long_rows])
    assert (tmp_path / "plot_data.csv").read_bytes() == expected.encode("utf-8")


POPULATIONS = {
    "fixed": st.fixed_dictionaries({"N": st.integers(1, 12)}),
    "exponential": st.fixed_dictionaries(
        {"N0": st.integers(1, 12), "n": st.sampled_from([-0.5, -0.25, 0.0, 0.1, 0.5])}
    ),
    "logistic": st.fixed_dictionaries(
        {"N0": st.integers(1, 12), "K": st.integers(1, 30), "rate": st.sampled_from([0.3, 1.0])}
    ),
    "step_shock": st.fixed_dictionaries(
        {
            "N0": st.integers(1, 12),
            "factor": st.sampled_from([0.25, 0.5, 2.0]),
            "at_epoch": st.integers(1, 12),
        }
    ),
    "degrowth": st.fixed_dictionaries(
        {"N0": st.integers(1, 12), "n": st.sampled_from([-0.5, -0.25, -0.1])}
    ),
}


def _oracle_tables(config, include_plot_data: bool) -> dict:
    """The epoch tables of ``config`` built as whole tables from its records:
    each record's row of ``_format_cell`` strings, and each table's rows
    written by ``write_rows``."""
    records = list(scenario.run_epochs(config))
    income = float(config.policy.basic_income)
    alpha = float(config.policy.demurrage_alpha)
    rows = []
    for m, rate, total, metrics in records:
        row = (m.epoch, m.census, m.census_growth, rate, total, m.demurrage, m.interest, *metrics)
        rows.append(list(map(scenario._format_cell, row)))
    tables = {"epochs.csv": (scenario.EPOCH_COLUMNS, rows)}
    studies = [entry["study"] for entry in config.normalized["outputs"]]
    if "supply" in studies:
        cap = lambda n: scenario.steady_state_supply(income, alpha, n) if alpha else math.inf
        tables["supply.csv"] = (
            scenario.SUPPLY_COLUMNS,
            [
                [row[0], row[4], *map(scenario._format_cell, (m.supply, cap(m.census)))]
                for row, (m, *_) in zip(rows, records)
            ],
        )
    if "inequality" in studies:
        bounds = lambda n: (
            scenario.gini_bound(alpha, n),
            scenario.variance_bound(alpha, income, n),
            scenario.ratio_bound(alpha, n),
        )
        tables["inequality.csv"] = (
            scenario.INEQUALITY_COLUMNS,
            [
                [row[0], *row[7:], *map(scenario._format_cell, bounds(m.census))]
                for row, (m, *_) in zip(rows, records)
            ],
        )
    if include_plot_data:
        tables["plot_data.csv"] = (
            scenario.PLOT_COLUMNS,
            [
                [row[0], column, cell]
                for row in rows
                for column, cell in zip(scenario.EPOCH_COLUMNS[1:], row[1:])
            ],
        )
    written = {}
    for name, (header, table) in tables.items():
        handle = io.StringIO()
        scenario.write_rows(handle, header, table)
        written[name] = handle.getvalue().encode("utf-8")
    return written


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    population=st.sampled_from(sorted(POPULATIONS)).flatmap(
        lambda kind: POPULATIONS[kind].map(lambda block: {"kind": kind, **block})
    ),
    epochs=st.integers(0, 12),
    alpha=st.sampled_from([0.0, 0.02, 0.5]),
    transfers=st.integers(0, 4),
    studies=st.sets(st.sampled_from(["supply", "inequality"])),
    include_plot_data=st.booleans(),
)
@example(
    # the census reaches 3 twice, at growth -0.25 and then 0.0: a cache of the
    # census cells keyed by N_t alone writes the first growth at both
    population={"kind": "degrowth", "N0": 6, "n": -0.25},
    epochs=6,
    alpha=0.02,
    transfers=2,
    studies={"supply", "inequality"},
    include_plot_data=True,
)
def test_the_streamed_tables_are_the_tables_of_the_records(
    population, epochs, alpha, transfers, studies, include_plot_data
):
    config = parse_config(
        {
            **GOOD_CONFIG,
            "policy": {"basic_income": 2922, "demurrage_alpha": alpha},
            "epochs": epochs,
            "population": population,
            "transfers": {"count_per_epoch": transfers, "max_fraction": 0.5},
            "outputs": [{"study": study} for study in sorted(studies)],
        }
    )
    expected = _oracle_tables(config, include_plot_data)
    with tempfile.TemporaryDirectory() as out:
        summary = run_scenario(config, out, include_plot_data=include_plot_data)
        written = {
            path.name: path.read_bytes() for path in Path(out).iterdir() if path.suffix == ".csv"
        }
        assert sorted(path.name for path in Path(out).iterdir()) == summary["files"]
    assert written == expected


def test_format_cell_passes_strings_through():
    cell = repr(0.1)
    assert scenario._format_cell(cell) is cell
    assert [scenario._format_cell(v) for v in (3, -0.0, float("inf"))] == ["3", "0.0", "inf"]


HEADERS = [
    scenario.EPOCH_COLUMNS,
    scenario.SUPPLY_COLUMNS,
    scenario.INEQUALITY_COLUMNS,
    scenario.EXCHANGE_COLUMNS,
    scenario.AGENT_COLUMNS,
    scenario.PLOT_COLUMNS,
]
EDGE_CELLS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, sys.float_info.max, 2**64 + 1, -(2**70)]


@given(
    header=st.sampled_from(HEADERS),
    rows=st.lists(
        st.lists(
            st.one_of(
                st.integers(),
                st.integers(min_value=2**64, max_value=2**300),
                st.floats(),
                st.sampled_from(EDGE_CELLS),
            ),
            max_size=12,
        ),
        max_size=6,
    ),
)
@example(header=scenario.EPOCH_COLUMNS, rows=[EDGE_CELLS, [-x for x in EDGE_CELLS]])
def test_write_rows_writes_the_bytes_of_csv_writer(header, rows):
    # no _format_cell string and no column name needs quoting, so joining the
    # cells with commas is csv.writer's dialect with "\n" line ends
    cells = [list(map(scenario._format_cell, row)) for row in rows]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(cells)
    written = io.StringIO()
    scenario.write_rows(written, header, cells)
    assert written.getvalue() == expected.getvalue()


@given(
    held=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**63 - 1),
            st.integers(min_value=2**62, max_value=2**65),
        ),
        min_size=1,
        max_size=8,
    ),
    dormant=st.integers(min_value=0, max_value=2**64),
    num=st.integers(min_value=1, max_value=10**6),
    den=st.one_of(
        st.integers(min_value=1, max_value=10**30),
        st.integers(min_value=2**1000, max_value=2**1100),  # a subnormal or zero float(E)
    ),
)
@example(held=[2**53 + 1], dormant=0, num=1, den=1)  # the first int a float cannot hold
@example(held=[2**62 + 2**9], dormant=0, num=1, den=1)  # a tie, rounded to even
@example(held=[2**63 - 1], dormant=0, num=1, den=3)  # the largest int64
@example(held=[2**63 - 1], dormant=1, num=1, den=3)  # the same balance past the int64 total
@example(held=[2**63 + 2**11], dormant=0, num=1, den=1)  # one balance past int64
@example(held=[12345678901, 0], dormant=0, num=1, den=3 * 2**1040)  # a subnormal float(E)
@example(held=[2**40 + 1], dormant=0, num=1, den=2**1080)  # float(E) underflows to 0
# a total past the largest float, every balance below it
@example(held=[2**1023 + 2**968, 2**1023], dormant=0, num=1, den=3)
def test_member_values_are_float_of_each_balance_times_the_rate(held, dormant, num, den):
    # float(balance) * float(E) while float(E) is normal and the exact total of
    # all balances is at most the largest float; else balance * E correctly rounded
    members = [f"p{i:08d}" for i in range(len(held))]
    balances = {**dict(zip(members, held)), "p99999999": dormant}
    rate = Fraction(num, den)
    total = sum(balances.values())
    read = Balances.from_entries(balances, members)
    _, member_balances, _ = scenario._read_balances(read, len(held), total, None, ())
    row = np.empty(len(held))
    values = scenario._member_values(member_balances, total, Rate.of(rate, 1), num / den, row)
    assert values is row
    if num / den >= sys.float_info.min and total <= int(sys.float_info.max):
        expected = np.array([float(balance) * (num / den) for balance in held])
    else:
        expected = np.array([float(balance * rate) for balance in held])
    assert values.dtype == np.float64
    assert values.tobytes() == expected.tobytes()


def counted_ledger(held, members, credit):
    """The balances with these ``held`` entries, in id order, whose first
    ``members`` accounts are the census; that count; and every balance."""
    ids = [f"p{i:08d}" for i in range(len(held))]
    balances = Balances.from_entries(dict(zip(ids, held)), ids[:members], credit)
    every = [entry + credit if i < members else entry for i, entry in enumerate(held)]
    return balances, members, every


@st.composite
def counted_ledgers(draw):
    """Members from the start, then members who joined late and hold less
    than the common credit, then dormant holders, as a run lays them out."""
    credit = draw(st.integers(min_value=0, max_value=2**63))
    first = draw(st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=4))
    late = draw(st.lists(st.integers(min_value=0, max_value=credit), max_size=4))
    dormant = draw(st.lists(st.integers(min_value=0, max_value=2**63), max_size=3))
    held = [*first, *(balance - credit for balance in late), *dormant]
    return counted_ledger(held, len(first) + len(late), credit)


# poplets + N * credit just below and at 2**63, with one member; the census
# grown fourfold, N * credit past poplets, below 2**63 and at 2**64; poplets
# just below and at 2**63; and past 2**63 with a dormant holder after the members
@example(ledger=counted_ledger([0], 1, 2**62 - 1))
@example(ledger=counted_ledger([0], 1, 2**62))
@example(ledger=counted_ledger([0, 3 - 2**60, 3 - 2**60, 3 - 2**60], 4, 2**60))
@example(ledger=counted_ledger([0, 3 - 2**62, 3 - 2**62, 3 - 2**62], 4, 2**62))
@example(ledger=counted_ledger([2**63 - 1, 0], 1, 0))
@example(ledger=counted_ledger([2**63 - 1, 1], 1, 0))
@example(ledger=counted_ledger([2**63, 3 - 2**62, 5], 2, 2**62))
@given(ledger=counted_ledgers())
def test_one_read_of_the_balances_is_exact_on_both_sides_of_int64(ledger):
    # an int64 array while poplets + N * credit is below 2**63, and Python ints
    # from there on, give the exact poplet total, the members' balances and values
    balances, count, every = ledger
    members = every[:count]
    poplets = sum(every)
    total, member_balances, image = scenario._read_balances(balances, count, poplets, None, ())
    assert total == poplets
    assert isinstance(member_balances, np.ndarray) == (
        poplets + len(members) * balances.credit < 2**63
    )
    assert list(map(int, member_balances)) == members
    # the read returns the int64 image it summed, or none past the bound, and
    # a second read from that image, with nothing written since, gives the
    # same total and members
    assert (image is not None) == isinstance(member_balances, np.ndarray)
    assert image is None or image.tolist() == balances.held
    again, again_members, _ = scenario._read_balances(balances, count, poplets, image, ())
    assert again == poplets and list(map(int, again_members)) == members
    for num, den in ((1, 3), (1, 3 * 2**1040)):  # a normal and a subnormal float(E)
        rate = Rate.of(Fraction(num, den), 1)
        values = scenario._member_values(member_balances, poplets, rate, num / den, np.empty(count))
        if num / den >= sys.float_info.min:
            expected = [float(balance) * (num / den) for balance in members]
        else:
            expected = [float(balance * Fraction(num, den)) for balance in members]
        assert values.tobytes() == np.array(expected).tobytes()


def test_one_read_of_the_balances_counts_an_entry_past_int64():
    # only a broken ledger holds one; the poplet check must still see its total
    balances = Balances.from_entries({"p00000000": 2**63, "p00000001": 0}, ["p00000000"])
    total, member_balances, image = scenario._read_balances(balances, 1, 5, None, ())
    assert total == 2**63
    assert member_balances == [2**63]
    assert image is None


def test_the_read_patches_a_copy_of_the_image_at_the_positions_written():
    # the image of 19 entries, then 20 entries that differ at three positions,
    # one appended: under a quarter of them, so the read patches a copy; a
    # quarter or more, and it builds the image anew; past int64, it drops it
    ids = [f"p{i:08d}" for i in range(20)]
    earlier = Balances.from_entries(dict(zip(ids, range(19))), ids[:10])
    _, _, image = scenario._read_balances(earlier, 10, sum(range(19)), None, ())
    held = list(range(19)) + [7]
    held[3], held[12] = 0, 18
    later = Balances.from_entries(dict(zip(ids, held)), ids[:10])
    for written in ([3, 12, 19], [3, 12, 19, 0, 1]):
        total, members, patched = scenario._read_balances(later, 10, sum(held), image, written)
        assert total == sum(held) and members.tolist() == held[:10]
        assert patched.tolist() == held
    assert image.tolist() == list(range(19))
    held[12] = 2**63
    past = Balances.from_entries(dict(zip(ids, held)), ids[:10])
    total, _, dropped = scenario._read_balances(past, 10, 5, image, [3, 12, 19])
    assert total == sum(held) and dropped is None


def test_states_carry_an_image_only_below_int64(monkeypatch):
    # at alpha = 0.99 the balances grow about 100-fold per epoch, so the run
    # passes poplets + N * credit = 2**63 within a few epochs; two transfers
    # among 40 accounts write fewer than a quarter of the entries, so the run
    # patches its image while it has one
    config = parse_config(
        {
            "policy": {"basic_income": 1.0, "demurrage_alpha": 0.99},
            "epochs": 12,
            "population": {"kind": "fixed", "N": 40},
            "seed": 3,
            "transfers": {"count_per_epoch": 2, "max_fraction": 0.5},
        }
    )
    # at each read: whether the run comes with an image, whether the one the
    # read returns is None or equal to held, and the bound
    seen = []
    real_read = scenario._read_balances

    def recording_read(balances, members, poplets, image, written):
        carried = image is not None
        total, values, image = real_read(balances, members, poplets, image, written)
        bound = sum(balances.values()) + balances.count * balances.credit
        seen.append((carried, image is None or image.tolist() == balances.held, bound))
        return total, values, image

    monkeypatch.setattr(scenario, "_read_balances", recording_read)
    final_state(scenario.run_epochs(config))
    assert seen[0][2] < 2**63 <= seen[-1][2]
    assert all(equal for _, equal, _ in seen)
    # the epoch after a read below the bound patches the image; after one past it, none
    for (_, _, bound), (has_image, _, _) in zip(seen, seen[1:]):
        assert has_image == (bound < 2**63)


@pytest.mark.parametrize(
    "start, stop",
    [(0, 0), (7, 7), (5, 3), (0, 1), (99, 101), (37, 250), (0, 10_000), (10**8 - 10, 10**8)],
)
def test_account_ids_are_the_ids_of_their_positions(start, stop):
    # built a hundred to one prefix, they must be p%08d of each position
    assert list(scenario._account_ids(start, stop)) == list(
        map(scenario._account_id, range(start, stop))
    )


@pytest.mark.parametrize(
    "population",
    [
        {"kind": "step_shock", "N0": 3, "factor": 2.5, "at_epoch": 2},
        {"kind": "degrowth", "N0": 8, "n": -0.2},
        {"kind": "fixed", "N": 4},
        {"kind": "exponential", "N0": 2, "n": 0.3},
        {"kind": "logistic", "N0": 2, "K": 9, "rate": 0.8},
    ],
)
def test_the_balances_keep_the_accounts_in_creation_order(population):
    # a run opens p0 .. p(peak - 1) in id order, and its census is the first N_t
    config = parse_config({**GOOD_CONFIG, "population": population, "outputs": []})
    path = census_path(population, GOOD_CONFIG["epochs"])
    final = final_state(scenario.run_epochs(config))
    ids = [f"p{i:08d}" for i in range(max(path))]
    assert list(final.balances) == ids
    assert final.participants == frozenset(ids[: path[-1]])


@pytest.mark.parametrize("path", [[5, 3, 6], [4, 2, 2, 5]])
def test_a_census_that_grows_again_re_admits_its_dormant_holders(monkeypatch, path):
    # No admitted census kind shrinks and then grows; a patched path shows that
    # the census at epoch t is p0 .. p(N_t - 1), dormant holders re-admitted first.
    monkeypatch.setattr(scenario, "census_path", lambda population, epochs: path)
    minted = []

    def recording_mint(state, *args, **kwargs):
        # the balances as minted: the transfer mix then writes the state's ``held``
        before = dict(state.balances)  # before the mint, which writes the state in place
        after, report = mint_epoch_poplet(state, *args, **kwargs)
        record = before, dict(after.balances), after.participants
        minted.append((*record, report.issued_per_participant))
        return after, report

    monkeypatch.setattr(scenario, "mint_epoch_poplet", recording_mint)
    transfers = {"count_per_epoch": 6, "max_fraction": 0.5}
    config = parse_config({**GOOD_CONFIG, "epochs": len(path) - 1, "transfers": transfers})
    final = final_state(scenario.run_epochs(config))
    ids = [f"p{i:08d}" for i in range(max(path))]
    assert final.participants == frozenset(ids[: path[-1]])
    assert list(final.balances) == ids
    for t, (before, after, participants, issued) in enumerate(minted, start=1):
        assert list(after) == ids[: max(path[: t + 1])]
        assert participants == frozenset(ids[: path[t]])
        # each member is credited this epoch, a re-admitted holder too; no one else
        for account, poplets in after.items():
            credited = issued if account in participants else 0
            assert poplets == before.get(account, 0) + credited, (t, account)
    # a fold of the ledger API over the same id-range deltas, one epoch of draws at a time
    rng, state = SplitMix64(GOOD_CONFIG["seed"]), genesis(config.policy, ids[: path[0]], 10**8)
    for before, now in zip(path, path[1:]):
        moved = ids[min(before, now) : max(before, now)]
        joining, leaving = (moved, []) if now > before else ([], moved)
        state, _ = mint_epoch_poplet(state, config.policy, now, joining, leaving)
        draws = next(scenario._transfer_draws(rng, [len(state.balances)], 6))
        scenario._mix_transfers(state, draws, 6, Fraction(1, 2))
    assert final == state
    assert list(final.balances) == list(state.balances)


# fixed, shrinking, re-admitting, opening and fixed again
OWNERSHIP_PATH = [6, 6, 4, 4, 5, 8, 8, 3, 3]


def test_the_run_mixes_a_state_that_nothing_else_holds(monkeypatch):
    # the transfer mix writes ``held`` in place, so the run hands it the state
    # the mint just returned, and by then the state the mint read is gone
    monkeypatch.setattr(scenario, "census_path", lambda population, epochs: OWNERSHIP_PATH)
    real_mint, real_mix = scenario.mint_epoch_poplet, scenario._mix_transfers
    read, returned, mixed = [], [], []

    def keeping_mint(state, *args, **kwargs):
        read.append(weakref.ref(state))
        after, report = real_mint(state, *args, **kwargs)
        returned.append(weakref.ref(after))
        return after, report

    def checking_mix(state, *args):
        assert read[-1]() is None, len(read)
        assert state is returned[-1](), len(read)
        mixed.append(len(read))
        return real_mix(state, *args)

    monkeypatch.setattr(scenario, "mint_epoch_poplet", keeping_mint)
    monkeypatch.setattr(scenario, "_mix_transfers", checking_mix)
    epochs = len(OWNERSHIP_PATH) - 1
    config = parse_config({**GOOD_CONFIG, "epochs": epochs})
    final = final_state(scenario.run_epochs(config))
    assert mixed == list(range(1, epochs + 1))
    assert final is returned[-1]()


def test_no_epoch_copies_held(monkeypatch):
    # the work law: a fixed-census epoch shares ``held`` from mint to mix, and
    # an epoch that changes the census writes it in place, in the mint; no
    # epoch copies it
    copies = []

    class CountingList(list):
        """``held``, counting its copies; each copy is one too, so the run keeps counting."""

        def _copied(self, items):
            copies.append(len(items))
            return CountingList(items)

        def copy(self):
            return self._copied(list(self))

        __copy__ = copy

        def __add__(self, other):
            return self._copied(list.__add__(self, other))

        def __mul__(self, times):
            return self._copied(list.__mul__(self, times))

        def __getitem__(self, key):
            if isinstance(key, slice):
                return self._copied(list.__getitem__(self, key))
            return list.__getitem__(self, key)

    def counting_genesis(*args):
        state = genesis(*args)
        balances = state.balances
        counted = CountingList(balances.held)
        seeded = Balances(balances.index, counted, balances.flags, balances.count, 0)
        return LedgerState(0, state.rate, seeded)

    per_epoch = []  # the copies made so far, at each epoch's read of the balances
    real_read = scenario._read_balances

    def counting_read(balances, *args):
        assert type(balances.held) is CountingList
        per_epoch.append(len(copies))
        return real_read(balances, *args)

    monkeypatch.setattr(scenario, "census_path", lambda population, epochs: OWNERSHIP_PATH)
    config = parse_config({**GOOD_CONFIG, "epochs": len(OWNERSHIP_PATH) - 1})
    expected = final_state(scenario.run_epochs(config))
    monkeypatch.setattr(scenario, "genesis", counting_genesis)
    monkeypatch.setattr(scenario, "_read_balances", counting_read)
    final = final_state(scenario.run_epochs(config))
    assert final == expected and type(final.balances.held) is CountingList
    assert per_epoch == [0] * (len(OWNERSHIP_PATH) - 1) and copies == []


@pytest.mark.parametrize(
    "population, path",
    [
        ({"kind": "step_shock", "N0": 3, "factor": 2.5, "at_epoch": 2}, None),
        ({"kind": "degrowth", "N0": 8, "n": -0.2}, None),
        ({"kind": "fixed", "N": 4}, None),
        ({"kind": "exponential", "N0": 2, "n": 0.3}, None),
        ({"kind": "logistic", "N0": 2, "K": 9, "rate": 0.8}, None),
        # patched paths that shrink and grow again, re-admitting dormant holders
        ({"kind": "fixed", "N": 5}, [5, 3, 6]),
        ({"kind": "fixed", "N": 4}, [4, 2, 2, 5]),
    ],
    ids=["step_shock", "degrowth", "fixed", "exponential", "logistic", "5-3-6", "4-2-2-5"],
)
def test_each_mint_writes_only_the_ids_between_the_two_censuses(monkeypatch, population, path):
    # the run patches its image after each mint at the positions
    # min(N_{t-1}, N_t) .. max(N_{t-1}, N_t) - 1 alone, so every entry of
    # ``held`` that the mint changes or appends must lie there
    if path is not None:
        monkeypatch.setattr(scenario, "census_path", lambda population, epochs: path)
    writes = []  # per mint: the census before, after, and the positions it changed

    def recording_mint(state, *args, **kwargs):
        before = list(state.balances.held)  # the mint writes the run's ``held`` in place
        after, report = mint_epoch_poplet(state, *args, **kwargs)
        held = after.balances.held
        changed = {i for i, entry in enumerate(held) if i >= len(before) or entry != before[i]}
        writes.append((state.census, after.census, changed))
        return after, report

    monkeypatch.setattr(scenario, "mint_epoch_poplet", recording_mint)
    epochs = len(path) - 1 if path else GOOD_CONFIG["epochs"]
    config = parse_config({**GOOD_CONFIG, "population": population, "epochs": epochs})
    final_state(scenario.run_epochs(config))
    assert len(writes) == epochs
    for before, now, changed in writes:
        assert changed <= set(range(min(before, now), max(before, now))), (before, now)
    if population["kind"] != "fixed" or path:
        assert any(changed for _, _, changed in writes)


PEAK = 10**6


@st.composite
def census_populations(draw):
    """A population block with its params in its kind's ``POPULATION_FIELDS``
    domain, and an epoch count of at most 500 within which its census path
    stays at or below ``PEAK``."""
    kind = draw(st.sampled_from(scenario.POPULATION_KINDS))
    n0 = draw(st.integers(min_value=1, max_value=PEAK))
    if kind == "fixed":
        return {"kind": kind, "N": n0}, draw(st.integers(min_value=0, max_value=500))
    if kind == "step_shock":
        factor = st.floats(min_value=5e-324, max_value=PEAK / n0)
        population = {"kind": kind, "N0": n0, "factor": draw(factor | st.sampled_from([0.5, 1.0]))}
        population["at_epoch"] = draw(st.integers(min_value=1, max_value=501))
    elif kind == "logistic":
        capacity = st.integers(min_value=1, max_value=PEAK) | st.floats(min_value=1, max_value=PEAK)
        rate = st.floats(min_value=5e-324, max_value=100) | st.sampled_from([5e-324, 1e-300])
        population = {"kind": kind, "N0": n0, "K": draw(capacity), "rate": draw(rate)}
    else:
        edges = [-(2.0**-52), -0.5, -1 + 2.0**-53] + [2.0**-52] * (kind == "exponential")
        top = 1.0 if kind == "exponential" else -(2.0**-1074)
        growth = st.floats(min_value=-1, max_value=top, exclude_min=True) | st.sampled_from(edges)
        population = {"kind": kind, "N0": n0, "n": draw(growth)}
    path = census_path(population, draw(st.integers(min_value=0, max_value=500)))
    # the longest prefix of the path at or below the peak, as an epoch count
    return population, next((t - 1 for t, n in enumerate(path) if n > PEAK), len(path) - 1)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=census_populations())
@example(case=({"kind": "exponential", "N0": PEAK, "n": 2.0**-52}, 500))
@example(case=({"kind": "exponential", "N0": PEAK, "n": -(2.0**-52)}, 500))
@example(case=({"kind": "exponential", "N0": PEAK, "n": -0.5}, 500))
@example(case=({"kind": "degrowth", "N0": PEAK, "n": -(2.0**-52)}, 500))
@example(case=({"kind": "degrowth", "N0": 3, "n": -0.5}, 500))
@example(case=({"kind": "logistic", "N0": PEAK, "K": 1, "rate": 0.1}, 500))  # K < N0
@example(case=({"kind": "logistic", "N0": 1, "K": PEAK, "rate": 5e-324}, 500))
@example(case=({"kind": "logistic", "N0": 7, "K": 5000.5, "rate": 1e-300}, 500))
@example(case=({"kind": "step_shock", "N0": PEAK, "factor": 5e-324, "at_epoch": 3}, 500))
@example(case=({"kind": "step_shock", "N0": 9, "factor": 0.5, "at_epoch": 1}, 500))
def test_every_admitted_census_path_is_monotone(case):
    # A run re-admits a dormant holder only when its census shrinks and then
    # grows, which no admitted census path does.
    population, epochs = case
    policy = {"basic_income": 1, "demurrage_alpha": 0.5}
    config = parse_config({"policy": policy, "epochs": epochs, "population": population})
    path = census_path(config.normalized["population"], epochs)
    assert max(path) <= PEAK
    steps = [now - before for before, now in zip(path, path[1:])]
    assert all(step >= 0 for step in steps) or all(step <= 0 for step in steps), population


def final_state(records):
    """The final ledger state, which ``run_epochs`` returns after its last record."""
    with pytest.raises(StopIteration) as done:
        while True:
            next(records)
    return done.value.value


def test_members_holding_value_have_a_finite_gini_below_the_normal_floats():
    # E passes below 2**-1022 at epoch 300 and float(E) is 0 from epoch 316,
    # while all three members hold about 1e-20 each
    config = parse_config(
        {
            "policy": {"basic_income": 1e-20, "demurrage_alpha": 0.9},
            "epochs": 330,
            "population": {"kind": "fixed", "N": 3},
            "seed": 3,
            "transfers": {"count_per_epoch": 2, "max_fraction": 0.5},
        }
    )
    records = list(scenario.run_epochs(config))
    assert min(record.rate for record in records) == 0.0
    for record in records:
        if record.total > 0:
            assert math.isfinite(record.metrics[0]), record.macro.epoch


# --- census blocks -------------------------------------------------------------


def _record_bits(record):
    """Every field of an ``EpochRecord``: ints as they are, floats by ``.hex()``."""
    fields = (*dataclasses.astuple(record.macro), record.rate, record.total, *record.metrics)
    return [field.hex() if isinstance(field, float) else field for field in fields]


def _blocked_run(config):
    """The records of a run, bit by bit, the rows of each ``block_metrics``
    pass it made, and its final state."""
    rows = []
    real_block_metrics = scenario.block_metrics

    def recording_block_metrics(block):
        rows.append(len(block))
        return real_block_metrics(block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "block_metrics", recording_block_metrics)
        records = scenario.run_epochs(config)
        bits = []
        with pytest.raises(StopIteration) as done:
            while True:
                bits.append(_record_bits(next(records)))
    return bits, rows, done.value.value


BLOCK_POPULATIONS = {
    # 300 members: blocks of 13 epochs, the last one cut short by the run's end
    "fixed": lambda epochs: {"kind": "fixed", "N": 300},
    # 40 members, then 100 from the last epoch on: a census change at the last epoch
    "step_shock": lambda epochs: {
        "kind": "step_shock", "N0": 40, "factor": 2.5, "at_epoch": max(epochs, 1)
    },
    # growth that levels off, so blocks lengthen as the run goes
    "logistic": lambda epochs: {"kind": "logistic", "N0": 5, "K": 60, "rate": 0.3},
    # about one member fewer per epoch: blocks of at most 4 epochs (4 * 900 <= 4096)
    "degrowth": lambda epochs: {"kind": "degrowth", "N0": 900, "n": -0.001},
}


@pytest.mark.parametrize("epochs", [0, 1, 30])
@pytest.mark.parametrize("kind", sorted(BLOCK_POPULATIONS))
def test_records_do_not_depend_on_the_block_bound(monkeypatch, kind, epochs):
    config = parse_config(
        {
            **GOOD_CONFIG,
            "epochs": epochs,
            "population": BLOCK_POPULATIONS[kind](epochs),
            "transfers": {"count_per_epoch": 20, "max_fraction": 0.5},
        }
    )
    path = census_path(config.normalized["population"], epochs)
    blocked, rows, final = _blocked_run(config)
    # each block is a run of epochs that share a census, at most 4096 values
    assert sum(rows) == len(blocked) == epochs
    start = 1
    for count in rows:
        assert len(set(path[start : start + count])) == 1
        assert count == 1 or count * path[start] <= 4096
        start += count
    if epochs == 30 and kind != "step_shock":
        assert max(rows) > 1
    monkeypatch.setattr(scenario, "_BLOCK_VALUES", 1)
    alone, rows_alone, final_alone = _blocked_run(config)
    assert rows_alone == [1] * epochs
    assert blocked == alone
    assert final == final_alone


_SIZES = st.integers(min_value=1, max_value=5000)
# every population kind, over at most 60 epochs
_POPULATIONS = st.one_of(
    st.builds(lambda n: {"kind": "fixed", "N": n}, _SIZES),
    st.builds(
        lambda n0, growth: {"kind": "exponential", "N0": n0, "n": growth},
        _SIZES, st.floats(min_value=-0.5, max_value=0.5),
    ),
    st.builds(
        lambda n0, cap, rate: {"kind": "logistic", "N0": n0, "K": cap, "rate": rate},
        _SIZES, _SIZES, st.floats(min_value=0.01, max_value=2.0),
    ),
    st.builds(
        lambda n0, factor, at: {"kind": "step_shock", "N0": n0, "factor": factor, "at_epoch": at},
        _SIZES, st.floats(min_value=0.01, max_value=10.0), st.integers(min_value=1, max_value=60),
    ),
    st.builds(
        lambda n0, growth: {"kind": "degrowth", "N0": n0, "n": growth},
        _SIZES, st.floats(min_value=-0.5, max_value=-0.001),
    ),
)
_CENSUS_PATHS = st.one_of(
    st.builds(census_path, _POPULATIONS, st.integers(min_value=0, max_value=60)),
    # patched paths, which shrink and grow again as no population kind does
    st.lists(_SIZES | st.integers(min_value=1, max_value=8), min_size=1, max_size=60),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(path=_CENSUS_PATHS, bound=st.sampled_from([1, 7, 4096]))
@example(path=[3, 3, 3, 2, 2, 3, 3, 3], bound=7)  # two epochs of 3 fill a block of 7
@example(path=[5000], bound=4096)  # no epoch, no block
def test_census_blocks_cover_the_epochs_in_order(path, bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "_BLOCK_VALUES", bound)
        blocks = list(scenario._census_blocks(path))
    epochs = [t for start, length in blocks for t in range(start, start + length)]
    assert epochs == list(range(1, len(path)))
    for start, length in blocks:
        census, end = path[start], start + length
        assert length >= 1 and set(path[start:end]) == {census}
        assert length == 1 or length * census <= bound
        # a block ends only at the last epoch, a census change, or when full
        assert end == len(path) or path[end] != census or (length + 1) * census > bound


def _failing_at_epoch(monkeypatch, where, epoch):
    """Make the run fail at ``epoch``: a rounding residue past its bound, or
    a negative member value, which the metrics reject."""
    if where == "residue":
        real_mint = scenario.mint_epoch_poplet

        def mint(state, params, census, *deltas, **kwargs):
            state, report = real_mint(state, params, census, *deltas, **kwargs)
            if state.epoch == epoch:
                report = dataclasses.replace(report, rounding_residue_poplets=census)
            return state, report

        monkeypatch.setattr(scenario, "mint_epoch_poplet", mint)
    else:
        real_values = scenario._member_values
        epochs = itertools.count(1)

        def member_values(*args):
            values = real_values(*args)
            if next(epochs) == epoch:
                values[-1] = -1.0
            return values

        monkeypatch.setattr(scenario, "_member_values", member_values)


@pytest.mark.parametrize("where", ["residue", "values"])
@pytest.mark.parametrize("bound", [4096, 1])
def test_a_check_fails_after_the_records_of_the_epochs_before_it(monkeypatch, where, bound):
    # 20 members share a census for 12 epochs, so the default bound makes one
    # block of them and the failing epoch 7 is in its middle: the residue check
    # raises before the block is measured, and the metrics reject epoch 7's
    # row after the rows before it. With one epoch per block, the records of
    # epochs 1-6 come first either way.
    monkeypatch.setattr(scenario, "_BLOCK_VALUES", bound)
    _failing_at_epoch(monkeypatch, where, 7)
    config = parse_config({**GOOD_CONFIG, "epochs": 12, "population": {"kind": "fixed", "N": 20}})
    epochs = []
    if where == "residue":
        error, match = scenario.InvariantViolation, "epoch 7: issuance rounding"
    else:
        error, match = ValueError, "balances must be non-negative"
    with pytest.raises(error, match=match):
        for record in scenario.run_epochs(config):
            epochs.append(record.macro.epoch)
    before = bound == 1 or where == "values"
    assert epochs == (list(range(1, 7)) if before else [])


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_benchmark_seams_are_scenario_attributes():
    # perfbench wraps these names of the scenario module, which the epoch
    # loop looks up at call time; the unused oracle imports are among them
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in (*spans.SEAMS, "_mix_transfers", "SplitMix64"):
        assert callable(getattr(scenario, name, None)), name


def test_one_run_calls_every_seam_the_benchmark_times(tmp_path, monkeypatch):
    """perfbench/spans.py times a run by wrapping these scenario attributes, and
    its layer metrics need a mint span in every epoch. A run with transfers and
    all four studies calls the mint and the transfer mix once per epoch, and
    each writer and bound at least once. ROADMAP item 1, which moves the spans
    onto the calls the epoch generator makes, replaces this test."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    once_per_epoch = ("mint_epoch_poplet", "_mix_transfers")
    at_least_once = (
        "_write_csv", "_write_json", "_write_text", "gini_bound", "variance_bound", "ratio_bound"
    )
    for name in (*once_per_epoch, *at_least_once):
        monkeypatch.setattr(scenario, name, counted(name, getattr(scenario, name)))
    epochs = 6
    outputs = [{"study": study} for study in scenario.STUDIES if study != "agent"]
    outputs.append({"study": "agent", "params": {"problems": [{"basic_income": 10.0}]}})
    run_scenario(parse_config({**GOOD_CONFIG, "epochs": epochs, "outputs": outputs}), tmp_path)
    for name in once_per_epoch:
        assert calls[name] == epochs, name
    for name in at_least_once:
        assert calls[name] >= 1, name


def test_dormant_holders_appear_after_degrowth(tmp_path):
    config = parse_config(
        {
            "policy": {"basic_income": 2922, "demurrage_alpha": 0.02},
            "epochs": 4,
            "population": {"kind": "degrowth", "N0": 6, "n": -0.25},
            "outputs": [],
        }
    )
    run_scenario(config, tmp_path)
    final = state_from_json((tmp_path / "final_state.json").read_text())
    assert final.census < len(final.balances)  # removed holders kept balances
    text = (tmp_path / "final_state.json").read_text()
    assert '"participants"' in text
