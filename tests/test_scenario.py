"""Scenario-runner tests: census paths, config validation, output files,
reproducibility, and the deterministic RNG contract."""

import csv
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from pytest import approx

from popcoin_sim import (
    ConfigError,
    SplitMix64,
    census_path,
    emit_plot_data,
    load_config,
    parse_config,
    run_scenario,
    scenario,
    state_from_json,
    validate_config,
)

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


def test_emit_plot_data_round_trips_rows():
    rows = [
        {"t": 1, "N": 5, "n": 0.0, "E": 1.0, "M_total": 2.0, "D": 3.0, "R": -0.02,
         "gini": 0.0, "variance": 0.0, "max_ratio": 1.0}
    ]
    long_rows = emit_plot_data(rows)
    assert [1, "N", 5] in long_rows
    assert [1, "R", -0.02] in long_rows
    assert len(long_rows) == 9


def test_plot_data_is_emit_plot_data_of_the_epoch_rows(tmp_path):
    # the run formats each epoch cell once and streams the plot rows from those
    # strings; the pure API must give the same bytes from rows read back, as
    # repr round-trips every float
    config = parse_config({**GOOD_CONFIG, "epochs": 12, "outputs": []})
    run_scenario(config, tmp_path, include_plot_data=True)
    header, *table = read_csv(tmp_path / "epochs.csv")
    rows = [
        {column: (int if column in ("t", "N") else float)(cell) for column, cell in zip(header, row)}
        for row in table
    ]
    buffer = io.StringIO()
    scenario.write_rows(buffer, ["t", "series", "value"], emit_plot_data(rows))
    assert buffer.getvalue().encode("utf-8") == (tmp_path / "plot_data.csv").read_bytes()


def test_format_cell_passes_strings_through():
    cell = repr(0.1)
    assert scenario._format_cell(cell) is cell
    assert [scenario._format_cell(v) for v in (True, 3, -0.0, float("inf"))] == [
        "true", "3", "0.0", "inf"
    ]


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
    den=st.integers(min_value=1, max_value=10**30),
)
@example(held=[2**53 + 1], dormant=0, num=1, den=1)  # the first int a float cannot hold
@example(held=[2**62 + 2**9], dormant=0, num=1, den=1)  # a tie, rounded to even
@example(held=[2**63 - 1], dormant=0, num=1, den=3)  # the largest int64
@example(held=[2**63 - 1], dormant=1, num=1, den=3)  # the same balance past the int64 total
@example(held=[2**63 + 2**11], dormant=0, num=1, den=1)  # one balance past int64
def test_member_values_are_float_of_each_balance_times_the_rate(held, dormant, num, den):
    # the view reads int64 while the exact total of all balances is below 2**63
    members = [f"p{i:08d}" for i in range(len(held))]
    balances = {**dict(zip(members, held)), "p99999999": dormant}
    rate = Fraction(num, den)
    values = scenario._member_values(balances, members, sum(balances.values()), rate, num / den)
    expected = np.array([float(balance) * (num / den) for balance in held])
    assert values.dtype == np.float64
    assert values.tobytes() == expected.tobytes()


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
