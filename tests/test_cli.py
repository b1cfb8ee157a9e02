"""CLI behavior: subcommands, exit codes, and the env-var logging knob."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import popcoin_sim
from popcoin_sim import scenario
from popcoin_sim.cli import main

CONFIG = {
    "policy": {"basic_income": 2922, "demurrage_alpha": 0.02},
    "epochs": 3,
    "population": {"kind": "fixed", "N": 4},
    "seed": 1,
    "transfers": {"count_per_epoch": 1, "max_fraction": 0.25},
    "outputs": [{"study": "supply"}],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_and_validate_happy_path(tmp_path, capsys):
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["validate", config]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "epochs.csv").exists()
    assert (tmp_path / "out" / "supply.csv").exists()


def test_run_rejects_census_path_overflow(tmp_path, capsys):
    # (1 + 1e6)^t leaves the floats after about 51 epochs
    bad = dict(CONFIG, epochs=60, population={"kind": "exponential", "N0": 3, "n": 1e6})
    config = write_json(tmp_path / "bad.json", bad)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_census_path_beyond_account_ids(tmp_path, capsys):
    bad = dict(
        CONFIG,
        epochs=5,
        population={"kind": "step_shock", "N0": 4, "factor": 1e300, "at_epoch": 2},
    )
    config = write_json(tmp_path / "bad.json", bad)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    assert "more than 100000000 accounts" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 3)])
def test_run_checks_the_rounding_residue_bound(tmp_path, capsys, monkeypatch, excess, code):
    # half a poplet per participant, rounded: at most (N + 1) // 2 in all
    real_mint = scenario.mint_epoch_poplet

    def mint_with_residue(state, params, census, *deltas):
        state, report = real_mint(state, params, census, *deltas)
        residue = -((census + 1) // 2 + excess)
        return state, dataclasses.replace(report, rounding_residue_poplets=residue)

    monkeypatch.setattr(scenario, "mint_epoch_poplet", mint_with_residue)
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == code
    assert ("rounding residue of -3 poplets" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize("dropped, code", [(0, 0), (1, 3)])
def test_run_checks_the_poplet_total_after_the_transfer_mix(
    tmp_path, capsys, monkeypatch, dropped, code
):
    # one poplet is worth far less than the supply tolerance: only the exact
    # count of issued poplets sees it go
    real_mix = scenario._mix_transfers

    def mix_dropping(state, rng, count, frac):
        state = real_mix(state, rng, count, frac)
        balances = dict(state.balances)
        balances[max(balances, key=balances.get)] -= dropped
        return dataclasses.replace(state, balances=balances)

    monkeypatch.setattr(scenario, "_mix_transfers", mix_dropping)
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == code
    assert ("epoch 1: the ledger holds" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 3)])
def test_run_checks_the_poplet_total_against_the_reported_issuance(
    tmp_path, capsys, monkeypatch, extra, code
):
    # a mint whose report disagrees with what it credited
    real_mint = scenario.mint_epoch_poplet

    def mint_misreporting(state, params, census, *deltas):
        state, report = real_mint(state, params, census, *deltas)
        issued = report.issued_per_participant + extra
        return state, dataclasses.replace(report, issued_per_participant=issued)

    monkeypatch.setattr(scenario, "mint_epoch_poplet", mint_misreporting)
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == code
    assert ("epoch 1: the ledger holds" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize(
    "policy, epochs, census",
    [
        # 10^308 poplets at epoch 1 and twice that at epoch 2; the variance bound's
        # square ((1 - alpha) B / alpha)^2 passes the floats, and one account has no spread
        ({"basic_income": 1e300, "demurrage_alpha": 0.02}, 3, 1),
        # each balance gains a digit per epoch while its value stays near B / alpha
        ({"basic_income": 1, "demurrage_alpha": 0.9}, 400, 100),
    ],
    ids=["income-1e300", "alpha-0.9"],
)
def test_run_values_balances_past_the_floats(tmp_path, policy, epochs, census):
    doc = {
        "policy": policy,
        "epochs": epochs,
        "population": {"kind": "fixed", "N": census},
        "outputs": [{"study": "inequality"}],
    }
    config = write_json(tmp_path / "cfg.json", doc)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "final_state.json").read_text(encoding="utf-8")
    state = popcoin_sim.state_from_json(text)
    assert state.epoch == epochs
    assert max(state.balances.values()) > 2**1024  # past the largest float
    for name in ("epochs.csv", "inequality.csv"):
        with open(tmp_path / "out" / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == epochs
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())


@pytest.mark.parametrize("census, bound", [(1, "0.0"), (2, "inf")])
def test_run_writes_the_variance_bound_where_the_spread_is_inf(tmp_path, census, bound):
    # (1 - alpha) B / alpha is inf; the supply rule admits the run
    doc = {
        "policy": {"basic_income": 1e306, "demurrage_alpha": 0.001},
        "epochs": 1,
        "population": {"kind": "fixed", "N": census},
        "outputs": [{"study": "inequality"}],
    }
    config = write_json(tmp_path / "cfg.json", doc)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "inequality.csv", newline="", encoding="utf-8") as handle:
        (row,) = csv.DictReader(handle)
    assert row["variance_bound"] == bound


@pytest.mark.parametrize(
    "policy, epochs, population",
    [
        # alpha = 0: M_t = B * N * t, so the bound is the last epoch's supply
        ({"demurrage_alpha": 0}, 3, {"kind": "fixed", "N": 1}),
        # the bound takes the largest census, N_0 = 2: M_2 = 2 * 2B, then M_3 = 1 * 3B
        ({"demurrage_alpha": 0}, 3, {"kind": "step_shock", "N0": 2, "factor": 0.5, "at_epoch": 3}),
        # 1 / alpha = 2 epochs bounds the sum of (1 - alpha)^k
        ({"demurrage_alpha": 0.5}, 60, {"kind": "fixed", "N": 1}),
    ],
    ids=["alpha-0", "peak-census", "alpha-0.5"],
)
@pytest.mark.parametrize("scale, code", [(1 - 1e-12, 0), (1 + 1e-12, 2)], ids=["under", "over"])
def test_run_bounds_the_supply_by_the_largest_float(
    tmp_path, capsys, policy, epochs, population, scale, code
):
    horizon = 2 if policy["demurrage_alpha"] else epochs
    peak = population.get("N") or population["N0"]
    income = sys.float_info.max / (peak * horizon) * scale
    doc = {
        "policy": {"basic_income": income, **policy},
        "epochs": epochs,
        "population": population,
        "outputs": [{"study": "supply"}],
    }
    config = write_json(tmp_path / "cfg.json", doc)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == code
    if code == 2:
        assert capsys.readouterr().err.splitlines() == [
            "policy: the money supply, up to B * max(N_t) * min(epochs, 1/alpha), "
            f"passes the largest float within {epochs} epochs"
        ]
        assert not (tmp_path / "out").exists()
        return
    with open(tmp_path / "out" / "epochs.csv", newline="", encoding="utf-8") as handle:
        totals = [float(row["M_total"]) for row in csv.DictReader(handle)]
    assert all(math.isfinite(total) for total in totals)
    assert max(totals) > sys.float_info.max / 2  # the runs come near the limit


def test_run_writes_a_snapshot_past_the_int_digit_limit(tmp_path):
    # the rate denominator 50^2600 * 10^8 has 4426 digits, past the 4300 of int -> str
    doc = {
        "policy": {"basic_income": 2922.0, "demurrage_alpha": 0.02},
        "epochs": 2600,
        "population": {"kind": "fixed", "N": 10},
        "seed": 1,
    }
    config = write_json(tmp_path / "cfg.json", doc)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "final_state.json").read_text(encoding="utf-8")
    state = popcoin_sim.state_from_json(text)
    assert state.epoch == 2600
    assert state.exchange_rate == Fraction(49**2600, 50**2600 * 10**8)  # (1 - alpha)^t / scale


@pytest.mark.parametrize("scale, code", [(0.999, 0), (1.001, 3)])
def test_run_checks_the_ledger_supply_against_the_recurrence(
    tmp_path, capsys, monkeypatch, scale, code
):
    # the epoch-1 total may deviate by peak * t * E plus 1e-9 of the supply
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "ref")]) == 0
    with open(tmp_path / "ref" / "epochs.csv", newline="", encoding="utf-8") as handle:
        first = next(csv.DictReader(handle))
    total, rate = float(first["M_total"]), float(first["E"])
    tolerance = CONFIG["population"]["N"] * 1 * rate + 1e-9 * total
    real_macro = scenario.run_macro

    def macro_off_by(*args):
        states = real_macro(*args)
        states[0] = dataclasses.replace(states[0], supply=total + scale * tolerance)
        return states

    monkeypatch.setattr(scenario, "run_macro", macro_off_by)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == code
    assert ("epoch 1: ledger supply" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize(
    "name, limit, config",
    [
        ("epochs", scenario.MAX_EPOCHS, lambda value: dict(CONFIG, epochs=value)),
        (
            "transfers.count_per_epoch",
            scenario.MAX_TRANSFERS_PER_EPOCH,
            lambda value: dict(CONFIG, transfers={"count_per_epoch": value, "max_fraction": 0.25}),
        ),
    ],
    ids=["epochs", "transfers"],
)
def test_validate_bounds_the_run_size(tmp_path, capsys, name, limit, config):
    # validation only: a run at these sizes would allocate for each epoch or draw
    assert main(["validate", write_json(tmp_path / "at.json", config(limit))]) == 0
    assert main(["validate", write_json(tmp_path / "above.json", config(limit + 1))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{name}: must be at most {limit}, got {limit + 1}"
    ]


def test_validate_bad_config_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG))
    bad["policy"]["demurrage_alpha"] = 2.0
    config = write_json(tmp_path / "bad.json", bad)
    assert main(["validate", config]) == 2
    assert "demurrage_alpha" in capsys.readouterr().err


def test_run_bad_config_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG))
    del bad["population"]
    config = write_json(tmp_path / "bad.json", bad)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    assert "population" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


UNREADABLE = {
    "missing": (None, "file not found"),
    "directory": ("dir", "cannot be read (Is a directory)"),
    "not-utf8": (b"\xff\xfe{}", "not valid JSON ('utf-8' codec can't decode"),
    "not-json": (b"{", "not valid JSON (Expecting"),
    "long-integer": (b"[" + b"9" * 4301 + b"]", "not valid JSON (Exceeds the limit (4300"),
    "deep-nesting": (b"[" * 100_000 + b"]" * 100_000, "not valid JSON (maximum recursion depth"),
}


@pytest.mark.parametrize("command", ["run", "validate", "agent", "exchange"])
@pytest.mark.parametrize("content, diagnostic", UNREADABLE.values(), ids=UNREADABLE)
def test_unreadable_input_is_one_diagnostic(tmp_path, capsys, command, content, diagnostic):
    path = tmp_path / "input.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{path}: {diagnostic}")
    assert not (tmp_path / "out").exists()


def test_agent_batch_to_stdout(tmp_path, capsys):
    problems = [
        {"basic_income": 10.0, "earned_income": 0.0, "interest_rate": -0.02},
        {"basic_income": 10.0, "earned_income": 100.0, "interest_rate": -0.02},
    ]
    path = write_json(tmp_path / "problems.json", problems)
    assert main(["agent", path, "--alpha", "0.02"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "in1,out1,savings,tax_rate"
    assert len(out) == 3
    assert float(out[1].split(",")[3]) == 0.0


def test_agent_accepts_wrapped_input_and_writes_file(tmp_path, capsys):
    doc = {
        "demurrage_alpha": 0.02,
        "problems": [{"basic_income": 5.0, "earned_income": 20.0, "interest_rate": -0.02}],
    }
    path = write_json(tmp_path / "problems.json", doc)
    out_file = tmp_path / "agent.csv"
    assert main(["agent", path, "--out", str(out_file)]) == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "in1,out1,savings,tax_rate"
    assert len(lines) == 2


def test_agent_rejects_bad_problem(tmp_path, capsys):
    path = write_json(tmp_path / "problems.json", [{"basic_income": -1}])
    assert main(["agent", path]) == 2
    assert "basic_income" in capsys.readouterr().err


def test_exchange_grid_to_dir(tmp_path):
    doc = {"fiat_supply_shocks": [0.0, 0.1], "elasticities": [1.0]}
    path = write_json(tmp_path / "scen.json", doc)
    assert main(["exchange", path, "--out", str(tmp_path / "ex")]) == 0
    summary = json.loads((tmp_path / "ex" / "exchange_summary.json").read_text())
    assert summary["cases"] == 2
    assert summary["all_positive_shocks_overshoot"] is True


def test_exchange_invariant_violation_exits_3(tmp_path, capsys):
    # policy-side rate below the post-shock fiat rate breaks the ordering
    doc = {
        "scenario": {"money_supply_pop": 1.1},
        "fiat_supply_shocks": [0.01],
        "elasticities": [1.0],
    }
    path = write_json(tmp_path / "scen.json", doc)
    assert main(["exchange", path]) == 3
    assert "invariant" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "levels, diagnostic",
    [
        # M / (P * Y * L0) underflows to 0, so the rate -ln(0) / eta does not exist
        ({"income_pop": 1e300, "money_supply_pop": 1e-300}, "no money-market rate"),
        # L_f * Y_f underflows to 0, so the relative money demand does not exist
        (
            {
                "sticky_price_fiat": 1e300,
                "income_fiat": 1e-300,
                "liquidity_fiat": 1e-300,
                "money_supply_fiat": 1e-300,
            },
            "no long-run anchor",
        ),
        # M_p / M_f underflows to 0, so the anchor is 0
        (
            {
                "money_supply_pop": 1e-300,
                "money_supply_fiat": 1e300,
                "sticky_price_pop": 1e-300,
                "sticky_price_fiat": 1e300,
            },
            "no long-run anchor",
        ),
    ],
    ids=["money-market-rate", "relative-demand", "anchor"],
)
def test_exchange_without_money_market_equilibrium_exits_3(tmp_path, capsys, levels, diagnostic):
    path = write_json(tmp_path / "scen.json", {"scenario": levels})
    assert main(["exchange", path]) == 3
    assert diagnostic in capsys.readouterr().err


def test_exchange_rejects_policy_shock_key(tmp_path, capsys):
    doc = {"pop_supply_shocks": [0.1]}
    path = write_json(tmp_path / "scen.json", doc)
    assert main(["exchange", path]) == 2
    assert "census-determined" in capsys.readouterr().err


def run_child(args, **env):
    """Run the CLI in a child process with only ``env`` (and PYTHONPATH) set."""
    # the child must import the same package as this process, installed or not
    src_dir = str(Path(popcoin_sim.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "popcoin_sim.cli", *args],
        capture_output=True,
        text=True,
        env={"PATH": "", "PYTHONPATH": pythonpath, **env},
    )


def test_log_env_var_controls_verbosity(tmp_path):
    config = write_json(tmp_path / "cfg.json", CONFIG)
    quiet = run_child(["run", config, "--out", str(tmp_path / "q")], POPCOIN_SIM_LOG="warning")
    chatty = run_child(["run", config, "--out", str(tmp_path / "v")], POPCOIN_SIM_LOG="info")
    assert quiet.returncode == 0 and chatty.returncode == 0
    assert "run complete" not in quiet.stderr
    assert "run complete" in chatty.stderr
    # verbosity must not change the artifacts
    assert (tmp_path / "q" / "epochs.csv").read_bytes() == (
        tmp_path / "v" / "epochs.csv"
    ).read_bytes()


def test_missing_keys_reported_once_each_in_table_order(tmp_path):
    # the hash seeds 1 and 4 ordered a set of these keys differently
    bad = dict(CONFIG, population={"kind": "logistic"})
    config = write_json(tmp_path / "bad.json", bad)
    runs = [run_child(["validate", config], PYTHONHASHSEED=seed) for seed in ("1", "4")]
    assert [run.returncode for run in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.splitlines() == [
        f"population.{key}: required for kind 'logistic'" for key in ("N0", "K", "rate")
    ]


@pytest.mark.parametrize(
    "command, doc, diagnostic",
    [
        (
            "run",
            dict(CONFIG, policy={"basic_income": math.inf, "demurrage_alpha": 0.02}),
            "policy.basic_income: must be a positive number, got inf",
        ),
        (
            "exchange",
            {"scenario": {"income_pop": math.inf}},
            "input.scenario.income_pop: must be a number, got inf",
        ),
        (
            "exchange",
            {"fiat_supply_shocks": [math.inf]},
            "input.fiat_supply_shocks: must be a non-empty list of numbers >= 0",
        ),
        (
            "agent",
            [{"basic_income": 10.0, "earned_income": math.inf}],
            "problems[0].earned_income: must be a number >= 0, got inf",
        ),
        (
            "run",
            dict(CONFIG, policy={"basic_income": 10**400, "demurrage_alpha": 0.02}),
            f"policy.basic_income: must be a positive number, got {10**400}",
        ),
        (
            "agent",
            [{"basic_income": 10.0, "earned_income": 10**400}],
            f"problems[0].earned_income: must be a number >= 0, got {10**400}",
        ),
    ],
    ids=["run", "exchange-scenario", "exchange-shocks", "agent", "run-int", "agent-int"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, doc, diagnostic):
    # json writes these as Infinity, which Python's json module reads back; an
    # integer past the float range is as unusable
    path = write_json(tmp_path / "input.json", doc)
    out_dir = tmp_path / "out"
    assert main([command, path, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [diagnostic]
    assert not out_dir.exists()
