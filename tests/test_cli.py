"""CLI behavior: subcommands, exit codes, and the env-var logging knob."""

import csv
import dataclasses
import errno
import io
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


def add_to_richest(state, poplets):
    """Add ``poplets`` to the richest account's entry of the ``held`` list the
    transfer mix writes in place; return its position, for the run to read."""
    balances = state.balances
    position = balances.index[max(balances, key=balances.get)]
    balances.held[position] += poplets
    return position


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

    def mint_with_residue(state, params, census, *deltas, **kwargs):
        state, report = real_mint(state, params, census, *deltas, **kwargs)
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
        written = real_mix(state, rng, count, frac)
        return [*written, add_to_richest(state, -dropped)]

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

    def mint_misreporting(state, params, census, *deltas, **kwargs):
        state, report = real_mint(state, params, census, *deltas, **kwargs)
        issued = report.issued_per_participant + extra
        return state, dataclasses.replace(report, issued_per_participant=issued)

    monkeypatch.setattr(scenario, "mint_epoch_poplet", mint_misreporting)
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == code
    assert ("epoch 1: the ledger holds" in capsys.readouterr().err) == (code == 3)


def test_the_poplet_total_check_prints_counts_past_the_int_to_str_limit(
    tmp_path, capsys, monkeypatch
):
    real_mix = scenario._mix_transfers

    def mix_creating(state, rng, count, frac):
        written = real_mix(state, rng, count, frac)
        return [*written, add_to_richest(state, 10**5000)]

    monkeypatch.setattr(scenario, "_mix_transfers", mix_creating)
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "epoch 1: the ledger holds 1000000000" in err
    assert len(err) > 5000


def test_balances_past_the_int_to_str_limit_are_written_and_read_back(tmp_path):
    # at alpha = 0.99 each balance grows about 100-fold per epoch
    doc = {
        "policy": {"basic_income": 1.0, "demurrage_alpha": 0.99},
        "epochs": 2400,
        "population": {"kind": "fixed", "N": 2},
    }
    out = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "cfg.json", doc), "--out", str(out)]) == 0
    text = (out / "final_state.json").read_text(encoding="utf-8")
    state = popcoin_sim.state_from_json(text)
    assert popcoin_sim.state_to_json(state) + "\n" == text
    assert min(state.balances.values()) > 10**4800


def test_an_invariant_violation_at_epoch_1_writes_no_file(tmp_path, capsys, monkeypatch):
    # every epoch is checked before the first file is written
    real_mix = scenario._mix_transfers

    def mix_dropping_at_epoch_1(state, rng, count, frac):
        written = real_mix(state, rng, count, frac)
        return [*written, add_to_richest(state, -1)] if state.epoch == 1 else written

    monkeypatch.setattr(scenario, "_mix_transfers", mix_dropping_at_epoch_1)
    config = write_json(tmp_path / "cfg.json", dict(CONFIG, epochs=5))
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 3
    assert "epoch 1: the ledger holds" in capsys.readouterr().err
    assert not out.exists()  # the run made it, and removes it


def test_a_failing_study_writes_no_file(tmp_path, capsys):
    # the exchange study fails after the last epoch: the policy-side rate
    # below the post-shock fiat rate breaks the ordering
    study = {
        "study": "exchange",
        "params": {
            "scenario": {"money_supply_pop": 1.1},
            "fiat_supply_shocks": [0.01],
            "elasticities": [1.0],
        },
    }
    config = write_json(tmp_path / "cfg.json", dict(CONFIG, outputs=[{"study": "supply"}, study]))
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 3
    assert "invariant" in capsys.readouterr().err.lower()
    assert not out.exists()  # the run made it, and removes it


def _all_studies(epochs: int) -> dict:
    problems = [{"basic_income": 10.0, "earned_income": 5.0}]
    return dict(
        CONFIG,
        epochs=epochs,
        outputs=[
            {"study": "supply"},
            {"study": "inequality"},
            {"study": "exchange"},
            {"study": "agent", "params": {"problems": problems}},
        ],
    )


def _earlier_out(tmp_path):
    """An out directory holding an earlier run's nine files and a file of the
    user's, and its files' bytes by name."""
    out = tmp_path / "out"
    earlier = write_json(tmp_path / "earlier.json", dict(_all_studies(4), seed=2))
    assert main(["run", earlier, "--out", str(out), "--plot-data"]) == 0
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == sorted([*scenario.RUN_FILES, "notes.txt"])
    return out, before


@pytest.mark.parametrize("failure", ["check at epoch 7", "exchange study"])
def test_a_failed_run_leaves_the_out_directory_as_it_was(tmp_path, capsys, monkeypatch, failure):
    # every output is staged inside out, and only a run that passes publishes them
    out, before = _earlier_out(tmp_path)
    doc = _all_studies(12)
    if failure == "exchange study":  # fails after the last epoch, as above
        doc["outputs"][2]["params"] = {
            "scenario": {"money_supply_pop": 1.1},
            "fiat_supply_shocks": [0.01],
            "elasticities": [1.0],
        }
    else:
        real_mix = scenario._mix_transfers

        def mix_dropping_at_epoch_7(state, rng, count, frac):
            written = real_mix(state, rng, count, frac)
            return [*written, add_to_richest(state, -1)] if state.epoch == 7 else written

        monkeypatch.setattr(scenario, "_mix_transfers", mix_dropping_at_epoch_7)
    config = write_json(tmp_path / "cfg.json", doc)
    assert main(["run", config, "--out", str(out), "--plot-data"]) == 3
    err = capsys.readouterr().err
    assert ("epoch 7: the ledger holds" in err) == (failure == "check at epoch 7")
    after = {path.name: path.read_bytes() if path.is_file() else None for path in out.iterdir()}
    assert after == before


@pytest.mark.parametrize("writer", ["_write_text", "_write_json", "_write_csv"])
def test_a_full_disk_leaves_the_out_directory_as_it_was(tmp_path, capsys, monkeypatch, writer):
    # a full disk reports ENOSPC with no file name; the run writes every output
    # into its staging directory before it publishes any
    out, before = _earlier_out(tmp_path)

    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(scenario, writer, full)
    problems = [{"basic_income": 10.0, "earned_income": 5.0}]
    agent = {"study": "agent", "params": {"problems": problems}}
    doc = dict(CONFIG, outputs=[{"study": "supply"}, agent])
    assert main(["run", write_json(tmp_path / "cfg.json", doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{out}: cannot be written (No space left on device)\n"
    after = {path.name: path.read_bytes() if path.is_file() else None for path in out.iterdir()}
    assert after == before


@pytest.mark.parametrize("parent_exists", [False, True])
@pytest.mark.parametrize("failure", ["exchange study", "full disk"])
def test_a_failed_run_removes_the_directories_it_made(
    tmp_path, capsys, monkeypatch, failure, parent_exists
):
    # an --out below a directory that does not exist is made with its parent;
    # a failed run removes both, and a parent that existed stays
    parent = tmp_path / "newparent"
    if parent_exists:
        parent.mkdir()
    if failure == "exchange study":  # fails after the last epoch, as above
        params = {"scenario": {"money_supply_pop": 1.1}, "fiat_supply_shocks": [0.01],
                  "elasticities": [1.0]}
        outputs, code = [{"study": "exchange", "params": params}], 3
    else:
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(scenario, "_write_json", full)
        outputs, code = [{"study": "supply"}], 2
    config = write_json(tmp_path / "cfg.json", dict(CONFIG, outputs=outputs))
    assert main(["run", config, "--out", str(parent / "out")]) == code
    assert parent.exists() == parent_exists
    assert not (parent / "out").exists()


@pytest.mark.parametrize(
    "error, line",
    [
        (RuntimeError("boom"), "internal error: RuntimeError: boom"),
        (MemoryError("out of memory"), "internal error: MemoryError: out of memory"),
        (MemoryError(), "internal error: MemoryError"),
    ],
)
def test_an_unexpected_exception_exits_3_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    def failing_run(*args, **kwargs):
        raise error

    monkeypatch.setattr(popcoin_sim.cli, "run_scenario", failing_run)
    config = write_json(tmp_path / "cfg.json", CONFIG)
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


RAISING_CHILD = """\
import sys
from popcoin_sim import cli

def failing_run(*args, **kwargs):
    raise {error}

cli.run_scenario = failing_run
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("error", ["RuntimeError('boom')", "MemoryError('cannot allocate')"])
def test_the_traceback_of_an_internal_error_prints_only_at_debug(tmp_path, error):
    config = write_json(tmp_path / "cfg.json", CONFIG)
    src_dir = str(Path(popcoin_sim.__file__).resolve().parent.parent)
    child = [sys.executable, "-c", RAISING_CHILD.format(error=error), "run", config, "--out",
             str(tmp_path / "out")]
    runs = {}
    for level in ("warning", "debug"):
        env = {"PATH": "", "PYTHONPATH": src_dir, "POPCOIN_SIM_LOG": level}
        runs[level] = subprocess.run(child, capture_output=True, text=True, env=env)
        assert runs[level].returncode == 3, runs[level].stderr
    name, message = error.split("(")[0], error.split("'")[1]
    assert runs["warning"].stderr == f"internal error: {name}: {message}\n"
    debug = runs["debug"].stderr
    assert debug.startswith(runs["warning"].stderr)
    assert "Traceback (most recent call last):" in debug
    assert debug.rstrip().endswith(f"{name}: {message}")
    assert not (tmp_path / "out").exists()


def test_a_study_listed_twice_exits_2_and_writes_no_file(tmp_path, capsys):
    grids = [{"fiat_supply_shocks": [0.1]}, {"fiat_supply_shocks": [0.2, 0.3]}]
    twice = dict(CONFIG, outputs=[{"study": "exchange", "params": grid} for grid in grids])
    config = write_json(tmp_path / "cfg.json", twice)
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 2
    assert main(["validate", config]) == 2
    diagnostic = "outputs[1]: study 'exchange' is already selected by outputs[0]"
    assert capsys.readouterr().err.splitlines() == [diagnostic, diagnostic]
    assert not out.exists()


def test_run_removes_the_outputs_an_earlier_run_left(tmp_path):
    out = tmp_path / "out"
    first = write_json(tmp_path / "first.json", CONFIG)  # with the supply study
    assert main(["run", first, "--out", str(out), "--plot-data"]) == 0
    assert {"supply.csv", "plot_data.csv"} <= {path.name for path in out.iterdir()}
    (out / "notes.txt").write_text("not an output\n", encoding="utf-8")
    second = write_json(tmp_path / "second.json", dict(CONFIG, outputs=[]))
    assert main(["run", second, "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "epochs.csv", "final_state.json", "manifest.json", "notes.txt"
    ]


def test_run_files_are_every_file_a_run_can_write(tmp_path):
    studies = [{"study": study} for study in ("supply", "inequality", "exchange")]
    agent = {"study": "agent", "params": {"problems": [{"basic_income": 10.0}]}}
    config = popcoin_sim.parse_config(dict(CONFIG, outputs=[*studies, agent]))
    summary = popcoin_sim.run_scenario(config, tmp_path, include_plot_data=True)
    assert summary["files"] == sorted(scenario.RUN_FILES)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(scenario.RUN_FILES)


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


UNWRITABLE_INPUTS = {
    "run": CONFIG,
    "agent": [{"basic_income": 10.0, "earned_income": 0.0, "interest_rate": -0.02}],
    "exchange": {"fiat_supply_shocks": [0.0, 0.1], "elasticities": [1.0]},
}


@pytest.mark.parametrize(
    "command, out, reason",
    [
        # a directory cannot be made, nor a file opened, under a regular file
        ("run", "file/out", "Not a directory"),
        ("agent", "file/a.csv", "Not a directory"),
        ("exchange", "file/out", "Not a directory"),
        # the agent file's directory is not made for it
        ("agent", "nodir/a.csv", "No such file or directory"),
        # opened, but every write fails; the error names no file
        pytest.param(
            "agent",
            "/dev/full",
            "No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
)
def test_unwritable_output_is_one_diagnostic(tmp_path, capsys, command, out, reason):
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = write_json(tmp_path / "input.json", UNWRITABLE_INPUTS[command])
    assert main([command, path, "--out", str(tmp_path / out)]) == 2
    diagnostic = f"{tmp_path / out}: cannot be written ({reason})"
    assert capsys.readouterr().err.splitlines() == [diagnostic]


class BrokenPipe(io.TextIOBase):
    """A text stream whose reader has gone: every write, and so every writelines, fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["agent", "exchange"])
def test_unwritable_stdout_is_one_diagnostic(tmp_path, capsys, monkeypatch, command):
    path = write_json(tmp_path / "input.json", UNWRITABLE_INPUTS[command])
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main([command, path]) == 2
    assert capsys.readouterr().err.splitlines() == ["stdout: cannot be written (Broken pipe)"]


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
    "doc, diagnostic",
    [
        # M / (P * Y * L0) underflows to 0, so the rate -ln(0) / eta does not exist
        ({"scenario": {"income_pop": 1e300, "money_supply_pop": 1e-300}}, "no money-market rate"),
        # L_f * Y_f underflows to 0, so the relative money demand does not exist
        (
            {
                "scenario": {
                    "sticky_price_fiat": 1e300,
                    "income_fiat": 1e-300,
                    "liquidity_fiat": 1e-300,
                    "money_supply_fiat": 1e-300,
                }
            },
            "no long-run anchor",
        ),
        # M_p / M_f underflows to 0, so the anchor is 0
        (
            {
                "scenario": {
                    "money_supply_pop": 1e-300,
                    "money_supply_fiat": 1e300,
                    "sticky_price_pop": 1e-300,
                    "sticky_price_fiat": 1e300,
                }
            },
            "no long-run anchor",
        ),
        # -ln(M_f / (P_f * Y_f * L_f)) / eta overflows once the shock moves M_f
        (
            {"elasticities": [5e-324], "fiat_supply_shocks": [0.0, 0.1]},
            "no money-market rate",
        ),
    ],
    ids=["money-market-rate", "relative-demand", "anchor", "rate-overflow"],
)
def test_exchange_without_money_market_equilibrium_exits_3(tmp_path, capsys, doc, diagnostic):
    path = write_json(tmp_path / "scen.json", doc)
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


@pytest.mark.parametrize(
    "population",
    [
        {"kind": "step_shock", "N0": 6, "factor": 2, "at_epoch": 4},  # opens accounts
        {"kind": "degrowth", "N0": 12, "n": -0.08},  # retires them
    ],
)
def test_run_writes_the_same_bytes_under_any_hash_seed(tmp_path, population):
    # the mint credits the members of a frozenset, whose order follows the
    # hash seed; no output byte may
    config = write_json(
        tmp_path / "cfg.json",
        dict(
            CONFIG,
            epochs=10,
            population=population,
            transfers={"count_per_epoch": 5, "max_fraction": 0.5},
            outputs=[{"study": "supply"}, {"study": "inequality"}],
        ),
    )
    runs = []
    for hash_seed in ("1", "4"):
        out = tmp_path / f"out{hash_seed}"
        args = ["run", config, "--out", str(out), "--plot-data"]
        done = run_child(args, PYTHONHASHSEED=hash_seed)
        assert done.returncode == 0, done.stderr
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(runs[0]) == sorted(
        ["manifest.json", "epochs.csv", "final_state.json", "supply.csv", "inequality.csv",
         "plot_data.csv"]
    )
    assert runs[0] == runs[1]


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


def test_debug_logs_the_exact_fallbacks_and_changes_no_output_byte(tmp_path):
    doc = dict(CONFIG, epochs=50, outputs=[{"study": "supply"}, {"study": "inequality"}])
    config = write_json(tmp_path / "cfg.json", doc)
    runs = {}
    for level in ("warning", "debug"):
        out = tmp_path / level
        done = run_child(["run", config, "--out", str(out), "--plot-data"], POPCOIN_SIM_LOG=level)
        assert done.returncode == 0, done.stderr
        runs[level] = ({path.name: path.read_bytes() for path in out.iterdir()}, done.stderr)
    assert "exact fallbacks" not in runs["warning"][1]
    assert "DEBUG popcoin_sim.scenario: exact fallbacks: 0\n" in runs["debug"][1]
    assert len(runs["debug"][0]) == 6
    assert runs["debug"][0] == runs["warning"][0]


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
