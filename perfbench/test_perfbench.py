"""Self-tests of the benchmark at reduced workload sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from checks import check_outputs, digest_outputs, load_recorded_digests
from spans import LAYER_METRICS, ROOT_SPAN, Tracer, instrument, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, expected_files, make_config

popcoin_sim = bench.import_program()
from popcoin_sim import scenario  # noqa: E402  (needs the path set by import_program)


def reduced_bench(workload, out_dir, seed=3, recorded=None):
    doc, include_plot_data = make_config(workload, seed, reduced=True)
    return bench.Bench(popcoin_sim.parse_config(doc), include_plot_data, out_dir, recorded)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_workload_passes_untraced_and_traced(workload, tmp_path):
    runner = reduced_bench(workload, tmp_path / "out")
    runner.measure(0.0, trace=True)
    assert runner.failed == 0, runner.problems
    assert len(runner.times[False]) >= bench.MIN_SAMPLES
    assert len(runner.times[True]) >= bench.MIN_SAMPLES
    names = {name for name, _, _ in LAYER_METRICS} - {"trace.overhead_s"}
    for layers in runner.layers:
        assert set(layers) == names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_write_identical_bytes(workload, tmp_path):
    doc, include_plot_data = make_config(workload, 11, reduced=True)
    config = popcoin_sim.parse_config(doc)
    scenario.run_scenario(config, tmp_path / "plain", include_plot_data=include_plot_data)
    tracer = Tracer()
    with instrument(tracer):
        tracer.wrap(ROOT_SPAN, scenario.run_scenario)(
            config, tmp_path / "traced", include_plot_data=include_plot_data
        )
    assert digest_outputs(tmp_path / "plain") == digest_outputs(tmp_path / "traced")
    # The seams are restored and every layer was entered.
    assert scenario.transfer is popcoin_sim.transfer
    totals, calls = tracer.self_times()
    assert calls[ROOT_SPAN] == 1
    assert set(calls) >= {name.rsplit(".", 1)[0] for name, _, _ in LAYER_METRICS if name.endswith(".self_s")}
    # Self times partition the root span.
    _, start, end, _ = tracer.spans[0]
    assert sum(totals.values()) == pytest.approx(end - start, rel=1e-9)
    metrics = layer_metrics(tracer, tmp_path / "traced")
    assert metrics["rng.SplitMix64.below.calls"] == 3 * tracer.attempted_transfers


@pytest.mark.parametrize("victim", expected_files(True))
def test_flipped_byte_counts_as_failed_operation(victim, tmp_path, monkeypatch):
    clean = reduced_bench("long_horizon", tmp_path / "clean")
    clean.operation(False)
    recorded = digest_outputs(tmp_path / "clean")
    runner = reduced_bench("long_horizon", tmp_path / "out", recorded=recorded)
    runner.operation(False)
    assert (runner.attempted, runner.failed) == (1, 0)

    original = scenario.run_scenario

    def run_then_corrupt(config, out_dir, include_plot_data=False):
        summary = original(config, out_dir, include_plot_data=include_plot_data)
        path = Path(out_dir) / victim
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return summary

    monkeypatch.setattr(scenario, "run_scenario", run_then_corrupt)
    runner.operation(False)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert victim in runner.problems[0]


def test_check_rejects_ledger_total_mismatch(tmp_path):
    runner = reduced_bench("transfer_heavy", tmp_path / "out")
    runner.operation(False)
    epochs = tmp_path / "out" / "epochs.csv"
    lines = epochs.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[4] = repr(float(cells[4]) * 2)  # M_total
    epochs.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    problems = check_outputs(
        tmp_path / "out", expected_files(False), digest_outputs(tmp_path / "out")
    )
    assert problems and "M_total" in problems[0]


def test_default_seed_reproduces_recorded_digests(tmp_path):
    for workload in WORKLOADS:
        doc, include_plot_data = make_config(workload, DEFAULT_SEED)
        out = tmp_path / workload
        scenario.run_scenario(popcoin_sim.parse_config(doc), out, include_plot_data=include_plot_data)
        assert digest_outputs(out) == load_recorded_digests(workload), workload


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in LAYER_METRICS
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(bench.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
