"""The README's examples run as written: the Quick start config through
``popcoin-sim run``, and the ``## Library`` Python block."""

import json
import re
from pathlib import Path

from popcoin_sim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(heading: str) -> str:
    """The README text from ``heading`` to the next ``## `` heading."""
    start = README.index(f"\n{heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def code_block(text: str, language: str) -> str:
    """The first fenced code block of ``language`` in ``text``."""
    return re.search(rf"```{language}\n(.*?)```", text, re.DOTALL).group(1)


def test_quick_start_config_runs_and_writes_the_files_it_lists(tmp_path):
    quick_start = section("## Quick start")
    config = json.loads(code_block(quick_start, "json"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "results")]) == 0
    # "This writes `manifest.json`, `epochs.csv`, `final_state.json`, plus one
    # file per requested study"
    listed = re.search(r"This writes (.*?), plus one file", quick_start, re.DOTALL).group(1)
    expected = set(re.findall(r"`([\w.]+)`", listed))
    expected |= {f"{entry['study']}.csv" for entry in config["outputs"]}
    assert {"manifest.json", "epochs.csv", "final_state.json"} <= expected
    assert {p.name for p in (tmp_path / "results").iterdir()} == expected


def test_library_example_runs():
    namespace: dict = {}
    exec(code_block(section("## Library"), "python"), namespace)
    state = namespace["state"]
    assert state.epoch == 1
    assert sum(state.balances.values()) == 2 * namespace["report"].issued_per_participant
