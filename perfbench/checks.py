"""Output checks applied after every benchmarked ``run_scenario`` call.

An operation fails when its check returns any problem. Two checks exist:

* at the default seed, the sha256 of every output file must equal the
  digest recorded in ``digests.json`` (taken from the commit that defined
  the benchmark, so any byte the program changes shows as a failure);
* at every seed, the run must write exactly the expected files,
  ``final_state.json`` must load with ``state_from_json``, and the ledger
  total ``float(sum(balances) * rate)`` must equal the last ``M_total`` in
  ``epochs.csv`` exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 hex digest of every file in ``out_dir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
        if path.is_file()
    }


def load_recorded_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload]


def check_outputs(
    out_dir: Path,
    expected_files: list[str],
    digests: dict[str, str],
    recorded: dict[str, str] | None = None,
) -> list[str]:
    """Return every problem found in one run's output; empty means correct.

    ``digests`` are the run's own file digests; ``recorded`` are the digests
    the run must reproduce, or None when there are none for this seed.
    """
    from popcoin_sim import state_from_json

    problems = []
    if sorted(digests) != expected_files:
        problems.append(f"wrote {sorted(digests)}, expected {expected_files}")
    if recorded is not None:
        for name in sorted(set(recorded) | set(digests)):
            if digests.get(name) != recorded.get(name):
                problems.append(f"{name}: sha256 differs from the recorded digest")
    out = Path(out_dir)
    try:
        state = state_from_json((out / "final_state.json").read_text(encoding="utf-8"))
        with open(out / "epochs.csv", newline="", encoding="utf-8") as handle:
            m_total = float(list(csv.DictReader(handle))[-1]["M_total"])
    except (OSError, ValueError, IndexError, KeyError) as err:
        return problems + [f"outputs do not parse: {err!r}"]
    ledger_total = float(sum(state.balances.values()) * state.exchange_rate)
    if ledger_total != m_total:
        problems.append(
            f"final_state.json total {ledger_total!r} != epochs.csv M_total {m_total!r}"
        )
    return problems
