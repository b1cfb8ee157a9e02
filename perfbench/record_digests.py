"""Record the sha256 of every output file of each workload at the default seed.

Run from the repository root:

    python3 perfbench/record_digests.py

The benchmark fails any default-seed operation whose files differ from
``digests.json``. Re-record only for a change that is meant to alter output
bytes, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile

from checks import DIGESTS_PATH, check_outputs, digest_outputs
from run import WORK, import_program
from workloads import DEFAULT_SEED, WORKLOADS, expected_files, make_config


def main() -> int:
    popcoin_sim = import_program()
    WORK.mkdir(exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        doc, include_plot_data = make_config(workload, DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=WORK) as out:
            popcoin_sim.run_scenario(
                popcoin_sim.parse_config(doc), out, include_plot_data=include_plot_data
            )
            digests[workload] = digest_outputs(out)
            problems = check_outputs(out, expected_files(include_plot_data), digests[workload])
        if problems:
            print(f"{workload}: not recording, outputs fail their check: {problems}", file=sys.stderr)
            return 1
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
