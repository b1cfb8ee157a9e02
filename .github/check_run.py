"""Check the output directory of a finished ``popcoin-sim run``.

    python .github/check_run.py OUT NAME...

Exits 1 unless OUT holds exactly the files NAME..., so no staging directory
and no file that an earlier run left, and unless the total of the final
snapshot, ``float(sum(balances) * exchange_rate)``, is the ``M_total`` of the
last line of ``epochs.csv``.
"""

import sys
from pathlib import Path

from popcoin_sim import state_from_json


def main(out: Path, names: list[str]) -> int:
    found = sorted(path.name for path in out.iterdir())
    if found != sorted(names):
        print(f"{out} holds {found}, not {sorted(names)}")
        return 1
    # read through pathlib, which closes each file: no ResourceWarning
    state = state_from_json((out / "final_state.json").read_text(encoding="utf-8"))
    total = float(sum(state.balances.values()) * state.exchange_rate)
    lines = (out / "epochs.csv").read_text(encoding="utf-8").splitlines()
    last = float(lines[-1].split(",")[lines[0].split(",").index("M_total")])
    print(f"{out}: {found}, final snapshot total {total!r}, last M_total {last!r}")
    return int(total != last)


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), sys.argv[2:]))
