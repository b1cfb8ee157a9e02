"""Check the output directory of a finished ``popcoin-sim run``.

    python .github/check_run.py OUT NAME...

Exits 1 unless OUT holds exactly the files NAME..., so no staging directory
and no file that an earlier run left, unless the final snapshot read back and
written again is the file byte for byte, and unless its total,
``float(sum(balances) * exchange_rate)``, is the ``M_total`` of the last line
of ``epochs.csv``.
"""

import sys
from pathlib import Path

from popcoin_sim import state_from_json, state_to_json


def main(out: Path, names: list[str]) -> int:
    found = sorted(path.name for path in out.iterdir())
    if found != sorted(names):
        print(f"{out} holds {found}, not {sorted(names)}")
        return 1
    # read through pathlib, which closes each file: no ResourceWarning
    text = (out / "final_state.json").read_text(encoding="utf-8")
    state = state_from_json(text)
    if state_to_json(state) + "\n" != text:
        print(f"{out}: final_state.json does not round-trip byte for byte")
        return 1
    total = float(sum(state.balances.values()) * state.exchange_rate)
    lines = (out / "epochs.csv").read_text(encoding="utf-8").splitlines()
    last = float(lines[-1].split(",")[lines[0].split(",").index("M_total")])
    print(f"{out}: {found}, final snapshot total {total!r}, last M_total {last!r}")
    return int(total != last)


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), sys.argv[2:]))
