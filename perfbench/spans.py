"""Spans around the layer calls that ``run_scenario`` makes.

The program has no tracing of its own. ``instrument`` replaces the names
that ``popcoin_sim.scenario`` looks up at call time with wrappers that
record one span per call, and puts the originals back afterwards. Three of
these seams are private to the scenario module: ``_mix_transfers`` and the
``_write_*`` helpers. Renaming any seam is a benchmark change.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until the operation ends. A
span's self time is its duration minus the durations of its direct
children; children never overlap, because everything runs on one thread.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# attribute of popcoin_sim.scenario -> span name
SEAMS = {
    "census_path": "scenario.census_path",
    "mint_epoch_poplet": "ledger.mint_epoch_poplet",
    "transfer": "ledger.transfer",
    "total_supply_popcoin_exact": "ledger.total_supply_popcoin_exact",
    "state_to_json": "ledger.state_to_json",
    "gini": "inequality.gini",
    "variance": "inequality.variance",
    "max_inequality_ratio": "inequality.max_inequality_ratio",
    "gini_bound": "inequality.bounds",
    "variance_bound": "inequality.bounds",
    "ratio_bound": "inequality.bounds",
    "run_macro": "monetary.run_macro",
    "interest_rate": "monetary.interest_rate",
    "overshooting_experiment": "exchange.overshooting_experiment",
    "optimal_out1": "agent.optimal_out1",
    "effective_tax": "agent.effective_tax",
    "_write_csv": "scenario.writers",
    "_write_json": "scenario.writers",
    "_write_text": "scenario.writers",
}
MIX_SPAN = "scenario.mix_transfers"
BELOW_SPAN = "rng.SplitMix64.below"
ROOT_SPAN = "scenario.run_scenario"

# (name, unit, better) of every metric a traced run reports
LAYER_METRICS = [
    ("rng.SplitMix64.below.calls", "count", "lower"),
    ("rng.SplitMix64.below.self_s", "s", "lower"),
    ("ledger.transfer.calls", "count", "lower"),
    ("ledger.transfer.self_s", "s", "lower"),
    ("ledger.mint_epoch_poplet.calls", "count", "lower"),
    ("ledger.mint_epoch_poplet.self_s", "s", "lower"),
    ("ledger.mint_epoch_poplet.late_early_ratio", "ratio", "lower"),
    ("ledger.total_supply_popcoin_exact.self_s", "s", "lower"),
    ("ledger.state_to_json.self_s", "s", "lower"),
    ("ledger.rate_den_digits", "count", "lower"),
    ("scenario.census_path.self_s", "s", "lower"),
    ("scenario.mix_transfers.self_s", "s", "lower"),
    ("scenario.mix_transfers.applied_ratio", "ratio", "higher"),
    ("scenario.run_scenario.self_s", "s", "lower"),
    ("scenario.epoch.late_early_ratio", "ratio", "lower"),
    ("scenario.writers.self_s", "s", "lower"),
    ("scenario.writers.bytes", "bytes", "lower"),
    ("inequality.gini.self_s", "s", "lower"),
    ("inequality.variance.self_s", "s", "lower"),
    ("inequality.max_inequality_ratio.self_s", "s", "lower"),
    ("inequality.bounds.self_s", "s", "lower"),
    ("monetary.run_macro.self_s", "s", "lower"),
    ("monetary.interest_rate.self_s", "s", "lower"),
    ("exchange.overshooting_experiment.self_s", "s", "lower"),
    ("agent.optimal_out1.self_s", "s", "lower"),
    ("agent.effective_tax.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self):
        self.spans: list = []
        self.attempted_transfers = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1])

        return traced

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per span name."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, children):
            totals[name] += end - start - child
            calls[name] += 1
        return totals, calls

    def write(self, path: Path) -> None:
        """Write the spans as CSV, times in microseconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_us,end_us,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    f"{index},{name},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent}\n"
                )


@contextmanager
def instrument(tracer: Tracer):
    """Route the layer calls of ``popcoin_sim.scenario`` through ``tracer``."""
    from popcoin_sim import scenario

    saved = {attr: getattr(scenario, attr) for attr in (*SEAMS, "SplitMix64", "_mix_transfers")}
    mix = tracer.wrap(MIX_SPAN, scenario._mix_transfers)

    def counted_mix(state, rng, count, frac):
        # The mix consumes no draws with fewer than two accounts.
        if len(state.balances) >= 2:
            tracer.attempted_transfers += count
        return mix(state, rng, count, frac)

    rng_class = saved["SplitMix64"]
    traced_rng = type(
        "TracedSplitMix64",
        (rng_class,),
        {"__slots__": (), "below": tracer.wrap(BELOW_SPAN, rng_class.below)},
    )
    try:
        for attr, name in SEAMS.items():
            setattr(scenario, attr, tracer.wrap(name, saved[attr]))
        scenario._mix_transfers = counted_mix
        scenario.SplitMix64 = traced_rng
        yield
    finally:
        for attr, value in saved.items():
            setattr(scenario, attr, value)


def _late_early_ratio(values: list[float]) -> float:
    """Mean of the last tenth of ``values`` over the mean of the first tenth."""
    k = max(1, len(values) // 10)
    return statistics.fmean(values[-k:]) / statistics.fmean(values[:k])


def layer_metrics(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    """Per-layer values of one traced operation; ``trace.overhead_s`` excluded."""
    totals, calls = tracer.self_times()
    mints = [(start, end) for name, start, end, _ in tracer.spans if name == "ledger.mint_epoch_poplet"]
    out = Path(out_dir)
    rate = json.loads((out / "final_state.json").read_text(encoding="utf-8"))["exchange_rate"]
    values = {
        "rng.SplitMix64.below.calls": calls[BELOW_SPAN],
        "ledger.transfer.calls": calls["ledger.transfer"],
        "ledger.mint_epoch_poplet.calls": calls["ledger.mint_epoch_poplet"],
        "ledger.mint_epoch_poplet.late_early_ratio": _late_early_ratio(
            [end - start for start, end in mints]
        ),
        "ledger.rate_den_digits": len(str(rate["den"])),
        "scenario.mix_transfers.applied_ratio": (
            calls["ledger.transfer"] / tracer.attempted_transfers
        ),
        "scenario.epoch.late_early_ratio": _late_early_ratio(
            [b[0] - a[0] for a, b in zip(mints, mints[1:])]
        ),
        "scenario.writers.bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = totals[name[: -len(".self_s")]]
    return values
