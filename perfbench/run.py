"""Benchmark of whole ``popcoin_sim.run_scenario`` calls.

Run from the repository root:

    python3 perfbench/run.py --workload transfer_heavy --seed 7 --seconds 25 --trace 0

One operation is one ``run_scenario(config, out_dir)`` call plus the check
of its output files (see ``checks.py``); it fails if it raises or if the
check finds a problem. The loop is closed and single-threaded: operations
run back to back in this process for ``--seconds`` seconds after one
warm-up operation, and at least three are timed.

Every timed call is bracketed by the calibration kernel of
``calibrate.py`` and its wall time is rescaled to the kernel's reference
speed, because the speed of a shared VM drifts by up to 2x over tens of
seconds. With ``--trace 0`` the last line of stdout reports the end-to-end
metrics:

* ``run_s``: median of the rescaled wall time of one untraced
  ``run_scenario`` call, from the parsed config until every file is written;
* ``setup_s``: median, over fresh interpreters started one after each
  operation, of the rescaled time to import ``popcoin_sim`` (numpy
  included) and ``load_config`` the config;
* ``peak_rss_mb``: peak resident memory of this process, which made the runs.

With ``--trace 1`` untraced and traced operations alternate, and the last
line reports the per-layer metrics of ``spans.LAYER_METRICS`` (medians over
the traced operations, self times rescaled like ``run_s``) plus
``trace.overhead_s``, the traced minus the untraced median ``run_s``. The
spans of the last traced operation are written to ``.perfbench_runs/`` at
the end.

The line before the last records the environment, and the sample count,
quartiles and range of every timing, both rescaled and as measured.
The program is imported from ``src/`` beside this directory; without it
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import check_outputs, digest_outputs, load_recorded_digests
from spans import LAYER_METRICS, ROOT_SPAN, Tracer, instrument, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, expected_files, make_config

# calibrate imports numpy, so it is imported only after import_program() has
# set the thread variables.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 3

# Runs in a fresh interpreter; prints seconds spent importing and loading.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import popcoin_sim
popcoin_sim.load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


class MissingProgram(Exception):
    pass


def import_program():
    """Import ``popcoin_sim`` from ``src/`` with single-threaded numpy."""
    if not (SRC / "popcoin_sim" / "__init__.py").is_file():
        raise MissingProgram(f"no popcoin_sim package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import popcoin_sim

    if not Path(popcoin_sim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"popcoin_sim was imported from {popcoin_sim.__file__}, not {SRC}")
    return popcoin_sim


def measure_setup(config_path: Path) -> tuple[float, float]:
    """Seconds one fresh interpreter spends importing and loading the config,
    and the factor that rescales them to the reference speed."""
    from calibrate import timed_at_reference

    done, _, factor = timed_at_reference(
        lambda: subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(config_path)],
            env=dict(os.environ), capture_output=True, text=True, check=True, timeout=120,
        )
    )
    return float(done.stdout), factor


class Bench:
    """Runs and checks operations on one workload config, collecting samples."""

    def __init__(self, config, include_plot_data: bool, out_dir: Path, recorded):
        self.config = config
        self.include_plot_data = include_plot_data
        self.out_dir = out_dir
        self.expected = expected_files(include_plot_data)
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # run_scenario seconds at the reference speed, and as measured
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.wall: dict[bool, list[float]] = {False: [], True: []}
        self.setup: list[float] = []
        self.setup_wall: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.reference: dict[str, str] | None = None
        self.last_tracer: Tracer | None = None

    def _call(self, tracer: Tracer | None) -> tuple[float, float]:
        """Wall seconds of one run_scenario call and its reference-speed factor."""
        from calibrate import timed_at_reference
        from popcoin_sim import scenario

        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()

        def call(run):
            return run(self.config, self.out_dir, include_plot_data=self.include_plot_data)

        if tracer is None:
            _, wall, factor = timed_at_reference(lambda: call(scenario.run_scenario))
            return wall, factor
        with instrument(tracer):
            root = tracer.wrap(ROOT_SPAN, scenario.run_scenario)
            _, wall, factor = timed_at_reference(lambda: call(root))
        return wall, factor

    def operation(self, traced: bool, timed: bool = True) -> None:
        self.attempted += 1
        tracer = Tracer() if traced else None
        try:
            wall, factor = self._call(tracer)
        except Exception as err:  # any exception from the program fails the operation
            self._fail(f"run_scenario raised {err!r}")
            return
        digests = digest_outputs(self.out_dir)
        problems = check_outputs(self.out_dir, self.expected, digests, self.recorded)
        if traced and digests != self.reference:
            problems.append("traced run wrote different bytes from the untraced run")
        if problems:
            self._fail("; ".join(problems))
            return
        if not traced and self.reference is None:
            self.reference = digests
        if timed:
            self.times[traced].append(wall * factor)
            self.wall[traced].append(wall)
        if traced:
            self.layers.append(
                {
                    name: value * factor if name.endswith(".self_s") else value
                    for name, value in layer_metrics(tracer, self.out_dir).items()
                }
            )
            self.last_tracer = tracer

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)

    def measure(self, seconds: float, trace: bool, setup_config: Path | None = None) -> None:
        """Run operations for ``seconds``; with ``setup_config``, time one fresh
        interpreter's set-up after each operation, so that ``setup_s`` samples
        the same stretch of time as ``run_s``."""
        modes = (False, True) if trace else (False,)
        self.operation(False, timed=False)
        if setup_config is not None:
            measure_setup(setup_config)  # compiles the bytecode; not counted
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or self.attempted <= MIN_SAMPLES * len(modes):
            for traced in modes:
                self.operation(traced)
            if setup_config is not None:
                seconds_taken, factor = measure_setup(setup_config)
                self.setup.append(seconds_taken * factor)
                self.setup_wall.append(seconds_taken)


def environment(numpy_version: str) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        popcoin_sim = import_program()
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import numpy

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        doc, include_plot_data = make_config(args.workload, args.seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        recorded = load_recorded_digests(args.workload) if args.seed == DEFAULT_SEED else None
        bench = Bench(popcoin_sim.load_config(config_path), include_plot_data, work / "out", recorded)
        bench.measure(args.seconds, bool(args.trace), None if args.trace else config_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced, traced = bench.times[False], bench.times[True]
    if not untraced or (args.trace and not traced):
        print(f"perfbench: no operation succeeded: {bench.problems[:3]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in bench.layers), "unit": unit}
            for name, unit, _ in LAYER_METRICS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": "s",
        }
        spans_path = WORK / f"spans-{args.workload}.csv"
        bench.last_tracer.write(spans_path)
    else:
        metrics = {
            "run_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(bench.setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(numpy.__version__),
        "run_s": spread(untraced),
        "run_wall_s": spread(bench.wall[False]),
        "traced_run_s": spread(traced),
        "traced_run_wall_s": spread(bench.wall[True]),
        "setup_s": spread(bench.setup),
        "setup_wall_s": spread(bench.setup_wall),
        "problems": bench.problems[:5],
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
