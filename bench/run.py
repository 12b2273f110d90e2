"""Run one zdgdim benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload chain-blowups --seed 1 --seconds 30

Run from the repository root (the package is imported from ./src, nothing
is installed).  A workload is a seeded list of `zdgdim` CLI invocations
(workloads.py); one repetition runs the list in this process through
`zdgdim.cli.main(argv)` and checks every answer (oracle.py).  Repetitions
run back to back for about --seconds.

--trace 0 reports the end-to-end metrics:
  wall_s       median over repetitions of the list's wall time
  setup_s      median time of `import zdgdim.cli` in a fresh interpreter
  peak_rss_mb  peak resident memory of this process
  ok_rate      commands answered correctly / commands attempted
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py (medians over the traced repetitions) plus
the tracing overhead, traced wall_s / untraced wall_s.

All times are corrected to a reference host speed (hostspeed.py).  The
readable table on stderr also gives the uncorrected wall_s and setup_s and
the speed factor between them, so a change in a corrected time can be told
apart from a change in the correction.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  `--workload all` runs every
workload in turn and ends with one object holding each workload's result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from hostspeed import SpeedSampler, speed_factor
from tracer import COUNTERS, SUITE_METRICS, TIME_GROUPS, Tracer, install
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 21
# Repetitions inside one process agree within ~2%, but verify-corpus medians
# of separate processes (same inputs, same hash seed) differed by up to 10%,
# so an untraced run pools repetitions from several fresh processes.
WORKERS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_rate": "ratio"}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_GROUPS + SUITE_METRICS},
    **{name: "count" for name in COUNTERS},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.self_total_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class Rep:
    wall: float          # time inside cli.main, at reference speed
    raw: float           # the same time, uncorrected
    elapsed: float       # raw wall time of the repetition, for scheduling
    attempted: int
    failed: int
    layers: dict | None  # per-layer metrics of a traced repetition


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# The child times its own `import zdgdim.cli`, then probes the host speed on
# its own CPU.  Interpreter start-up before the import (exec, site packages)
# is left out: no commit can change it, and its OS-bound share does not
# follow the probe, which made a spawn-to-ready timing differ by 20% between
# fast and slow host phases.
SETUP_CHILD = """\
import time
start = time.perf_counter()
import zdgdim.cli
took = time.perf_counter() - start
import sys
sys.path.insert(0, sys.argv[1])
import hostspeed
print(took, *[hostspeed.probe() for _ in range(5)])
"""


def measure_setup() -> tuple[float, float]:
    """Median time for `import zdgdim.cli` in a fresh interpreter, at
    reference speed and uncorrected.  The first spawn, which writes the
    bytecode caches, is not counted."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).parent)]
    env = _child_env()
    times, raw = [], []
    for i in range(SETUP_SPAWNS + 1):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True, timeout=60).stdout.split()
        took, probes = float(out[0]), [float(x) for x in out[1:]]
        if i:
            times.append(took * speed_factor(probes))
            raw.append(took)
    return statistics.median(times), statistics.median(raw)


def _run_command(cli, cmd: Command) -> tuple[float, float, str | None]:
    """Run one command; returns when its call of cli.main started and ended,
    and the reason it failed, or None."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(cmd.argv))
            except SystemExit as exc:     # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:                     # a crash is a failed command
        return start, time.perf_counter(), traceback.format_exc()
    end = time.perf_counter()
    return start, end, cmd.check(rc, out.getvalue())


def run_rep(cli, commands: list[Command], sampler: SpeedSampler,
            tracer: Tracer | None = None) -> Rep:
    mark, pmark = len(sampler.samples), len(sampler.intervals)
    rep_start = time.perf_counter()
    windows = []
    failed = 0
    for cmd in commands:
        start, end, reason = _run_command(cli, cmd)
        windows.append((start, end))
        if reason is not None:
            failed += 1
            print(f"FAIL {' '.join(cmd.argv)}: {reason}", file=sys.stderr)
    elapsed = time.perf_counter() - rep_start
    # time in cli.main, less the probes that ran inside it; the answer
    # checks run outside the windows and are not timed
    probes = sampler.intervals[pmark:]
    busy = (sum(e - s for s, e in windows)
            - sum(t1 - t0 for t0, t1 in probes
                  if any(s <= t0 and t1 <= e for s, e in windows)))
    factor = sampler.factor_since(mark)
    layers = None
    if tracer is not None:
        layers = _layer_metrics(tracer.rollup(probes), factor)
        layers["trace.wall_s"] = busy * factor
    return Rep(busy * factor, busy, elapsed, len(commands), failed, layers)


def _layer_metrics(roll: dict, factor: float) -> dict:
    out = {name: t * factor for name, t in roll["times"].items()}
    out.update({f"cli.suite.{s}_s": t * factor
                for s, t in roll["suites"].items()})
    out.update(roll["counts"])
    out["trace.spans"] = roll["spans"]
    out["trace.self_total_s"] = sum(roll["times"].values()) * factor
    return out


def measure(cli, commands: list[Command], seconds: float,
            trace: bool) -> tuple[list[Rep], list[Rep]]:
    """Run repetitions for about `seconds`: untraced only, or alternating
    untraced and traced.  A repetition is started only when the last one of
    its kind would still fit."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    tracer = Tracer() if trace else None
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            use_trace = trace and len(traced) < len(plain)
            if use_trace:
                tracer.reset()
                restore = install(tracer)
                try:
                    traced.append(run_rep(cli, commands, sampler, tracer))
                finally:
                    restore()
                tracer.reset()
            else:
                plain.append(run_rep(cli, commands, sampler))
            if trace and not traced:
                continue
            nxt = traced if trace and len(traced) < len(plain) else plain
            used = time.perf_counter() - start
            if used + nxt[-1].elapsed > seconds:
                return plain, traced


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _worker(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> tuple[list[dict], list[dict], float]:
    """Measure in a fresh process; returns the untraced and traced
    repetitions and this process's peak RSS in MB."""
    import zdgdim.cli as cli
    commands = WORKLOADS[name](random.Random(seed), tiny=tiny)
    plain, traced = measure(cli, commands, seconds, trace)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [asdict(r) for r in plain], [asdict(r) for r in traced], peak


# A worker is a fresh interpreter that runs _worker and prints its result as
# the last line of stdout.  It is started with subprocess, not
# multiprocessing, whose resource-tracker process outlives the benchmark.
WORKER_CHILD = """\
import json
import sys
sys.path.insert(0, sys.argv[1])
import run
name, seed, seconds, trace, tiny = sys.argv[2:]
print(json.dumps(run._worker(name, int(seed), float(seconds), trace == "1",
                             tiny == "1")))
"""


def _spawn_worker(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool) -> tuple[list[dict], list[dict], float]:
    """Run _worker in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, "-c", WORKER_CHILD, str(Path(__file__).parent),
           name, str(seed), repr(seconds), str(int(trace)), str(int(tiny))]
    out = subprocess.run(cmd, env=_child_env(), check=True,
                         stdout=subprocess.PIPE, text=True,
                         timeout=170).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload: untraced runs split `seconds` over WORKERS
    fresh processes, one after another; a traced run uses one process.
    Besides correct, attempted, failed and metrics, the result holds
    `repetitions` and the uncorrected figures under `raw`, for the stderr
    table."""
    setup, raw_setup = (None, None) if trace else measure_setup()
    workers = 1 if trace else WORKERS
    plain: list[Rep] = []
    traced: list[Rep] = []
    peak = 0.0
    for _ in range(workers):
        p, t, rss = _spawn_worker(name, seed, seconds / workers, trace, tiny)
        plain += [Rep(**r) for r in p]
        traced += [Rep(**r) for r in t]
        peak = max(peak, rss)
    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    wall = statistics.median(r.wall for r in plain)
    raw = {"uncorrected wall_s": (statistics.median(r.raw for r in plain),
                                  "s"),
           "speed_factor": (statistics.median(r.wall / r.raw for r in plain),
                            "ratio")}
    if trace:
        metrics = {key: _metric(statistics.median(r.layers[key]
                                                  for r in traced), unit)
                   for key, unit in PER_LAYER_UNITS.items()
                   if key != "trace.overhead"}
        metrics["trace.overhead"] = _metric(
            metrics["trace.wall_s"]["value"] / wall, "ratio")
    else:
        values = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": peak,
                  "ok_rate": (attempted - failed) / attempted}
        metrics = {key: _metric(values[key], unit)
                   for key, unit in END_TO_END_UNITS.items()}
        raw["uncorrected setup_s"] = (raw_setup, "s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "repetitions": [len(plain), len(traced)],
            "raw": raw}


def _summary(name: str, result: dict) -> None:
    """Print the readable table to stderr, and take the keys that are not
    part of the printed result out of `result`."""
    plain, traced = result.pop("repetitions")
    print(f"{name}: {result['attempted']} commands, {result['failed']} "
          f"failed; repetitions {plain} untraced, {traced} traced",
          file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"  {key:<32} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for key, (value, unit) in result.pop("raw").items():
        print(f"  {key:<32} {value:>14.6g} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zdgdim" / "cli.py").is_file():
        print(f"error: no zdgdim sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.environ.pop("SDIM_BRUTE_CAP", None)
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        _summary(name, results[name])
    print(json.dumps(results if args.workload == "all" else results[name]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
