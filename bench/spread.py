"""Run the benchmark over several seeds and report how much each figure spreads.

    python3 bench/spread.py --seeds 101-110 [--workload NAME] [--json OUT]

Run from the repository root.  For every workload (or the one named), runs
`bench/run.py --trace 0` once per seed with BENCHMARK.json's run_seconds, one
process at a time, and gives each end-to-end metric's median, quartiles and
spread (IQR / median, from statistics.quantiles(n=4)).  The same is given for
the uncorrected wall_s and setup_s and for the speed factor, read from run.py's
stderr table, so one can see whether the host-speed correction narrows the
spread on each workload.  --json writes the summary in the form of
baseline.json's `ten_seeds` entries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA = ("uncorrected wall_s", "speed_factor", "uncorrected setup_s")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run's figures: the JSON metrics plus EXTRA from the stderr table."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n"
                         f"{proc.stderr}")
    figures = {k: m["value"] for k, m in result["metrics"].items()}
    for line in proc.stderr.splitlines():
        for key in EXTRA:
            if line.strip().startswith(key + " "):
                figures[key] = float(line.split()[-2])
    return figures


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="FIRST-LAST")
    parser.add_argument("--workload", choices=[w["name"]
                                               for w in spec["workloads"]])
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"])
                for seed in range(first, last + 1)]
        summary[name] = {key: summarise([r[key] for r in runs])
                         for key in runs[0]}
        for key, s in summary[name].items():
            bound = f"bound {bounds[key]}" if key in bounds else ""
            print(f"{name:<15} {key:<20} median {s['median']:<12.6g} "
                  f"spread {s['iqr_share']:.4f} {bound}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
