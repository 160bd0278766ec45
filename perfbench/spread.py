#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed (one after another, never in parallel)
and prints, per end-to-end metric, the median over the runs and the
distance between the first and third quartile as a share of the
median, next to the metric's bound::

    python3 perfbench/spread.py --workload schedule --seeds 1-10 --save set1.json
    python3 perfbench/spread.py --workload schedule --seeds 1-10 --against set1.json

Every bounded metric, ``setup_s`` included, must spread by no more
than its bound, and should by less than a third of it (flagged, not
failed).  With ``--against``, each median must also not be worse than
the saved set's median by more than the bound.  The exit code is 1
when a spread or a median is outside its bound.  The ``measured``
column is the spread of the same metric before scaling to the reference
host (see ``host.py``), and each run's host reference loop
(``host.ref_ms``) is printed as well, so a spread that follows the
host's speed shows as such.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict[str, float] | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    values = {name: m["value"] for name, m in json.loads(last)["metrics"].items()}
    host = re.search(r"host reference loop ([0-9.]+) ms", proc.stdout)
    values["host.ref_ms"] = float(host.group(1)) if host else float("nan")
    # The report prints each end-to-end metric as reported and as measured.
    for name, _unit, _better, _bound in spec.END_TO_END:
        found = re.search(rf"^ +{name} +\S+ \S+ +(\S+)", proc.stdout, re.MULTILINE)
        values[f"measured.{name}"] = float(found.group(1))
    return values


def spread_of(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    mid = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else float("inf")


def worse_by(better: str, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if not first:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--save", type=Path, help="write the per-seed values here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        values = run_once(args.workload, seed, args.seconds)
        if values is None:
            return 1
        runs.append(values)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1))
    earlier = json.loads(args.against.read_text()) if args.against else None

    ok = True
    header = f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'measured':>8s}"
    print(header + ("  earlier   worse-by" if earlier else ""))
    for name, _unit, better, bound in spec.END_TO_END:
        values = [run[name] for run in runs]
        mid = statistics.median(values)
        spread = spread_of(values)
        measured = spread_of([run[f"measured.{name}"] for run in runs])
        line = f"{name:20s} {mid:12.4f} {spread:8.4f} {bound:6.2f} {measured:8.4f}"
        flags = []
        if spread > bound:
            flags.append("spread above the bound")
        if earlier:
            before = statistics.median(run[name] for run in earlier)
            drift = worse_by(better, before, mid)
            line += f" {before:9.4f} {drift:+9.4f}"
            if drift > bound:
                flags.append("median worse than the earlier set by more than the bound")
        ok = ok and not flags
        if not flags and spread > bound / 3:
            flags.append("spread above a third of the bound")
        print(line + ("  <-- " + "; ".join(flags) if flags else ""))
    host = [run["host.ref_ms"] for run in runs]
    print(f"{'host.ref_ms':20s} {statistics.median(host):12.4f} "
          f"{spread_of(host):8.4f}  (the host's speed, not bounded)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
