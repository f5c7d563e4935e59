"""Check the benchmark's steadiness: end-to-end spread across seeds.

Usage, from the repository root::

    python3 perfbench/steady.py --workload serve-warm --seeds 1-10
    python3 perfbench/steady.py --workload serve-warm --seeds 11-20 --against first.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between its first and third
quartiles as a share of the median, next to a third of the metric's bound
(the target).  ``--out`` saves the values; ``--against`` compares this set's
medians with a saved set and flags a shift beyond the bound.  Exits 1 when
a run fails or a spread (``setup_s`` aside) or shift is over its limit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from summary import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> List[int]:
    """``"1-5"`` or ``"1,4,9"`` as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = args.seconds or declared["run_seconds"]

    values: Dict[str, List[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        measured = run_once(args.workload, seed, seconds)
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in measured.items()),
              flush=True)
        for name in bounds:
            values[name].append(measured[name])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(values, handle)

    baseline = None
    if args.against:
        with open(args.against) as handle:
            baseline = json.load(handle)
    steady = True
    for name, bound in bounds.items():
        mid = statistics.median(values[name])
        share = spread(values[name])
        line = f"{name:16s} median {mid:12.5g}  spread {share:6.3f}  target {bound / 3:.3f}"
        if name != "setup_s" and share > bound / 3:
            line += "  UNSTEADY"
            steady = False
        if baseline is not None:
            before = statistics.median(baseline[name])
            worse = (mid - before) / before
            if better[name] == "higher":
                worse = -worse
            line += f"  shift {worse:+.3f}"
            if worse > bound:
                line += "  REGRESSED"
                steady = False
        print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
