"""Steadiness check: do repeated runs of one commit agree within bounds?

    python3 perfbench/steady.py --runs 10

Runs two sets of ``--runs`` fresh-process runs of every workload named
in ``BENCHMARK.json``, each run with its own seed and ``run_seconds``
long, alternating the workload order from one run to the next.  For
every end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median against the metric's bound,
and how far the second set's median moved from the first's in the worse
direction.  It exits non-zero when a spread or a drift exceeds its
bound, or when the share of failed operations differs between runs.
The spread of ``setup_s`` is printed but not gated: set-up is one cold
start per interpreter, and only its drift between sets is held to the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    # results[workload][set] = list of run results
    results = {name: [[] for _ in range(SETS)] for name in names}
    for set_index in range(SETS):
        for run in range(args.runs):
            order = names if run % 2 == 0 else names[::-1]
            for workload in order:
                seed = 1000 * (set_index + 1) + run
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][set_index].append(result)
                values = " ".join(
                    f"{name}={metric['value']:.4g}"
                    for name, metric in result["metrics"].items())
                print(f"set {set_index} run {run} {workload} seed {seed}: "
                      f"{values}", file=sys.stderr, flush=True)

    ok = True
    for workload in names:
        print(f"== {workload}")
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in results[workload] for r in runs}
        line = ", ".join(f"{float(share):.6%}" for share in sorted(shares))
        same = len(shares) == 1
        print(f"   failed share per run: {line}"
              f"{'' if same else '  DIFFERS'}")
        ok &= same
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, runs in enumerate(results[workload]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                medians.append(median)
                flag = ""
                if spread > bound:
                    gated = name != "setup_s"
                    flag = ("  OVER BOUND" if gated
                            else "  over bound, not gated")
                    ok &= not gated
                elif spread > bound / 3:
                    flag = "  over bound/3"
                print(f"   {name:22s} set {set_index}: median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%} "
                      f"(bound {bound:.0%}){flag}")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            flag = ""
            if worse > bound:
                flag, ok = "  OVER BOUND", False
            print(f"   {name:22s} set 1 vs set 0: {worse:+.2%} worse "
                  f"(bound {bound:.0%}){flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
