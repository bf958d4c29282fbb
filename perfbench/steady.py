"""Steadiness of the benchmark: repeated runs, medians and quartiles.

Usage, from the root of a checkout:

    python3 perfbench/steady.py                   # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads touch

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
and prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median.  End-to-end metrics are compared with their bound in
``BENCHMARK.json``: a spread above a third of the bound is marked.  The
share of failed operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stderr.splitlines():
        print(f"   {line}", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: v["value"] for k, v in res["metrics"].items()}), flush=True)
            results.append(res)
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f / a for f, a in shares}
        wrong = [r for r in results if not r["correct"]]
        print(f"== {workload}: {len(results)} runs, failed/attempted {sorted(shares)}, "
              f"incorrect runs {len(wrong)}")
        steady &= not wrong and len(ratios) == 1
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            mark = ""
            if name in bounds:
                ok = spread < bounds[name] / 3
                steady &= ok
                mark = f"  bound {bounds[name]}" + ("" if ok else "  SPREAD ABOVE A THIRD OF THE BOUND")
            unit = results[0]["metrics"][name]["unit"]
            print(f"   {name:34s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{mark}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
