#!/usr/bin/env python3
"""Steadiness check for the benchmark itself.

    python3 perfbench/steady.py --workload fleet-churn --runs 10 [--sets 2]

Runs one workload --runs times per set, each run with its own seed
(1, 2, ..., --runs; every set reuses the same seeds), and prints for each
end-to-end metric its median and quartiles next to the bound from
BENCHMARK.json. It fails (exit 1) when:
  * any run fails or reports correct = false;
  * a metric's spread — the distance between the first and third quartile
    (statistics.quantiles, n=4) as a share of the median — exceeds its
    bound;
  * with --sets 2 or more, a later set's median is worse than the first
    set's by more than the bound;
  * a re-run of the first seed does not reproduce regret_pct and the
    workload's deterministic report counts (sync_count,
    gossip_bytes_per_decision) exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_REPORT_KEYS = ("sync_count", "gossip_bytes_per_decision")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"seed {seed}: output checks failed ({result['failed']})")
    report = {}
    for line in lines:
        if line.startswith("report: "):
            report = json.loads(line[len("report: "):])
    return {k: v["value"] for k, v in result["metrics"].items()}, report


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` for this metric."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 4 or args.sets < 1:
        sys.exit("steady: --runs must be >= 4 and --sets >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = list(range(1, args.runs + 1))

    ok = True
    sets = []
    first_report = None
    try:
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for seed in seeds:
                got, report = run_once(args.workload, seed, seconds)
                if first_report is None:
                    first_report = (got, report)
                for m in metrics:
                    values[m["name"]].append(got[m["name"]])
                print(f"set {s + 1} seed {seed}: " +
                      " ".join(f"{m['name']}={got[m['name']]:.6g}" for m in metrics),
                      flush=True)
            sets.append(values)
        repeat, repeat_report = run_once(args.workload, seeds[0], seconds)
    except RuntimeError as e:
        print(f"steady: FAIL {e}")
        return 1

    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), "
          f"{seconds} s each")
    print(f"{'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'drift':>8}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        base_median = None
        for values in sets:
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            drift = 0.0 if base_median is None else worse_by(m, base_median, med)
            if base_median is None:
                base_median = med
            flags = []
            if spread > bound:
                flags.append("SPREAD")
            if drift > bound:
                flags.append("DRIFT")
            ok = ok and not flags
            print(f"{name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.3f} {drift:>8.4f} {' '.join(flags)}")

    first_metrics, first_extra = first_report
    exact = [("regret_pct", first_metrics["regret_pct"], repeat["regret_pct"])]
    for key in EXACT_REPORT_KEYS:
        if key in first_extra:
            exact.append((key, first_extra[key], repeat_report.get(key)))
    for key, a, b in exact:
        same = a == b
        ok = ok and same
        print(f"repeat seed {seeds[0]} {key}: {a!r} vs {b!r} {'ok' if same else 'MISMATCH'}")
    print("steady: PASS" if ok else "steady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
