#!/usr/bin/env python3
"""Steadiness of the end-to-end benchmark: do two sets of runs agree?

    python3 e2ebench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                   [--seconds S] [--seed-base N]

Runs every workload --runs times per set, each run with its own seed
(untraced), interleaving workloads. Reports per workload and end-to-end
metric: each set's median, its spread (distance between the first and third
quartile as statistics.quantiles(n=4) gives them, as a share of the median)
and whether the sets agree within the bounds in BENCHMARK.json:
  * every spread except setup_s's is within the metric's bound, and
  * the second set's median is not worse than the first's by more than the
    bound (setup_s included).
"steady" marks a spread below a third of the bound. Exits 1 when a check
fails or the sets disagree. The summary is also written as JSON to
.bench_out/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (%d): %s" %
                           (workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return m, (q3 - q1) / m if m else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # values[workload][set][metric] -> list of run values
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
              for w in workloads}
    ok = True
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + 1000 * s + i
                res = run_once(w, seed, args.seconds)
                if not res["correct"] or res["failed"] != 0:
                    print("FAIL %s seed %d: correct=%s failed=%d" %
                          (w, seed, res["correct"], res["failed"]))
                    ok = False
                for m in metrics:
                    values[w][s][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
                print("set %d run %d %s seed %d: %s" % (
                    s + 1, i + 1, w, seed,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in res["metrics"].items())),
                      flush=True)

    summary = {}
    print("\n%-16s %-12s %5s %12s %8s %12s %8s  %s" % (
        "workload", "metric", "bound", "median1", "iqr1", "median2", "iqr2",
        "verdict"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [spread(values[w][s][name]) for s in range(args.sets)]
            verdicts = []
            for med, iqr in sets:
                if name != "setup_s" and iqr > bound:
                    verdicts.append("spread>bound")
                elif iqr < bound / 3:
                    verdicts.append("steady")
                else:
                    verdicts.append("spread<bound")
            agree = all(v != "spread>bound" for v in verdicts)
            if len(sets) > 1:
                first, second = sets[0][0], sets[1][0]
                worse = (second - first) / first if m["better"] == "lower" \
                    else (first - second) / first
                if worse > bound:
                    agree = False
                    verdicts.append("medians disagree (%.1f%% worse)" %
                                    (100 * worse))
            ok = ok and agree
            summary.setdefault(w, {})[name] = {
                "bound": bound, "medians": [s[0] for s in sets],
                "iqr_frac": [s[1] for s in sets], "agree": agree,
                "verdicts": verdicts}
            cols = []
            for s in range(2):
                if s < len(sets):
                    cols += ["%12.5g" % sets[s][0], "%8.3f" % sets[s][1]]
                else:
                    cols += ["%12s" % "-", "%8s" % "-"]
            print("%-16s %-12s %5.2f %s  %s %s" % (
                w, name, bound, " ".join(cols),
                "agree" if agree else "DISAGREE", ",".join(verdicts)))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump({"runs": args.runs, "sets": args.sets,
                   "seconds": args.seconds, "metrics": summary}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
