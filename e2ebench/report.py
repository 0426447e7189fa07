#!/usr/bin/env python3
"""Prints every metric of every workload by name, with its unit.

    python3 e2ebench/report.py [--seed 1] [--seconds S] [--workloads a,b]

Runs each workload once untraced (the end-to-end metrics, plus the figures
named for that workload such as query_p50_ms and ops_failed_frac) and once
traced (the per-layer ledger), through run.py, and passes the tables through.
Exits 1 if any run fails or reports incorrect output.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    ok = True
    for w in args.workloads.split(","):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            print("\n".join(l for l in lines if l.startswith("#")), flush=True)
            try:
                res = json.loads(lines[-1])
                ok = ok and res["correct"] and res["failed"] == 0
            except (IndexError, ValueError, KeyError):
                sys.stderr.write(out.stderr[-2000:])
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
