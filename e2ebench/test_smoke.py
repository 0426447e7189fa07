#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size, untraced and traced.

    python3 e2ebench/test_smoke.py [--binary <tpset_e2e>] [--out-dir <dir>]

Without --binary the benchmark is built through run.py first. Fails (exit 1)
when BENCHMARK.json breaks its contract, when metrics.json and BENCHMARK.json
name different metrics or units, when a run misses a named metric or unit,
reports a non-finite value, fails a correctness check or an operation, or
when a traced run leaves no span file or a result file lacks its provenance.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PROVENANCE = ("git_sha", "src_digest", "nproc", "build_type", "obs", "seed")

errors = []


def check(cond, msg):
    if not cond:
        errors.append(msg)
    return cond


def check_contract(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          "BENCHMARK.json keys: %s" % sorted(bench))
    check(1 <= bench["run_seconds"] <= 60 and
          isinstance(bench["run_seconds"], int), "run_seconds out of range")
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"}, "workload keys %s" % sorted(w))
        check(len(w["why"]) <= 200 and "\n" not in w["why"], "why too long")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, "e2e keys %s" % m)
        check(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
        names.append(m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "layer keys %s" % m)
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]), "unit %r" % m["unit"])
        check(m["better"] in ("lower", "higher"), "better of %s" % m["name"])
    for n in names:
        check(NAME.match(n), "name %r" % n)
    check(len(names) == len(set(names)), "names are not unique")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s must be in s, lower-is-better, with the largest bound")


def check_manifest(bench, manifest):
    for section in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in bench[section]}
        have = {n: m["unit"] for n, m in manifest[section].items()}
        check(want == have, "metrics.json %s differs from BENCHMARK.json: %s" %
              (section, sorted(set(want.items()) ^ set(have.items()))))
    check(set(manifest["workloads"]) ==
          {w["name"] for w in bench["workloads"]},
          "metrics.json workloads differ from BENCHMARK.json")
    for name, m in manifest["per_layer"].items():
        for move in m.get("moves", []):
            check(move["workload"] in manifest["workloads"] and
                  (move["metric"] in manifest["end_to_end"] or
                   move["metric"] in manifest["named_unbounded"]),
                  "%s moves an unknown metric/workload" % name)


def run_smoke(binary, workload, trace, out_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--out-dir", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    tag = "%s trace=%d" % (workload, trace)
    if not check(proc.returncode == 0, "%s exited %d: %s" %
                 (tag, proc.returncode, proc.stderr[-500:])):
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, "%s: last line is not JSON" % tag)
        return None
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          "%s result keys %s" % (tag, sorted(res)))
    check(res.get("correct") is True, "%s: correct=%s (%s)" % (
        tag, res.get("correct"),
        [l for l in lines if l.startswith("# error")]))
    check(res.get("failed") == 0, "%s: failed=%s" % (tag, res.get("failed")))
    check(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
          "%s: attempted=%s" % (tag, res.get("attempted")))
    for line in lines[:-1]:
        check(not line.startswith("{"), "%s: JSON before the last line" % tag)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary")
    ap.add_argument("--out-dir", default=os.path.join(ROOT, ".bench_out",
                                                      "smoke"))
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    manifest = json.load(open(os.path.join(HERE, "metrics.json")))
    check_contract(bench)
    check_manifest(bench, manifest)

    binary = args.binary
    if binary is None:
        sys.path.insert(0, HERE)
        import run as bench_run  # noqa: E402  (builds on demand)
        binary = bench_run.build()

    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run_smoke(binary, w["name"], trace, args.out_dir)
            if res is None:
                continue
            tag = "%s trace=%d" % (w["name"], trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {n: m.get("unit") for n, m in res["metrics"].items()}
            check(want == got, "%s metrics/units differ: %s" % (
                tag, sorted(set(want.items()) ^ set(got.items()))))
            for n, m in res["metrics"].items():
                v = m.get("value")
                check(isinstance(v, (int, float)) and math.isfinite(v),
                      "%s: %s=%r" % (tag, n, v))
                if trace == 0:
                    check(isinstance(v, (int, float)) and v > 0,
                          "%s: end-to-end %s must be > 0" % (tag, n))
            stem = os.path.join(args.out_dir, "%s_seed7_trace%d" %
                                (w["name"], trace))
            try:
                result = json.load(open(stem + ".json"))
                for key in PROVENANCE:
                    check(key in result["provenance"],
                          "%s: provenance lacks %s" % (tag, key))
                check("ops_failed_frac" in result["named"],
                      "%s: ops_failed_frac missing" % tag)
            except (OSError, ValueError, KeyError) as e:
                check(False, "%s: result file: %s" % (tag, e))
            if trace == 1:
                try:
                    spans = json.load(open(stem + "_spans.json"))
                    check(len(spans["spans"]) > 0, "%s: no spans" % tag)
                except (OSError, ValueError, KeyError) as e:
                    check(False, "%s: span file: %s" % (tag, e))

    for e in errors:
        print("FAIL: " + e)
    print("e2ebench smoke: %s" % ("ok" if not errors else
                                  "%d failure(s)" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
