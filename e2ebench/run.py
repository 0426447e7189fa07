#!/usr/bin/env python3
"""Builds and runs the tpset end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                            [--smoke] [--out-dir <dir>]

Run from the repository root. The benchmark binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) the first time, then
reused (a no-op rebuild check each run). Build output goes to stderr, so the
last line of stdout is always the binary's JSON result line. Exits non-zero
without a result line when the sources or the toolchain are missing.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adhoc_query", "stream_maintain")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds tpset_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "executor.h")):
        fail("tpset sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "tpset_e2e", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    binary = os.path.join(out, "tpset_e2e")
    if not os.access(binary, os.X_OK):
        fail("binary missing after build: " + binary)
    return binary


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_digest():
    """sha256 over the library sources: identifies the code outside git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own test)")
    ap.add_argument("--out-dir", default=os.path.join(ROOT, ".bench_out"),
                    help="result files and span logs")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", args.out_dir, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
