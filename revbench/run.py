#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 revbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library and the benchmark are built
with CMake (Release) into $CARGO_TARGET_DIR, default .bench_build; the
first run builds, later runs only bring the build up to date.  Build
output goes to stderr.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json for --trace 0 and its per-layer metrics for --trace 1.
A traced run also writes its spans to <build dir>/trace/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark; returns the build directory."""
    bdir = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", "4"]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return bdir


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Raises ValueError unless `line` is a well-formed result line."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    got = [(k, v["unit"]) for k, v in res["metrics"].items()]
    if sorted(got) != sorted(declared_metrics(trace)):
        raise ValueError("metrics differ from BENCHMARK.json: %s" % got)
    for v in res["metrics"].values():
        if not isinstance(v["value"], (int, float)):
            raise ValueError("non-numeric metric value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("revbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [os.path.join(bdir, "revbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rev", source_rev()]
    if args.trace:
        os.makedirs(os.path.join(bdir, "trace"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            bdir, "trace", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Own session, so a timeout also stops the forked workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("revbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("revbench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print("revbench: malformed result: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
