#!/usr/bin/env python3
"""Checks that revbench's metric catalogue matches BENCHMARK.json.

    python3 revbench/tests/check_metric_names.py <path to revbench binary>

Both the names and the units must agree, end-to-end and per-layer alike.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    out = subprocess.run([sys.argv[1], "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    printed = {"e2e": [], "layer": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for kind, key in (("e2e", "end_to_end"), ("layer", "per_layer")):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if printed[kind] != declared:
            ok = False
            print("%s differs:\n  printed  %s\n  declared %s"
                  % (key, printed[kind], declared))
    print("metric names: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
