#!/usr/bin/env python3
"""Check which changes tools/bench_diff.py gates, on two fixtures.

Usage: bench_diff_test.py <bench_diff.py> <fixture dir>

The fixture dir holds baseline.json and faster.json, whose
sim_throughput `*_ms`/`sim_s` leaves and `speedup` got smaller while
every `*_per_sec` leaf and check stayed. Expected exit codes:
  - baseline -> faster: 0 (smaller times under a "throughput" section
    are not throughput regressions);
  - baseline -> baseline with one `*_per_sec` leaf 30% lower: 1;
  - baseline -> baseline with a true check turned false: 1.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(script, base, cur):
    return subprocess.run([sys.executable, script, base, cur],
                          stdout=subprocess.DEVNULL).returncode


def main():
    script, fixtures = sys.argv[1], sys.argv[2]
    base = os.path.join(fixtures, "baseline.json")
    with open(base) as fh:
        doc = json.load(fh)
    failures = []
    if run(script, base, os.path.join(fixtures, "faster.json")) != 0:
        failures.append("faster times were flagged as a regression")
    with tempfile.TemporaryDirectory() as tmp:
        slower = json.loads(json.dumps(doc))
        slower["sim_throughput"]["batched"]["events_per_sec"] *= 0.7
        broken = json.loads(json.dumps(doc))
        broken["cross_checks"]["functional_identity"] = False
        for name, variant in (("slower", slower), ("broken", broken)):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(variant, fh)
            if run(script, base, path) != 1:
                failures.append(f"the {name} variant was not a regression")
    for f in failures:
        print(f"bench_diff_test: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
