#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts and flag regressions.

Walks both documents and pairs up every leaf by its JSON path:

  - throughput-like numeric leaves (leaf key contains "per_sec" or
    "throughput" — steps_per_sec, sim events_per_sec, the plan
    server's plans_per_sec_cold/warm) are *gated*: the current value
    may not fall more than --threshold (default 20%) below the
    baseline, host-speed noise being the reason the bar is not
    tighter. Only the leaf's own key counts, not its section: a
    `*_ms` time under a `sim_throughput` section is lower-is-better
    and stays ungated (a list element takes its list's key);
  - boolean leaves that were true in the baseline (the cross_checks /
    identity_check sections: attribution identity, what-if validation,
    bit-identical-off, ...) must still be true — a check that
    regresses to false fails the diff regardless of threshold;
  - every other shared numeric leaf (simulated spans, category
    attributions, node counts) is reported by relative delta but not
    gated, since simulated quantities are deterministic and expected
    to move only when the model intentionally changes;
  - added/removed paths are listed informationally.

Exit status: 0 = no regressions, 1 = regression, 2 = usage/IO error.

Usage: bench_diff.py <baseline.json> <current.json> [--threshold 0.2]
                     [--top 20]
"""

import argparse
import json
import sys

THROUGHPUT_MARKERS = ("per_sec", "throughput")


def flatten(doc, prefix=""):
    """Yield (path, leaf) for every scalar leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from flatten(val, f"{prefix}{key}." if prefix or key
                               else prefix)
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from flatten(val, f"{prefix}{i}.")
    else:
        yield prefix[:-1], doc


def leaf_key(path):
    """The key a leaf is stored under: its last non-index component."""
    keys = [part for part in path.split(".") if not part.isdigit()]
    return keys[-1] if keys else ""


def load(path):
    try:
        with open(path) as fh:
            return dict(flatten(json.load(fh)))
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_diff: cannot read {path}: {exc}")


def is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def rel_delta(base, cur):
    if base == 0:
        return 0.0 if cur == 0 else float("inf")
    return (cur - base) / abs(base)


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json artifacts")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="max relative drop for throughput keys "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--top", type=int, default=20,
                        help="ungated numeric deltas to print")
    args = parser.parse_args()
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")

    base = load(args.baseline)
    cur = load(args.current)

    shared = sorted(base.keys() & cur.keys())
    added = sorted(cur.keys() - base.keys())
    removed = sorted(base.keys() - cur.keys())

    failures = []
    gated_rows = []
    other_rows = []
    for path in shared:
        b, c = base[path], cur[path]
        if isinstance(b, bool) or isinstance(c, bool):
            if b is True and c is not True:
                failures.append(f"check regressed to false: {path}")
            continue
        if not (is_number(b) and is_number(c)):
            if b != c:
                other_rows.append((float("inf"), path, b, c))
            continue
        delta = rel_delta(b, c)
        if any(m in leaf_key(path) for m in THROUGHPUT_MARKERS):
            gated_rows.append((delta, path, b, c))
            if delta < -args.threshold:
                failures.append(
                    f"throughput regression: {path} "
                    f"{b:.6g} -> {c:.6g} ({delta * 100:+.1f}%, "
                    f"limit -{args.threshold * 100:.0f}%)")
        elif delta != 0.0:
            other_rows.append((abs(delta), path, b, c))

    print(f"bench_diff: {args.baseline} -> {args.current} "
          f"({len(shared)} shared leaves)")
    if gated_rows:
        print(f"\ngated throughput keys (limit "
              f"-{args.threshold * 100:.0f}%):")
        for delta, path, b, c in sorted(gated_rows, key=lambda r: r[0]):
            print(f"  {delta * 100:+8.1f}%  {path}  "
                  f"{b:.6g} -> {c:.6g}")
    if other_rows:
        other_rows.sort(key=lambda r: r[0], reverse=True)
        print(f"\nlargest ungated deltas (top {args.top}):")
        for _, path, b, c in other_rows[:args.top]:
            print(f"  {path}  {b!r} -> {c!r}")
    if added:
        print(f"\nadded paths ({len(added)}):")
        for path in added[:args.top]:
            print(f"  + {path}")
    if removed:
        print(f"\nremoved paths ({len(removed)}):")
        for path in removed[:args.top]:
            print(f"  - {path}")

    if failures:
        print(f"\nFAIL ({len(failures)}):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nOK: no throughput or cross-check regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
