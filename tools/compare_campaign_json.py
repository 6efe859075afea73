#!/usr/bin/env python3
"""Diff two campaign JSON reports, ignoring host-side timing fields.

Usage: compare_campaign_json.py A.json B.json

The simulator's contract is that modelled results are a pure function
of the configuration and seed — never of the host: not its wall-clock,
its load, or its instruction set (the SIMD dispatch tiers are
bit-identical by construction). This script enforces that contract for
CI's dispatch-equivalence leg: a campaign run natively and one run
under PF_FORCE_SCALAR=1 must produce byte-equal reports once the
host-measurement fields are stripped. The same holds across worker
counts, so the worker count itself (`jobs`) is stripped too: a
`--jobs=1` campaign and a `--jobs=N` one must compare equal.

Exit status: 0 identical, 1 different, 2 usage/IO error.
"""

import json
import sys

# Fields that measure (or configure) the host rather than the
# simulated machine.
HOST_FIELDS = frozenset({
    "jobs",
    "wall_seconds",
    "host_seconds",
    "host_ms",
    "events_per_sec",
    "pages_scanned_per_sec",
    "peak_rss_kb",
    "baseline_wall_seconds",
    "speedup",
})


def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items()
                if k not in HOST_FIELDS}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def describe_diff(a, b, path="$"):
    """Print the first few places the stripped reports disagree."""
    if type(a) is not type(b):
        print(f"  {path}: type {type(a).__name__} vs "
              f"{type(b).__name__}")
        return 1
    if isinstance(a, dict):
        count = 0
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                print(f"  {path}.{key}: present in only one report")
                count += 1
            elif a[key] != b[key]:
                count += describe_diff(a[key], b[key], f"{path}.{key}")
            if count >= 10:
                break
        return count
    if isinstance(a, list):
        if len(a) != len(b):
            print(f"  {path}: length {len(a)} vs {len(b)}")
            return 1
        count = 0
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                count += describe_diff(x, y, f"{path}[{i}]")
            if count >= 10:
                break
        return count
    print(f"  {path}: {a!r} vs {b!r}")
    return 1


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    reports = []
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(strip(json.load(fh)))
        except (OSError, ValueError) as err:
            print(f"compare_campaign_json: cannot read {path}: {err}",
                  file=sys.stderr)
            sys.exit(2)

    if reports[0] == reports[1]:
        print("IDENTICAL (host fields stripped)")
        sys.exit(0)

    print("DIFFER: modelled results depend on something host-side")
    describe_diff(reports[0], reports[1])
    sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
