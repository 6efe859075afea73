#!/usr/bin/env python3
"""Diff two campaign JSON reports, ignoring host-side timing fields.

Usage: compare_campaign_json.py OLD.json NEW.json

The simulator's contract is that modelled results are a pure function
of the configuration and seed — never of the host: not its wall-clock,
its load, or the number of campaign workers. Two campaigns of the same
configuration must produce equal reports once the host-measurement
fields are stripped. The worker count itself (`jobs`) is stripped too,
so a `--jobs=4` campaign can be diffed against the `--jobs=1` golden
corpus in tests/golden/.

On a difference it prints every differing leaf as `path: old -> new`,
which is also the table a corpus re-baseline records in CHANGES.md.
Cells are named by app/mode/seed in the path.

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

ABSENT = object()


def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items()
                if k not in HOST_FIELDS}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def label(item, index):
    """A cell's app/mode/seed, else the list index."""
    if isinstance(item, dict) and "app" in item and "mode" in item:
        return f"{item['app']}/{item['mode']}/{item.get('seed')}"
    return str(index)


def show(value):
    return "(absent)" if value is ABSENT else json.dumps(value)


def differences(old, new, path="$"):
    """Yield `path: old -> new` for every leaf where the reports differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from differences(old.get(key, ABSENT),
                                   new.get(key, ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            x = old[i] if i < len(old) else ABSENT
            y = new[i] if i < len(new) else ABSENT
            name = label(x if x is not ABSENT else y, i)
            yield from differences(x, y, f"{path}[{name}]")
    elif old != new:
        yield f"{path}: {show(old)} -> {show(new)}"


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

    lines = list(differences(*reports))
    if not lines:
        print("IDENTICAL (host fields stripped)")
        sys.exit(0)
    print(f"DIFFER: {len(lines)} fields, old -> new "
          "(host fields stripped)")
    for line in lines:
        print(f"  {line}")
    sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
