#!/usr/bin/env python3
"""Compare the host-time self-profiles of two profiled campaign runs.

Usage: profile_diff.py CURRENT.json BASELINE.json [--threshold=X]

Either file is a campaign JSON written by `pfsim --campaign --profile
--json=FILE`; the "profile" key it carries is the process-wide
host-time profile ({"sites": [...]}, one entry per instrumented site
with count/total_ns/p50/p95/max), and "wall_seconds" is the campaign's
own wall clock. Sites are matched by name and the per-site deltas
printed, so a release bench can see where the simulator's own time
moved between two builds.

Profiler sites are inclusive: a site's time contains every site timed
inside it (event-dispatch contains the others), so the per-site rows
overlap and do not add up to host time. The total line therefore
compares the two runs' wall_seconds, never a sum of sites.

By default the comparison is informational (exit 0 unless the input is
unusable). With --threshold=X (a fraction, e.g. 0.25, also settable
via PF_PROFILE_TOLERANCE) the script exits 1 when wall_seconds grew by
more than X relative to the baseline — a softer companion to
check_perf_regression.py's wall-seconds gate. Host time is noisy on
shared runners; thresholds below ~0.25 will flake.

A file without a "profile" key (run without --profile) or without
"wall_seconds" is an error (exit 2), as is unreadable input.
"""

import json
import os
import sys


def load_report(path):
    """Return (wall_seconds, {site name: site entry}) of one run."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"profile_diff: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    profile = data.get("profile")
    if not isinstance(profile, dict) or "sites" not in profile:
        print(f"profile_diff: {path} has no profile block (was the "
              "run made with --profile?)", file=sys.stderr)
        sys.exit(2)
    wall = data.get("wall_seconds")
    if not isinstance(wall, (int, float)):
        print(f"profile_diff: {path} has no wall_seconds",
              file=sys.stderr)
        sys.exit(2)
    return wall, {site["site"]: site for site in profile["sites"]}


def fmt_ms(ns):
    return f"{ns / 1e6:,.2f}"


def main(argv):
    threshold = None
    env = os.environ.get("PF_PROFILE_TOLERANCE")
    if env is not None:
        threshold = float(env)
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    cur_wall, current = load_report(paths[0])
    base_wall, baseline = load_report(paths[1])

    print("per-site host time (inclusive: nested sites overlap)")
    print(f"{'site':<22s} {'component':<12s} {'base ms':>12s} "
          f"{'cur ms':>12s} {'delta ms':>12s} {'ratio':>8s}")
    for name in sorted(set(current) | set(baseline)):
        cur = current.get(name, {})
        base = baseline.get(name, {})
        comp = cur.get("component") or base.get("component") or "?"
        cur_ns = cur.get("total_ns", 0)
        base_ns = base.get("total_ns", 0)
        ratio = (f"{cur_ns / base_ns:.2f}x" if base_ns else
                 ("new" if cur_ns else "-"))
        print(f"{name:<22s} {comp:<12s} {fmt_ms(base_ns):>12s} "
              f"{fmt_ms(cur_ns):>12s} {fmt_ms(cur_ns - base_ns):>12s} "
              f"{ratio:>8s}")

    ratio = cur_wall / base_wall if base_wall else float("inf")
    print(f"\ncampaign wall_seconds: {base_wall:.3f} -> {cur_wall:.3f} s "
          f"({ratio:.2%})")

    if threshold is not None and base_wall:
        ceiling = base_wall * (1.0 + threshold)
        if cur_wall > ceiling:
            print(f"FAIL: wall_seconds grew past the {threshold:.0%} "
                  f"threshold ({ceiling:.3f} s ceiling)")
            sys.exit(1)
        print(f"OK: within the {threshold:.0%} threshold")
    sys.exit(0)


if __name__ == "__main__":
    main(sys.argv)
