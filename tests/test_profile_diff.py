#!/usr/bin/env python3
"""profile_diff's threshold gates wall clock, not a sum of sites.

Usage: test_profile_diff.py PROFILE_DIFF

Profiler sites are inclusive (event-dispatch contains the others), so
their sum is not host time. Runs tools/profile_diff.py with
--threshold=0.25 on generated campaign JSON and asserts one exit code
per case:

  0  the sum of sites grows past the threshold, wall_seconds does not;
  1  wall_seconds grows past the threshold, the sites do not;
  0  a report equal to its baseline;
  2  a report without a profile block.
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def campaign(wall_seconds, site_seconds):
    """A minimal profiled campaign JSON with the given site totals."""
    sites = [{"site": name, "component": "sim", "count": 1,
              "total_ns": int(seconds * 1e9)}
             for name, seconds in site_seconds.items()]
    return {"schema": "pageforge-campaign-v2", "jobs": 1,
            "wall_seconds": wall_seconds, "failures": 0, "cells": [],
            "profile": {"sites": sites}}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tool = argv[1]

    base_sites = {"event-dispatch": 9.0, "content-tree-search": 1.0,
                  "simd-compare": 0.1}
    # Nested sites all grow (sum 10.1 s -> 13.6 s, +35%) while the
    # campaign's wall clock moves only 5%.
    nested_sites = {"event-dispatch": 10.0, "content-tree-search": 3.0,
                    "simd-compare": 0.6}
    fixtures = {
        "baseline": campaign(10.0, base_sites),
        "sites-grow": campaign(10.5, nested_sites),
        "wall-grows": campaign(13.0, base_sites),
        "unprofiled": {"schema": "pageforge-campaign-v2",
                       "wall_seconds": 10.0, "cells": []},
    }

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in fixtures.items():
            paths[name] = pathlib.Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(data), encoding="utf-8")

        cases = [
            ("sum of sites grows, wall does not", "sites-grow", 0),
            ("wall_seconds grows", "wall-grows", 1),
            ("equal", "baseline", 0),
            ("no profile block", "unprofiled", 2),
        ]
        failures = 0
        for name, current, want in cases:
            got = subprocess.run(
                [sys.executable, tool, str(paths[current]),
                 str(paths["baseline"]), "--threshold=0.25"],
                capture_output=True, text=True).returncode
            verdict = "ok" if got == want else "FAIL"
            print(f"{verdict}: {name}: exit {got}, expected {want}")
            failures += got != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
