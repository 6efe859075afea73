#!/usr/bin/env python3
"""compare_campaign_json.py can fail, and names what moved.

Usage: test_compare_campaign_json.py COMPARE_CAMPAIGN_JSON

Runs the comparator on generated campaign JSON and asserts one exit
code per case:

  0  a report and itself;
  0  reports that differ only in host fields (jobs, wall_seconds,
     host_seconds);
  1  one double scaled by 1 + 1e-9; the output names its path with
     old -> new;
  2  an unreadable file.
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def campaign(jobs, l3_miss_rate, host_seconds):
    result = {"l3_miss_rate": l3_miss_rate, "merges": 12,
              "host_seconds": host_seconds,
              "mcs": [{"scans": 5}, {"scans": 7}]}
    return {"schema": "pageforge-campaign-v2", "jobs": jobs,
            "wall_seconds": 3.0 * jobs, "failures": 0,
            "cells": [{"app": "silo", "mode": "KSM", "seed": 42,
                       "ok": True, "result": result}]}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tool = argv[1]
    rate = 0.123456789
    fixtures = {
        "golden": campaign(1, rate, 1.5),
        "other-host": campaign(4, rate, 0.4),
        "perturbed": campaign(1, rate * (1 + 1e-9), 1.5),
    }

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in fixtures.items():
            paths[name] = pathlib.Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(data), encoding="utf-8")
        paths["missing"] = pathlib.Path(tmp) / "missing.json"

        cases = [
            ("identical", "golden", 0, None),
            ("host fields differ", "other-host", 0, None),
            ("one double perturbed", "perturbed", 1,
             "$.cells[silo/KSM/42].result.l3_miss_rate: "
             f"{rate!r} -> {rate * (1 + 1e-9)!r}"),
            ("unreadable file", "missing", 2, None),
        ]
        failures = 0
        for name, other, want, line in cases:
            run = subprocess.run(
                [sys.executable, tool, str(paths["golden"]),
                 str(paths[other])], capture_output=True, text=True)
            ok = run.returncode == want and (line is None or
                                             line in run.stdout)
            print(f"{'ok' if ok else 'FAIL'}: {name}: exit "
                  f"{run.returncode}, expected {want}")
            if not ok:
                print(run.stdout, run.stderr)
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
