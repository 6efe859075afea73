#!/usr/bin/env python3
"""Compare a fresh simulation-speed report against the committed baseline.

Usage: check_perf_regression.py CURRENT.json BASELINE.json [--tolerance=0.10]

Either file holds one report object or a list of them. Reports are
matched like with like on the (num_mcs, jobs) pair: campaign wall time
at --jobs=4 says nothing about a per-core regression measured against
a --jobs=1 baseline. Legacy v1 reports (no num_mcs) are read as the
1-MC machine; legacy v2 reports carry a "lanes" field from the removed
threaded lane executor and are read as serial runs.

The gated metric is the campaign's wall_seconds (lower is better). A
matched pair fails (exit 1) when the fresh report runs more than the
tolerance slower than the baseline. Events/sec is printed for
information only: one event can cost 86 ns or 16 ms of host time, so
the rate moves with the event mix, not with speed. The committed
baseline was measured on a dedicated box; CI runners are shared and
differ in absolute speed, so the gate can be widened for CI with
PF_PERF_TOLERANCE (a fraction, e.g. 0.5) without touching the script.

A current report with no baseline entry for its (num_mcs, jobs) pair,
or whose (app, mode, seed) cells differ from the baseline's, is an
error (exit 2): the two runs are not comparable. Any cell failure in
the fresh report is a hard failure (exit 1) regardless of speed.
"""

import json
import os
import sys

SCHEMAS = ("pageforge-simspeed-v1", "pageforge-simspeed-v2",
           "pageforge-simspeed-v3")


def fail_usage(message):
    print(f"check_perf_regression: {message}", file=sys.stderr)
    sys.exit(2)


def load_reports(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        fail_usage(f"cannot read {path}: {err}")
    reports = data if isinstance(data, list) else [data]
    for report in reports:
        if report.get("schema") not in SCHEMAS:
            fail_usage(f"{path} has unexpected schema "
                       f"{report.get('schema')!r}")
    return reports


def config_key(report):
    return (report.get("num_mcs", 1), report.get("jobs", 1))


def cell_key(cell):
    return (cell["app"], cell["mode"], cell.get("seed"))


def check_pair(current, baseline, tolerance):
    num_mcs, jobs = config_key(current)
    label = f"[num_mcs={num_mcs} jobs={jobs}]"

    if current.get("failures", 0):
        print(f"FAIL {label}: {current['failures']} cell(s) failed in "
              "the current run")
        return False

    cur = current["wall_seconds"]
    base = baseline["wall_seconds"]
    ceiling = base * (1.0 + tolerance)
    ok = cur <= ceiling
    verdict = "OK" if ok else "FAIL"
    print(f"{verdict} {label}: {cur:.2f} s wall vs baseline {base:.2f} s "
          f"({cur / base:.2%}, ceiling {ceiling:.2f} s at tolerance "
          f"{tolerance:.0%})")
    if current.get("events_per_sec") and baseline.get("events_per_sec"):
        print(f"  info: {current['events_per_sec']:,.0f} events/s vs "
              f"baseline {baseline['events_per_sec']:,.0f}")

    # Per-cell host time for the artifact log: regressions rarely hit
    # every cell equally, and the slowest cell names the culprit.
    base_cells = {cell_key(c): c for c in baseline.get("cells", [])}
    for cell in current.get("cells", []):
        ref = base_cells.get(cell_key(cell))
        if not ref or not ref.get("host_ms") or "host_ms" not in cell:
            continue
        print(f"  {cell['app']:>10s}/{cell['mode']:<9s} "
              f"{cell['host_ms']:>10,.1f} ms  "
              f"({cell['host_ms'] / ref['host_ms']:.2%} of baseline)")
    return ok


def main(argv):
    tolerance = float(os.environ.get("PF_PERF_TOLERANCE", "0.10"))
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    currents = load_reports(paths[0])
    baselines = {config_key(r): r for r in load_reports(paths[1])}

    ok = True
    for current in currents:
        num_mcs, jobs = config_key(current)
        baseline = baselines.get((num_mcs, jobs))
        if baseline is None:
            fail_usage(f"no baseline entry for num_mcs={num_mcs} "
                       f"jobs={jobs} in {paths[1]}")
        cur_cells = sorted(cell_key(c) for c in current.get("cells", []))
        base_cells = sorted(cell_key(c) for c in baseline.get("cells", []))
        if cur_cells != base_cells:
            fail_usage(f"num_mcs={num_mcs} jobs={jobs}: the current "
                       f"report's cells differ from {paths[1]}'s")
        ok &= check_pair(current, baseline, tolerance)

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv)
