#!/usr/bin/env python3
"""The perf gate must be able to fail: check its exit codes.

Usage: test_check_perf_regression.py CHECKER FIXTURE_DIR

Runs tools/check_perf_regression.py on the fixture reports in
FIXTURE_DIR and asserts one exit code per case:

  1  a report twice as slow as its baseline (wall seconds);
  2  a report whose jobs count has no baseline entry;
  0  a report equal to its baseline.

The baseline fixture is a legacy v2 entry (it carries "lanes"), so the
equal case also covers reading legacy entries as serial runs.
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def gate(checker, current, baseline):
    return subprocess.run(
        [sys.executable, checker, str(current), str(baseline),
         "--tolerance=0.10"],
        capture_output=True, text=True).returncode


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    checker = argv[1]
    fixtures = pathlib.Path(argv[2])
    baseline = fixtures / "baseline.json"

    with tempfile.TemporaryDirectory() as tmp:
        # Same report, but measured with four campaign workers.
        report = json.loads(baseline.read_text(encoding="utf-8"))[0]
        report["jobs"] = 4
        jobs4 = pathlib.Path(tmp) / "jobs4.json"
        jobs4.write_text(json.dumps(report), encoding="utf-8")

        cases = [
            ("2x slower", fixtures / "slower.json", 1),
            ("jobs mismatch", jobs4, 2),
            ("equal", baseline, 0),
        ]
        failures = 0
        for name, current, want in cases:
            got = gate(checker, current, baseline)
            verdict = "ok" if got == want else "FAIL"
            print(f"{verdict}: {name}: exit {got}, expected {want}")
            failures += got != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
