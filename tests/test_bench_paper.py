#!/usr/bin/env python3
"""The paper harness runs the evaluation matrix once and prints it all.

Usage: test_bench_paper.py BENCH_PAPER

Runs `BENCH_PAPER --quick --scale=0.03 --queries=100 --jobs=2` and
checks that it

  - exits 0;
  - prints both configuration self-check lines (Tables 2 and 3);
  - reports exactly one campaign, of 15 cells (5 apps x 3 modes), on
    stderr: every table and figure comes from the same matrix run.
"""

import re
import subprocess
import sys

ARGS = ["--quick", "--scale=0.03", "--queries=100", "--jobs=2"]
SELF_CHECKS = ["Table 2 self-check passed.",
               "Table 3 self-check passed (QPS matches the paper)."]
CAMPAIGN = re.compile(r"campaign: (\d+) cells")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    run = subprocess.run([argv[1]] + ARGS, capture_output=True,
                         text=True)
    campaigns = CAMPAIGN.findall(run.stderr)

    failures = []
    if run.returncode != 0:
        failures.append(f"exit {run.returncode}, expected 0")
    for line in SELF_CHECKS:
        if line not in run.stdout.splitlines():
            failures.append(f"missing stdout line '{line}'")
    if campaigns != ["15"]:
        failures.append(f"campaign cell counts {campaigns}, "
                        "expected exactly one campaign of 15 cells")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        print("--- stdout\n" + run.stdout + "--- stderr\n" + run.stderr)
        return 1
    print("ok: one 15-cell campaign, both self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
