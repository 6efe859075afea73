#!/usr/bin/env python3
"""The doc-reference check must be able to fail: check its exit codes.

Usage: test_check_bench_refs.py CHECKER

Runs tools/check_bench_refs.py on fixture docs and asserts one exit
code per case:

  1  a doc naming a bench binary the build no longer makes;
  0  a doc naming only built binaries (one as a `bench_ablation_*`
     prefix), a source file and a committed report.
"""

import pathlib
import subprocess
import sys
import tempfile

DANGLING = """\
Figure 9 comes from `./build/bench/bench_fig9_mean_latency --quick`.
"""

BUILT = """\
Run `./build/bench/bench_paper --quick`; the `bench_ablation_*`
harnesses share `bench/bench_common.hh`. Simulation speed is recorded
in BENCH_simspeed.json.
"""


def check(checker, doc):
    return subprocess.run([sys.executable, checker, str(doc)],
                          capture_output=True, text=True).returncode


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checker = argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for name, text, want in [("dangling binary", DANGLING, 1),
                                 ("built binaries", BUILT, 0)]:
            doc = pathlib.Path(tmp) / (name.replace(" ", "_") + ".md")
            doc.write_text(text, encoding="utf-8")
            cases.append((name, doc, want))

        failures = 0
        for name, doc, want in cases:
            got = check(checker, doc)
            verdict = "ok" if got == want else "FAIL"
            print(f"{verdict}: {name}: exit {got}, expected {want}")
            failures += got != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
