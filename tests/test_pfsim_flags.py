#!/usr/bin/env python3
"""pfsim must refuse a flag that the chosen mode would silently drop.

Usage: test_pfsim_flags.py PFSIM

Runs pfsim and asserts one exit code per case:

  1  a single run given campaign flags (--json, --queries, --jobs);
     the error names the flag and no JSON file is written;
  1  a campaign given single-run flags (--metrics-csv, --dump-stats,
     --window-ms); the error names the flag and no CSV is written;
  0  a well-formed single run;
  0  a well-formed campaign, which writes its JSON;
  0  --help and -h, which print the usage to stdout (with a literal
     "frame % N", not printf's "%%").
"""

import pathlib
import subprocess
import sys
import tempfile


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    pfsim = argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        single_json = tmp / "single.json"
        campaign_csv = tmp / "campaign.csv"
        campaign_json = tmp / "campaign.json"
        cases = [
            ("single run with campaign flags",
             ["--app=img_dnn", "--mode=ksm", "--scale=0.03",
              "--window-ms=20", f"--json={single_json}", "--queries=50",
              "--jobs=2"],
             1, "--json", single_json, False),
            ("campaign with single-run flags",
             ["--campaign", "--apps=silo", "--modes=baseline",
              "--scale=0.03", "--queries=20", "--jobs=1",
              f"--metrics-csv={campaign_csv}", "--dump-stats",
              "--window-ms=5"],
             1, "--metrics-csv", campaign_csv, False),
            ("well-formed single run",
             ["--app=silo", "--mode=baseline", "--scale=0.03",
              "--window-ms=5", "--settle-ms=1"],
             0, None, None, False),
            ("well-formed campaign",
             ["--campaign", "--apps=silo", "--modes=baseline",
              "--scale=0.03", "--queries=20", "--jobs=1",
              f"--json={campaign_json}"],
             0, None, campaign_json, True),
        ]
        failures = 0
        for name, args, want, flag, output, want_output in cases:
            run = subprocess.run([pfsim, *args], capture_output=True,
                                 text=True)
            problems = []
            if run.returncode != want:
                problems.append(f"exit {run.returncode}, expected {want}")
            if flag and flag not in run.stderr:
                problems.append(f"stderr does not name {flag}: "
                                f"{run.stderr.strip()!r}")
            if output and output.exists() != want_output:
                problems.append(f"{output.name} "
                                f"{'missing' if want_output else 'written'}")
            failures += report(name, problems)
        for flag in ("--help", "-h"):
            run = subprocess.run([pfsim, flag], capture_output=True,
                                 text=True)
            problems = []
            if run.returncode != 0:
                problems.append(f"exit {run.returncode}, expected 0")
            for text in ("usage:", "frame % N"):
                if text not in run.stdout:
                    problems.append(f"stdout lacks {text!r}")
            failures += report(flag, problems)
    return 1 if failures else 0


def report(name, problems):
    verdict = "FAIL" if problems else "ok"
    print(f"{verdict}: {name}"
          + (": " + "; ".join(problems) if problems else ""))
    return bool(problems)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
