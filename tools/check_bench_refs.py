#!/usr/bin/env python3
"""Verify that the benchmark reports and bench binaries the docs cite exist.

Usage: check_bench_refs.py [DOC ...]

Two checks:

  reports   every BENCH_*.json token must name a file at the repository
            root (the script's grandparent directory) that parses as
            JSON;
  binaries  every bench_* token must name a binary bench/CMakeLists.txt
            builds. A trailing `*` (`bench_ablation_*`) matches as a
            prefix; source names (`bench_common.hh`) are not binaries.

With no arguments, CHANGES.md and ROADMAP.md get the report check:
they name deleted binaries on purpose, as history. README.md,
EXPERIMENTS.md, DESIGN.md and .claude/skills/verify/SKILL.md get the
binary check (README.md names reports a run writes, not committed
ones). Doc paths passed as arguments get both checks.

A rename, a deleted harness or a forgotten `git add` leaves a dangling
reference that nobody notices until someone tries to reproduce a
number; this check turns it into a failing exit code.
"""

import json
import pathlib
import re
import sys

REPORT = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")
BINARY = re.compile(r"\bbench_[A-Za-z0-9_]+(?:\*|\b)(?!\.(?:cc|hh|h|py)\b)")
HISTORY_DOCS = ["CHANGES.md", "ROADMAP.md"]
BINARY_DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md",
               ".claude/skills/verify/SKILL.md"]


def built_binaries(root):
    """Target names in bench/CMakeLists.txt (comments stripped)."""
    text = (root / "bench" / "CMakeLists.txt").read_text(encoding="utf-8")
    code = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return set(BINARY.findall(code))


def binary_is_built(token, built):
    if token.endswith("*"):
        return any(name.startswith(token[:-1]) for name in built)
    return token in built


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    # (doc, check reports, check binaries)
    if argv[1:]:
        docs = [(root / d, True, True) for d in argv[1:]]
    else:
        docs = [(root / d, True, False) for d in HISTORY_DOCS] + \
            [(root / d, False, True) for d in BINARY_DOCS]

    reports = {}
    binaries = {}
    for doc, check_reports, check_binaries in docs:
        try:
            text = doc.read_text(encoding="utf-8")
        except OSError as err:
            print(f"check_bench_refs: cannot read {doc}: {err}",
                  file=sys.stderr)
            return 2
        if check_reports:
            for token in REPORT.findall(text):
                reports.setdefault(token, []).append(doc.name)
        if check_binaries:
            for token in BINARY.findall(text):
                binaries.setdefault(token, []).append(doc.name)

    failures = 0
    for token in sorted(reports):
        path = root / token
        cited = ", ".join(sorted(set(reports[token])))
        if not path.is_file():
            print(f"MISSING: {token} (cited in {cited})")
            failures += 1
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        except ValueError as err:
            print(f"INVALID: {token} does not parse: {err}")
            failures += 1
            continue
        print(f"ok: {token} (cited in {cited})")

    built = built_binaries(root) if binaries else set()
    for token in sorted(binaries):
        cited = ", ".join(sorted(set(binaries[token])))
        if not binary_is_built(token, built):
            print(f"NOT BUILT: {token} (cited in {cited})")
            failures += 1
            continue
        print(f"ok: {token} (cited in {cited})")

    if not reports and not binaries:
        print("check_bench_refs: no BENCH_*.json or bench_* references "
              "found")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
