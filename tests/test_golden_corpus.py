#!/usr/bin/env python3
"""One golden corpus shape: identical results, plus the invariants.

Usage: test_golden_corpus.py PRODUCER SHAPE

Reads SHAPE's flags from tests/golden/shapes.txt and runs
`PRODUCER --campaign --jobs=4 <flags>`, where PRODUCER is pfsim, or
`PRODUCER --jobs=4 <flags>` for a shape that names its producer with
@TARGET. Fails unless tools/compare_campaign_json.py finds the fresh
report identical to tests/golden/SHAPE.json, which
tools/regen_golden.sh writes at --jobs=1, and unless the fresh report
keeps these invariants:

  - every cell is ok;
  - wherever a faults block exists, oracle_violations == 0, every
    fault class the --faults spec enables fired in every cell whose
    mode can fire it (handoff classes only at more than one MC), and
    where handoffs were lost and none dead-lettered, every lost
    handoff was retried (handoff_retries == handoffs_lost);
  - under --churn, every cell cloned or booted a VM;
  - under --num-mcs=N > 1, every cell reports N MCs, PageForge cells
    scan, handoffs_in == handoffs_out unless handoffs were lost or
    corrupted, and a PageForge cell that was wedged detected it and
    failed over;
  - the shape-specific claims in REFUSING_MODES.
"""

import json
import pathlib
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COMPARE = ROOT / "tools" / "compare_campaign_json.py"

# --faults key -> the counter it drives, by the modes that can fire it.
EVERY_MODE_CLASSES = {"rate": "flip_events", "double": "double_bit_flips",
                      "stuck": "stuck_at_faults",
                      "minikey": "minikey_targeted",
                      "brownout": "brownouts"}
PAGEFORGE_CLASSES = {"scantable": "table_corruptions",
                     "race": "race_writes",
                     "mcwedge": "mc_wedges_injected"}
HANDOFF_CLASSES = {"handoff_loss": "handoffs_lost",
                   "handoff_corrupt": "handoffs_corrupted",
                   "handoff_spike": "handoffs_spiked"}

# Shapes whose modes must each refuse a merge into a poisoned frame.
REFUSING_MODES = {"poisoned-targets": {"KSM", "PageForge"}}


def shape_flags(name):
    """(producer, flags): producer is None for a pfsim shape."""
    for line in (GOLDEN / "shapes.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            shape, *flags = shlex.split(line)
            if shape == name:
                if flags and flags[0].startswith("@"):
                    return flags[0][1:], flags[1:]
                return None, flags
    sys.exit(f"test_golden_corpus: no shape {name!r} in shapes.txt")


def flag_value(flags, name, default=None):
    for flag in flags:
        if flag.startswith(f"--{name}="):
            return flag.split("=", 1)[1]
    return default


def fault_classes(spec, mode, num_mcs):
    """Counters that must be nonzero in a cell of this mode."""
    keys = {item.split("=")[0] for item in (spec or "").split(",")}
    classes = dict(EVERY_MODE_CLASSES)
    if mode == "PageForge":
        classes.update(PAGEFORGE_CLASSES)
        if num_mcs > 1:
            classes.update(HANDOFF_CLASSES)
    return [counter for key, counter in classes.items() if key in keys]


def check(name, flags, report):
    """Yield one message per broken invariant."""
    num_mcs = int(flag_value(flags, "num-mcs", "1"))
    spec = flag_value(flags, "faults")
    refusals = {}
    for cell in report["cells"]:
        where = f"{cell['app']}/{cell['mode']}"
        if not cell["ok"]:
            yield f"{where}: cell failed: {cell.get('error')}"
            continue
        result = cell["result"]
        faults = result.get("faults")
        if faults is not None:
            if faults["oracle_violations"]:
                yield (f"{where}: oracle_violations "
                       f"{faults['oracle_violations']}")
            for counter in fault_classes(spec, cell["mode"], num_mcs):
                if not faults[counter]:
                    yield f"{where}: injected class {counter} never fired"
            if (faults["handoffs_lost"] and
                    not faults["handoff_dead_letters"] and
                    faults["handoff_retries"] != faults["handoffs_lost"]):
                yield (f"{where}: handoff_retries "
                       f"{faults['handoff_retries']} != handoffs_lost "
                       f"{faults['handoffs_lost']}")
            refusals[cell["mode"]] = (refusals.get(cell["mode"], 0) +
                                      faults["poisoned_merge_refusals"])
        if flag_value(flags, "churn"):
            lifecycle = result["lifecycle"]
            if lifecycle["clones"] + lifecycle["boots"] == 0:
                yield f"{where}: no VM arrived under churn"
        if num_mcs > 1:
            mcs = result.get("mcs", [])
            if result.get("num_mcs") != num_mcs or len(mcs) != num_mcs:
                yield f"{where}: expected {num_mcs} MCs in the report"
                continue
            if cell["mode"] != "PageForge":
                continue
            if sum(mc["scans"] for mc in mcs) == 0:
                yield f"{where}: no PageForge scans"
            faults = faults or {}
            if (not faults.get("handoffs_lost") and
                    not faults.get("handoffs_corrupted") and
                    sum(mc["handoffs_in"] for mc in mcs) !=
                    sum(mc["handoffs_out"] for mc in mcs)):
                yield f"{where}: handoffs_in != handoffs_out"
            if faults.get("mc_wedges_injected") and not (
                    faults["wedges_detected"] and faults["failovers"]):
                yield f"{where}: a wedge went undetected or not failed over"
    for mode in REFUSING_MODES.get(name, ()):
        if not refusals.get(mode):
            yield f"{mode}: no poisoned-merge refusal"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, name = argv[1], argv[2]
    producer, flags = shape_flags(name)
    campaign = ["--campaign"] if producer is None else []
    golden = GOLDEN / f"{name}.json"
    if not golden.exists():
        print(f"FAIL: {golden} is missing; run tools/regen_golden.sh")
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        fresh = pathlib.Path(tmp) / f"{name}.json"
        run = subprocess.run(
            [binary, *campaign, "--jobs=4", *flags, f"--json={fresh}"],
            capture_output=True, text=True)
        if not fresh.exists():
            print(run.stdout, run.stderr)
            print(f"FAIL: {binary} exited {run.returncode} "
                  "without a report")
            return 1
        same = subprocess.run([sys.executable, str(COMPARE), str(golden),
                               str(fresh)]).returncode
        problems = list(check(name, flags, json.loads(fresh.read_text())))
    for problem in problems:
        print(f"FAIL: {problem}")
    if run.returncode != 0:
        print(f"FAIL: {binary} exited {run.returncode}")
    return 1 if same or problems or run.returncode else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
