#!/usr/bin/env bash
# Regenerate the golden campaign corpus under tests/golden/.
#
# Usage: tools/regen_golden.sh [BUILD]    (default: build)
#
# Runs every shape in tests/golden/shapes.txt as
# `pfsim --campaign --jobs=1 <flags>`, or as `TARGET --jobs=1 <flags>`
# when the shape names its producer with @TARGET (the binary of that
# name under BUILD/tools or BUILD/tests). It strips the host fields
# that compare_campaign_json.py ignores and writes
# tests/golden/<name>.json with one key per line. For each file it
# first prints the comparator's verdict against the committed file:
# IDENTICAL, or every moved field as `path: old -> new`. This is the
# only way to re-baseline the corpus: one commit that runs this script
# and pastes those lines into CHANGES.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
golden=$root/tests/golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

while read -r name flags; do
    case $name in '' | '#'*) continue ;; esac
    echo "== $name"
    case $flags in
        @*)
            producer=${flags%% *}
            flags=${flags#"$producer"}
            producer=${producer#@}
            campaign=
            ;;
        *)
            producer=pfsim
            campaign=--campaign
            ;;
    esac
    bin=$build/tools/$producer
    [ -x "$bin" ] || bin=$build/tests/$producer
    # shellcheck disable=SC2086  # flags are whitespace-separated
    if ! "$bin" $campaign --jobs=1 $flags --json="$tmp/$name.json" \
        </dev/null >"$tmp/log" 2>&1; then
        cat "$tmp/log"
        exit 1
    fi
    PYTHONPATH=$root/tools python3 - "$tmp/$name.json" "$tmp/stripped.json" <<'PY'
import json
import sys

from compare_campaign_json import strip

with open(sys.argv[1], encoding="utf-8") as fh:
    report = strip(json.load(fh))
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(report, fh, indent=1)
    fh.write("\n")
PY
    if [ -e "$golden/$name.json" ]; then
        python3 "$root/tools/compare_campaign_json.py" \
            "$golden/$name.json" "$tmp/stripped.json" || true
    fi
    mv "$tmp/stripped.json" "$golden/$name.json"
done < "$golden/shapes.txt"
