#!/usr/bin/env bash
# Work-golden gate: deterministic work counters are exact, so a bench's
# counters at its defaults are pinned like its stdout. Runs one bench with
# --metrics-out in a scratch directory, reads every counter the golden file
# names, and diffs the result against the golden. A change that makes the
# bench do more or less work edits the golden file, and that diff is the
# change's exact evidence.
#
# usage: check_work_golden.sh <bench-binary> <golden.json> [bench-args...]
# The golden file holds one `"<counter>": <value>` line per counter inside
# one JSON object. Regenerate it by copying the "got" side of a failing
# diff.
set -u

bin="$1"
golden="$2"
shift 2

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

if ! "$bin" "$@" --metrics-out metrics.json --json-out none \
    > stdout.txt 2> stderr.txt; then
  echo "FAIL: $bin exited nonzero" >&2
  cat stderr.txt >&2
  exit 1
fi

names=$(sed -n 's/^ *"\([^"]*\)": *[0-9][0-9]*,\{0,1\} *$/\1/p' "$golden")
if [ -z "$names" ]; then
  echo "FAIL: $golden names no counters" >&2
  exit 1
fi

{
  echo "{"
  first=1
  for name in $names; do
    key="${name//./\\.}"
    value=$(sed -n "s/^ *\"$key\":{\"type\":\"counter\",\"value\":\([0-9]*\)}.*/\1/p" \
      metrics.json)
    [ -n "$value" ] || value="missing"
    [ $first -eq 1 ] || printf ',\n'
    printf '  "%s": %s' "$name" "$value"
    first=0
  done
  printf '\n}\n'
} > got.json

if ! diff -u "$golden" got.json; then
  echo "FAIL: work counters drifted from $golden" >&2
  exit 1
fi
