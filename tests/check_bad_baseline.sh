#!/usr/bin/env bash
# A perf gate must not pass on a baseline it cannot read: the bench must
# reject a pinned value that is not a number, or is zero or negative (a
# "within 2x of the baseline" gate against 0 passes at any speed), with
# exit 2 and a diagnostic naming the key, before it runs anything.
#
# usage: check_bad_baseline.sh <bench-binary> <baseline.json> <key>
# Each case copies the real baseline into a temp file with <key>'s value
# replaced, and runs the bench on it with --quick --baseline.
set -u

bin="$1"
baseline="$2"
key="$3"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

for bad in '"fast"' 'fast' '' '0' '-2.0e5' '1e999' 'nan'; do
  sed "s/\"$key\": *[^,}]*/\"$key\": $bad/" "$baseline" > bad.json
  if ! grep -qF "\"$key\": $bad" bad.json; then
    echo "FAIL: could not write \"$key\": $bad into the baseline" >&2
    exit 1
  fi
  "$bin" --quick --json-out none --baseline bad.json \
      > stdout.txt 2> stderr.txt
  status=$?
  if [ "$status" -ne 2 ] || ! grep -qF "\"$key\" must be a positive number" \
      stderr.txt; then
    echo "FAIL: \"$key\": $bad exited $status; want 2 and a diagnostic" >&2
    cat stderr.txt >&2
    exit 1
  fi
done
echo "OK: every malformed \"$key\" was rejected"
