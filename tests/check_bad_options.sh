#!/usr/bin/env bash
# The shared bench CLI rejects malformed numbers: each bad --threads/--seed
# value must exit 2 with a one-line diagnostic naming the flag and the
# value, before any work (or any worker thread) starts.
#
# usage: check_bad_options.sh <bench-binary>
# The cases run in order and the script stops at the first one that is not
# rejected; a parser that accepts text silently runs the whole bench, so
# the non-numeric cases come first and the out-of-range ones (which such a
# parser would turn into billions of workers) are never reached.
set -u

bin="$1"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

check() {
  local flag="$1" value="$2" status
  "$bin" "$flag" "$value" --json-out none > stdout.txt 2> stderr.txt
  status=$?
  local want="invalid value for $flag: '$value'"
  if [ "$status" -ne 2 ] || ! grep -qF "$want" stderr.txt; then
    echo "FAIL: $flag $value exited $status; want 2 and \"$want\"" >&2
    cat stderr.txt >&2
    exit 1
  fi
}

check --threads abc
check --seed 12x
check --threads ""
check --threads 4abc
check --threads -1
check --threads +4
check --threads 4294967296
check --seed -5
check --seed 18446744073709551616
# Any strtoull base still parses.
if ! "$bin" --seed 0x10 --threads 0x1 --json-out none > /dev/null 2>&1; then
  echo "FAIL: --seed 0x10 --threads 0x1 was rejected" >&2
  exit 1
fi
echo "OK: every malformed --threads/--seed value was rejected"
