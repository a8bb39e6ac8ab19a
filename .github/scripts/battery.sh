#!/usr/bin/env bash
# Usage: battery.sh <cargo test arguments>
#
# Runs `cargo test -q` with the given arguments and fails when the run
# fails or when its filter matched no test, so a renamed test cannot
# silently drop out of a CI step that names it.
set -u
out=$(cargo test -q "$@" 2>&1) || { echo "$out"; exit 1; }
echo "$out"
echo "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed' \
  || { echo "no test matched: cargo test $*"; exit 1; }
