#!/usr/bin/env bash
# go test wrapper for CI steps that select tests with -run. go test
# passes a package in which the pattern matched nothing, so a renamed
# test would otherwise turn the step into a silent no-op. This fails the
# step when the output says "no tests to run", or when any |-separated
# name of the -run pattern started no test. Arguments are go test's:
#
#   bash .github/scripts/go-test-run.sh -race -run 'TestA|TestB' ./internal/fuzz/
set -euo pipefail
args=("$@")
pattern=""
for ((i = 0; i < ${#args[@]} - 1; i++)); do
  if [ "${args[i]}" = "-run" ]; then pattern="${args[i + 1]}"; fi
done
if [ -z "$pattern" ]; then
  echo "go-test-run: no -run pattern given" >&2
  exit 2
fi
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go test -v "$@" | tee "$out"
if grep -q 'no tests to run' "$out"; then
  echo "go-test-run: a package matched no test for -run '$pattern'" >&2
  exit 1
fi
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
  if ! grep -q "^=== RUN   ${name}" "$out"; then
    echo "go-test-run: -run name '${name}' started no test" >&2
    exit 1
  fi
done
