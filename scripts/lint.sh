#!/usr/bin/env bash
# lint.sh — the static-analysis gate: gofmt, go vet, and the poollint
# analyzer suite (internal/lint) over the whole module.
#
# poollint enforces the repo's machine-checked contracts:
#   mapiter    no unordered map iteration in determinism-critical packages
#   wallclock  no wall-clock time or global rand inside internal/
#   bufown     bufpool Get/Put ownership pairing within each function
#   simhandle  no use of a sim event handle after Cancel
#   testonly   no exported internal/ identifier that only tests reach
#              (module-wide, with the nested bench/ module as a caller,
#              whatever packages are named)
#
# Exit nonzero on any finding. Deliberate exceptions carry
# //lint:ordered <reason> or //lint:allow <analyzer> <reason> at the
# site; a directive without a reason is itself a finding, so every
# suppression in the tree is an explained one.
#
# Usage:
#   scripts/lint.sh              # whole module
#   scripts/lint.sh ./internal/orch/...   # one subtree
set -euo pipefail

cd "$(dirname "$0")/.."

patterns=("$@")
if [ ${#patterns[@]} -eq 0 ]; then
    patterns=(./...)
fi

fail=0

# gofmt has no useful exit code; diff-check the tracked Go files.
unformatted=$(gofmt -l cmd internal *.go 2>/dev/null || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    fail=1
fi

go vet "${patterns[@]}" || fail=1

go run ./cmd/poollint "${patterns[@]}" || fail=1

if [ "$fail" -ne 0 ]; then
    echo "lint: FAIL" >&2
    exit 1
fi
echo "lint: ok"
