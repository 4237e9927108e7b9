#!/usr/bin/env bash
# run.sh — build and run the repository benchmark.
#
# bench/ is a Go module of its own (cxlpool/bench) that reaches the
# simulator through a replace directive, so it builds only inside a
# full checkout. The binary and the Go build cache go to .bench_build/
# at the repository root; results, spans and profiles to bench/out/.
#
# Usage (from anywhere):
#   bench/run.sh --workload fleet-hotspot --seed 42 --seconds 25 --trace 0
#   bench/run.sh [-seed N] [-seconds S]   # all workloads, 5 fresh processes each
#   bench/run.sh --traced [-seed N]       # ... plus one traced run per workload
#   bench/run.sh --compare A.json B.json  # judge B against A
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
(cd bench && go build -o "$build/cxlbench" .)
# Two runtime settings keep host effects out of the timings:
# - GOMAXPROCS=1: the reference host's two vCPUs gave about 1.2 CPUs of
#   throughput when both were busy, so a second P (a GC worker, or a
#   scenario's parallel section) slowed the pass it was meant to speed
#   up, by an amount that varied with the host's load.
# - madvdontneed=0: every pass frees and regrows a few hundred MB of
#   heap. With MADV_DONTNEED the scavenger hands those pages back and
#   each pass faults them in again; on a VM that cost spread the pass
#   times of one input 21-64% between quartiles, against 3-6% with
#   MADV_FREE.
export GOMAXPROCS=1 GODEBUG=madvdontneed=0
exec "$build/cxlbench" "$@"
