#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it; run from the
# repository root:
#
#   bash perfbench/run.sh --workload colocation --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -k 10 -save set1.json
#   bash perfbench/run.sh compare set1.json set2.json
#
# The binary, Go's caches, its temporary build files and trace files
# stay under .bench_build/ in the checkout. Runtime tuning variables are
# cleared so every run uses the same GC and scheduler settings.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
