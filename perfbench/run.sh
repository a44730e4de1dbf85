#!/usr/bin/env bash
# Builds cmd/semiserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload hit --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build product, the Go build cache
# and the go command's own config and telemetry stay under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/semiserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a semimatch checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/semiserve" ./cmd/semiserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/semiserve" -out "$out/runs" "$@"
