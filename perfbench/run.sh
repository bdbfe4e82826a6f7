#!/usr/bin/env bash
# Builds dbsherlockd and the load generator from source, then runs one
# benchmark workload against a fresh daemon. Run from the repository root:
#
#   bash perfbench/run.sh --workload triage-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory. The last line of stdout is the JSON result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dbsherlockd" ]; then
  echo "perfbench: run from the root of a dbsherlock checkout" >&2
  exit 2
fi
mkdir -p "$out"

# Keep the Go toolchain's caches and telemetry inside the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go build -o "$out/dbsherlockd" ./cmd/dbsherlockd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -daemon "$out/dbsherlockd" -work "$out/work" "$@"
