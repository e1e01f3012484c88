#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload seq_fresh --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" --out .bench_build/perfbench "$@"
