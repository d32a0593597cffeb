#!/usr/bin/env bash
# run.sh builds the serving binaries and perfbench from the checkout's
# sources, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload exact-100k --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build product, Go cache and prepared
# corpus lands under .bench_build/ in that root, so the benchmark reads and
# writes nothing outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ibserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/ and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

# Build output goes to stderr: perfbench's last stdout line is its JSON result.
(cd "$root" && go build -o "$build/bin/" ./cmd/ibgen ./cmd/ibtrain ./cmd/ibserve ./cmd/ibrouter) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" "$@"
