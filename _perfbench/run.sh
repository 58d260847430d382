#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash _perfbench/run.sh --workload piggyback-sweep --seed 1 --seconds 30 --trace 0
# The Go build cache and the binary stay under .bench_build in the root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
if rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
else
	# Outside a git checkout: a digest of the module's sources.
	commit=src-$(find "$root" -path "$build" -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sed "s|$root/||" | sha256sum | cut -c1-16)
fi
go build -C "$root/_perfbench" -ldflags "-X main.commit=$commit" -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
