#!/usr/bin/env bash
# Builds schedbench from the checkout this script lives in and runs it from
# the checkout root with the given arguments, e.g.
#
#   bash cmd/schedbench/run.sh -workload serve-cold -seed 1 -seconds 10 -trace 0
#
# The build cache, the binary and every temporary file stay under
# .bench_build/ at the checkout root; the build never reaches the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/cmd/schedbench" && go build -o "$out/schedbench" .)
cd "$root"
exec "$out/schedbench" "$@"
