#!/usr/bin/env bash
# Builds the benchmark and marchserve from the checkout it is run in, then
# makes one benchmark run. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 24 --trace 0
#
# Every build output and Go cache stays under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$out/bin" "$out/tmp"
(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/marchserve" ./cmd/marchserve
exec "$out/bin/perfbench" --server-bin "$out/bin/marchserve" "$@"
