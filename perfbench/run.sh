#!/usr/bin/env bash
# Builds the benchmark and the tlrserve binary from the checkout's own
# sources, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build output and cache stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/tlrserve" ./cmd/tlrserve
exec "$out/perfbench" --root "$root" --tlrserve "$out/tlrserve" "$@"
