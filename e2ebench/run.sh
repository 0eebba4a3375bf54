#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the checkout root with the benchmark's flags, e.g.
#   bash e2ebench/run.sh --workload mem-d7 --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and traced-pass spans go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" --spans-dir "$out/spans" "$@"
