#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload tables-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build output, cache and temporary
# file stays under .bench_build/ there; the deployed binaries build with
# PGO off, and so does this one.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

(cd "${here}" && go build -pgo=off -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
