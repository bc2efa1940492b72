#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build
# artefact inside the checkout (.bench_build/). Arguments pass through:
#
#   bash bench/run.sh --workload fleet-mix --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -runs 5 -traced -out bench/results/<sha>.json
#   bash bench/run.sh compare old.json new.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/catalyzerd" ]]; then
	echo "bench: $root is not a catalyzer checkout (no go.mod or cmd/catalyzerd)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
