#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh -all -seed 1
#
# It builds the benchmark command and the layer drives from source into
# .bench_build/ at the root of the checkout, then runs the command from
# that root. Nothing is read or written outside the checkout (the Go
# toolchain aside): the build cache and temporary files live in
# .bench_build/ too.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark: $root does not hold the program's source (go.mod, internal/); nothing to measure" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false GOWORK=off GOPATH="$build/gopath"

# Rebuild when any Go source is newer than the last build.
stamp="$build/bin/.stamp"
if [[ ! -f "$stamp" ]] || [[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]]; then
	rm -f "$build"/bin/drive-*
	(cd benchmark && go build -o "$build/bin/ahlbench" .)
	# Each drive builds on its own: one whose layer lost a public function
	# fails alone, and the command reports its metrics as missing.
	for dir in benchmark/drives/*/; do
		layer="$(basename "$dir")"
		[[ "$layer" == drive ]] && continue
		(cd benchmark && go build -o "$build/bin/drive-$layer" "./drives/$layer") ||
			echo "benchmark: drive $layer did not build; its metrics will be reported missing" >&2
	done
	touch "$stamp"
fi

export BENCH_REVISION="${BENCH_REVISION:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)}"
exec "$build/bin/ahlbench" "$@"
