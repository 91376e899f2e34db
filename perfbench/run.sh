#!/bin/sh
# Builds the benchmark driver from source and runs it from the repository
# root:
#
#	sh perfbench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
#
# Every file the run creates (Go build cache, binaries, CAS directories,
# span dumps) lives under the build directory: $CARGO_TARGET_DIR when set,
# .bench_build otherwise.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/experiments" ] || [ ! -d "$root/internal/service" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and internal/ not found)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

# Keep the toolchain's caches, temporary files and config inside the
# checkout, and never let it reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" -build "$build" "$@"
