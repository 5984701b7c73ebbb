#!/usr/bin/env bash
# Builds the live-daemon benchmark from the checkout's sources and runs it
# with the given arguments. Every file the build and the run write (Go build
# cache, binary, WAL directories, span dumps) stays under .bench_build/ in
# the directory the script is started from, which must be the repository
# root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$here/../go.mod" || ! -d "$here/../internal/service" ]]; then
	echo "livebench: the voiceprint sources are not next to $here; run from a full checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/livebench" .)
exec "$out/livebench" -out "$out/livebench-out" "$@"
