#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload snow-dlb --seed 1 --seconds 30 --trace 0
#
# Every build product and Go cache stays under .bench_build/ at the
# checkout root. The build fails, and the script exits non-zero without
# printing a result, when the engine sources are not beside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
