#!/usr/bin/env bash
# Builds repo-server and the benchmark driver from the checkout's source,
# then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload deploy-day2 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/repo-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/repo-server and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/repo-server" ./cmd/repo-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
# go build rewrites both binaries on every run. Flush them now: left to the
# kernel's writeback, 20 MB of dirty pages reach the disk during the run,
# and the server's fsyncs wait behind them.
sync "$out/bin/repo-server" "$out/bin/perfbench"
exec "$out/bin/perfbench" -server "$out/bin/repo-server" -work "$out" "$@"
