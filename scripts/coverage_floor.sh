#!/usr/bin/env bash
# Coverage floors: runs each floored package's tests with a cover profile
# and fails if its statement coverage is below the floor. A results table
# is appended to $GITHUB_STEP_SUMMARY when that is set.
#
# Each FLOORS row is "<package>[:<file regex>] <floor %>". With a file
# regex, only the statements of the matching files count, pooled across
# them.
#
# Usage: scripts/coverage_floor.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# fleet/scenario/orchestrator: the fleet subsystem and the orchestrator
#   underneath it.
# wal: the durability boundary; a branch that never runs in tests first
#   runs during someone's recovery.
# campaign: the runner that finds bugs in everything else.
# loadgen: the load harness proves the admission claims.
# api tenancy.go + page.go: the multi-tenant security boundary.
FLOORS='
./internal/fleet/ 70
./internal/scenario/ 70
./internal/orchestrator/ 70
./internal/wal/ 85
./internal/campaign/ 80
./internal/loadgen/ 80
./pkg/xcbc/api/:tenancy\.go|page\.go 80
'

PROFILE="$(mktemp)"
trap 'rm -f "$PROFILE"' EXIT
SUMMARY="${GITHUB_STEP_SUMMARY:-/dev/null}"
{
	echo "### Coverage floors"
	echo ""
	echo "| package | coverage | floor |"
	echo "|---|---|---|"
} >> "$SUMMARY"

fail=0
while read -r target floor; do
	[ -n "$target" ] || continue
	pkg="${target%%:*}"
	files=""
	[ "$pkg" = "$target" ] || files="${target#*:}"
	go test -coverprofile="$PROFILE" "$pkg" < /dev/null
	# Prints "<coverage %> <1 if below the floor>", judged unrounded.
	read -r pct below < <(awk -v re="$files" -v floor="$floor" 'NR > 1 && (re == "" || $1 ~ re) {
		total += $2; if ($3 > 0) cov += $2
	} END { if (total > 0) printf "%.2f %d\n", 100 * cov / total, 100 * cov / total < floor }' "$PROFILE") || true
	if [ -z "${pct:-}" ]; then
		echo "coverage for $target: no statements in the profile" >&2
		fail=1
		continue
	fi
	echo "| ${target//|/\\|} | $pct% | $floor% |" >> "$SUMMARY"
	if [ "$below" = 1 ]; then
		echo "coverage for $target is $pct%, below the $floor% floor" >&2
		fail=1
	else
		echo "coverage for $target is $pct% (floor $floor%)"
	fi
done <<< "$FLOORS"
exit "$fail"
