#!/usr/bin/env bash
# Fails when a name in a `go test -run` pattern of the CI workflow
# matches no `func Test...` in the repository. A step whose -run list
# names a renamed or deleted test still passes, having run nothing; this
# check makes such a list fail instead.
#
# Usage: bash .github/check-run-lists.sh [workflow.yml]
set -euo pipefail
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

tests=$(grep -rhoE --include='*_test.go' '^func Test[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
names=$(grep -E '^[[:space:]]*(run: )?go test ' "$workflow" | grep -oE -- "-run ('[^']*'|[^ ']+)" |
	sed -E "s/^-run //; s/^'//; s/'$//" | tr '|' '\n' | sort -u)

status=0
for name in $names; do
	[ "$name" = '^$' ] && continue # runs no test, on purpose (benchmarks only)
	if ! grep -qE -- "$name" <<<"$tests"; then
		echo "$workflow: -run name $name matches no test" >&2
		status=1
	fi
done
[ "$status" = 0 ] && echo "every -run name in $workflow matches a test"
exit "$status"
