#!/bin/sh
# check-coverage.sh is a per-package coverage ratchet for the packages the
# golden-trace and bit-identity suites are responsible for. Each floor is
# set a few points below the coverage measured when the suite landed, so the
# check never flakes on compiler or scheduler noise but fails loudly when a
# change sheds tests. Raise a floor when the measured number rises; never
# lower one without a written justification in the commit.
#
# Usage: scripts/check-coverage.sh [extra go test flags...]
set -eu
cd "$(dirname "$0")/.."

# package -> minimum statement coverage (percent, integer).
floors='
internal/fixed 92
internal/synapse 94
internal/network 87
internal/encode 91
internal/learn 88
internal/netio 92
internal/infer 85
internal/registry 89
internal/continual 80
cmd/psserve 60
'

status=0
echo "$floors" | while read -r pkg floor; do
	[ -n "$pkg" ] || continue
	out=$(go test -cover "$@" "./$pkg/" | tail -n 1)
	pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "check-coverage: FAIL $pkg: no coverage in output: $out"
		exit 1
	fi
	# integer compare on the floor of the measured percentage
	if [ "${pct%.*}" -lt "$floor" ]; then
		echo "check-coverage: FAIL $pkg: ${pct}% < ${floor}% floor"
		exit 1
	fi
	echo "check-coverage: ok $pkg ${pct}% (floor ${floor}%)"
done || status=$?
exit $status
