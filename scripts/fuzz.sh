#!/usr/bin/env bash
# fuzz.sh — run every fuzz target in the module for FUZZTIME each (default
# 20s). The targets are whatever `go test -list '^Fuzz'` reports per package,
# so a new Fuzz function is run without being named here. Exits non-zero at
# the first target that fails; its failing input lands in that package's
# testdata/fuzz/.
#
#	make fuzz
#	FUZZTIME=2m bash scripts/fuzz.sh
set -euo pipefail

go=${GO:-go}
fuzztime=${FUZZTIME:-20s}

# `go test -list` prints a package's matching names, then its "ok  <pkg>" line.
targets=$("$go" test -list '^Fuzz' ./... |
	awk '/^Fuzz/ { names = names " " $1 } /^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print $2, a[i]; names = "" }')
[ -n "$targets" ] || { echo "fuzz: no fuzz targets found" >&2; exit 1; }

while read -r pkg name; do
	echo "fuzz: $pkg $name"
	"$go" test "$pkg" -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime"
done <<<"$targets"
