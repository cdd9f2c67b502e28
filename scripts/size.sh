#!/usr/bin/env bash
# size.sh — the Go line count of the program: for every package directory
# under internal/, cmd/ and examples/, its non-test lines and its code-only
# lines (neither blank nor a // comment line), then the totals. Run from the
# repository root, or point ROOT at another checkout to count it instead:
#
#	make size
#	ROOT=../parent bash scripts/size.sh
set -euo pipefail

cd "${ROOT:-.}"

printf '%-28s %7s %7s\n' package lines code
# shellcheck disable=SC2046 # file names carry no spaces
awk '
	FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir) }
	{ lines[dir]++ }
	!/^[ \t]*(\/\/|$)/ { code[dir]++ }
	END { for (d in lines) printf "%-28s %7d %7d\n", d, lines[d], code[d] }
' $(find internal cmd examples -name '*.go' ! -name '*_test.go') |
	sort |
	awk '{ print; lines += $2; code += $3 } END { printf "%-28s %7d %7d\n", "total", lines, code }'
