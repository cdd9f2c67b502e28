#!/usr/bin/env bash
# bench-cmp.sh BASE — prove a change leaves every experiment's output
# byte-identical: build skv-bench from the committed tree at BASE (any git
# revision, extracted with git archive) and from the working tree, run every
# experiment id the working tree lists on both — the two binaries of an id
# side by side — and cmp each pair. Exits 1 at the first experiment that
# exits non-zero on either side (showing the end of its output); an output
# that differs shows the start of its diff, and the run goes on, so the last
# line names every experiment that moved. SMOKE=1 runs both sides
# with -smoke (tiny windows, seconds instead of minutes); the experiments are
# virtual-time deterministic, so either way a difference is a behaviour
# change, not noise.
#
#	make bench-cmp BASE=HEAD~1
#	SMOKE=1 bash scripts/bench-cmp.sh main
set -euo pipefail

base=${1:?usage: bench-cmp.sh BASE}
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$base^{commit}" >/dev/null ||
	{ echo "bench-cmp: unknown revision $base" >&2; exit 2; }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/skv-bench-cmp.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/base" "$tmp/new"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base-bench" ./cmd/skv-bench)
(cd "$root" && go build -o "$tmp/new-bench" ./cmd/skv-bench)

flags=()
if [ "${SMOKE:-0}" = 1 ]; then
	flags=(-smoke)
fi

# exited ID SIDE STATUS fails the comparison on a crashed or failing run.
exited() {
	echo "bench-cmp: $1: $2 exited $3" >&2
	tail -20 "$tmp/$2/$1.txt" >&2
	exit 1
}

ids=$("$tmp/new-bench" -list)
n=0
differ=()
for id in $ids; do
	"$tmp/base-bench" "${flags[@]}" -exp "$id" >"$tmp/base/$id.txt" 2>&1 &
	base_pid=$!
	"$tmp/new-bench" "${flags[@]}" -exp "$id" >"$tmp/new/$id.txt" 2>&1 &
	new_pid=$!
	base_status=0 new_status=0
	wait "$base_pid" || base_status=$?
	wait "$new_pid" || new_status=$?
	[ "$new_status" = 0 ] || exited "$id" new "$new_status"
	[ "$base_status" = 0 ] || exited "$id" base "$base_status"
	if ! cmp -s "$tmp/base/$id.txt" "$tmp/new/$id.txt"; then
		echo "bench-cmp: $id differs from $base" >&2
		diff "$tmp/base/$id.txt" "$tmp/new/$id.txt" | head -20 >&2 || true
		differ+=("$id")
		continue
	fi
	n=$((n + 1))
	echo "bench-cmp: $id identical"
done
if [ ${#differ[@]} -gt 0 ]; then
	echo "bench-cmp: $n experiments identical to $base; differ: ${differ[*]}" >&2
	exit 1
fi
echo "bench-cmp: all $n experiments identical to $base"
