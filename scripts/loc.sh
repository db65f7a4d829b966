#!/bin/sh
# Net source size: lines of non-test Go per internal/* package, cmd,
# benchmark, the module root, and in total. ROADMAP standard 2 tracks
# this number: its output is committed as LOC.txt, and scripts/verify.sh
# ends by diffing a fresh run against that. Informational only.
set -eu

cd "$(dirname "$0")/.."

# count DIR [-maxdepth N]: non-test *.go lines under DIR.
count() {
	dir="$1"
	shift
	find "$dir" "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

for d in internal/*/ cmd benchmark; do
	printf '%-24s %6d\n' "${d%/}" "$(count "$d")"
done
printf '%-24s %6d\n' "(root)" "$(count . -maxdepth 1)"
printf '%-24s %6d\n' "total" "$(count . -path ./.bench_build -prune -o)"
