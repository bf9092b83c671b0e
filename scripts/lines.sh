#!/bin/sh
# lines.sh — the repository's counted lines, as ROADMAP.md counts them: Go
# source that is not a test, outside bench/ and every testdata directory,
# with blank lines and whole-line // comments dropped.  Files git tracks or
# would add (untracked, not ignored) are counted.  Prints the total, then
# each directory's count, largest first.  It is a measure, not a gate.
#
#   bash scripts/lines.sh
set -eu

cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard '*.go' |
	grep -v '_test\.go$' | grep -v '^bench/' | grep -v '/testdata/' |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(grep -cvE '^[[:space:]]*(//.*)?$' "$f" || true)"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END {
			printf "total %d\n", total
			for (d in n) printf "%7d %s\n", n[d], d | "sort -k1,1nr -k2"
		}'
