#!/usr/bin/env bash
# Counts the repository's Go lines, split into non-test and test code, in
# the working tree and at a git revision, and prints the delta between
# them. Untracked files count unless .gitignore excludes them.
#
#   bash scripts/loc.sh            # against HEAD~1
#   bash scripts/loc.sh main       # against any revision
#   make loc REV=main
set -euo pipefail
rev=$(git rev-parse --short "${1:-HEAD~1}")
cd "$(git rev-parse --show-toplevel)"

# count GIT-GREP-ARGS...: the non-test and test line totals of the Go
# files git grep searches with those arguments.
count() {
	git grep -c "$@" -- '*.go' | awk -F: '
		{ if ($(NF-1) ~ /_test\.go$/) t += $NF; else s += $NF }
		END { printf "%d %d\n", s, t }'
}

tree=$(count --untracked -e '')
old=$(count -e '' "$rev")
set -- $tree $old
printf '%-12s %9s %9s\n' "" non-test test
printf '%-12s %9d %9d\n' "working tree" "$1" "$2"
printf '%-12s %9d %9d\n' "$rev" "$3" "$4"
printf '%-12s %+9d %+9d\n' "delta" $(($1 - $3)) $(($2 - $4))
