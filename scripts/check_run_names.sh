#!/bin/sh
# Fails when a test selector in the Makefile names nothing. `go test
# -run 'A|Gone'` passes silently once Gone is renamed or deleted, so a
# gate that lists tests by name can rot without anyone noticing. For
# every `-run` and `-bench` list on a `$(GO) test` line, this splits
# the pattern into its top-level alternatives (looking inside one
# outer `^(...)$` group) and checks each against the test, benchmark,
# fuzz and example names `go test -list` reports for that line's
# packages. A subtest path (`TestX/sub`) is checked by its top-level
# name. Stale alternatives are printed with their Makefile line.
#
# Usage: sh scripts/check_run_names.sh [Makefile]
set -eu

cd "$(dirname "$0")/.."
makefile="${1:-Makefile}"
GO="${GO:-go}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# One "lineno<TAB>packages<TAB>pattern" record per selector: joins
# continuation lines, keeps `$(GO) test` commands, cuts each at its
# first pipe or redirect (after lifting out the quoted patterns, which
# may hold `|`), and keeps the ./pkg and . arguments.
awk '
	{ if (line == "") start = NR; line = line $0 }
	/\\$/ { sub(/\\$/, "", line); next }
	{
		l = line; line = ""
		if (l !~ /\$\(GO\) test/) next
		n = 0
		while (match(l, /-(run|bench) \047[^\047]*\047/)) {
			p = substr(l, RSTART, RLENGTH)
			sub(/^-(run|bench) \047/, "", p); sub(/\047$/, "", p)
			gsub(/\$\$/, "$", p)
			pats[++n] = p
			l = substr(l, 1, RSTART - 1) " " substr(l, RSTART + RLENGTH)
		}
		sub(/[|>].*/, "", l)
		pkgs = ""
		k = split(l, tok, /[ \t]+/)
		for (i = 1; i <= k; i++)
			if (tok[i] ~ /^\.(\/|$)/) pkgs = pkgs " " tok[i]
		for (i = 1; i <= n; i++)
			if (pats[i] != "^$") printf "%d\t%s\t%s\n", start, pkgs, pats[i]
	}
' "$makefile" > "$tmp/selectors"

# alternatives splits a pattern on its top-level `|`, after unwrapping
# one outer ^(...)$ group.
alternatives() {
	printf '%s\n' "$1" | awk '{
		p = $0
		if (p ~ /^\^\(.*\)\$$/) p = substr(p, 3, length(p) - 4)
		depth = 0; cur = ""
		for (i = 1; i <= length(p); i++) {
			c = substr(p, i, 1)
			if (c == "(") depth++
			if (c == ")") depth--
			if (c == "|" && depth == 0) { print cur; cur = ""; continue }
			cur = cur c
		}
		print cur
	}'
}

stale=0
sets=0
while IFS="$(printf '\t')" read -r lineno pkgs pattern; do
	# One `go test -list` per distinct package set.
	list=""
	i=0
	while [ "$i" -lt "$sets" ]; do
		if [ "$(cat "$tmp/pkgs.$i")" = "$pkgs" ]; then
			list="$tmp/names.$i"
			break
		fi
		i=$((i + 1))
	done
	if [ -z "$list" ]; then
		printf '%s' "$pkgs" > "$tmp/pkgs.$sets"
		list="$tmp/names.$sets"
		# shellcheck disable=SC2086 # pkgs is a word list
		$GO test -list '.*' $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)' > "$list" || true
		sets=$((sets + 1))
	fi
	alternatives "$pattern" > "$tmp/alts"
	while read -r alt; do
		top="${alt%%/*}"
		if [ -z "$top" ] || ! grep -Eq -- "$top" "$list"; then
			echo "$makefile:$lineno: '$alt' matches no test, benchmark or fuzz target in$pkgs"
			stale=1
		fi
	done < "$tmp/alts"
done < "$tmp/selectors"

if [ "$stale" -ne 0 ]; then
	exit 1
fi
echo "check_run_names: every -run and -bench alternative in $makefile names something"
