#!/usr/bin/env bash
# Mutation gate: applies each mutant of a mutant list (default
# ci/mutants.txt; the format is described at its top) to a clean export
# of HEAD and requires the tests of the mutant's packages to fail. Run
# from anywhere inside the repository:
#
#   bash ci/mutation-gate.sh [mutant-list]
#
# It exits non-zero if any mutant survives, does not compile, or has an
# old text that does not occur exactly once in its file.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
list="$(realpath "${1:-$root/ci/mutants.txt}")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# Every mutant is built in the same directory, so the build cache serves
# all but the mutated package and its dependents.
tree="$work/tree"
bad=0

mutate() {
	local name="$1" file="$2" old="$3" new="$4" pkgs="$5" mode="$6"
	rm -rf "$tree"
	mkdir -p "$tree"
	git -C "$root" archive HEAD | tar -x -C "$tree"
	local path="$tree/$file" src rest
	if [ ! -f "$path" ]; then
		echo "BROKEN   $name: no file $file"
		return 1
	fi
	src="$(cat "$path"; printf x)"
	src="${src%x}"
	rest="${src#*"$old"}"
	if [ "$rest" = "$src" ] || [[ "$rest" == *"$old"* ]]; then
		echo "BROKEN   $name: old text does not occur exactly once in $file"
		return 1
	fi
	printf '%s' "${src%%"$old"*}$new$rest" >"$path"
	if ! (cd "$tree" && go build ./... >"$work/log" 2>&1); then
		echo "BROKEN   $name: the mutant does not compile"
		cat "$work/log"
		return 1
	fi
	local flags=(-count=1)
	[ "$mode" = full ] || flags+=(-short)
	# shellcheck disable=SC2086 # pkgs is a space-separated package list
	if (cd "$tree" && go test "${flags[@]}" $pkgs >"$work/log" 2>&1); then
		echo "SURVIVED $name: go test ${flags[*]} $pkgs passes"
		return 1
	fi
	# A kill is a failing test, not a vet or build failure of the tests.
	local failed
	if ! failed="$(grep -m1 -e '--- FAIL' "$work/log")"; then
		echo "BROKEN   $name: go test failed without a failing test"
		tail -20 "$work/log"
		return 1
	fi
	echo "KILLED   $name: ${failed#*--- FAIL: }"
}

reset() { name="" file="" old="" new="" packages="" mode=short; }

flush() {
	if [ -n "$name" ]; then
		mutate "$name" "$file" "$old" "$new" "$packages" "$mode" || bad=$((bad + 1))
	fi
	reset
}

reset
while IFS= read -r line || [ -n "$line" ]; do
	case "$line" in
	"#"*) ;;
	"") flush ;;
	*)
		key="${line%%:*}"
		val="${line#"$key:"}"
		val="${val# }"
		case "$key" in
		name | file | old | new | packages | mode) printf -v "$key" '%s' "$val" ;;
		*)
			echo "mutation-gate: unknown key in line: $line" >&2
			exit 2
			;;
		esac
		;;
	esac
done <"$list"
flush

if [ "$bad" -ne 0 ]; then
	echo "mutation gate: $bad mutant(s) not caught or not applicable" >&2
	exit 1
fi
echo "mutation gate: every mutant caught"
