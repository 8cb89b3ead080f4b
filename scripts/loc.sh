#!/usr/bin/env sh
# Count code the one way this repo's size claims are made: non-blank,
# non-comment lines of the non-test Go files directly inside each given
# package directory (no recursion — name sub-packages explicitly), one row
# per directory plus a total.
#
#   scripts/loc.sh internal/service internal/cluster
#   scripts/loc.sh --base HEAD~1 internal/sim internal/trace
#
# With --base <ref> every row reads "parent head delta": the same count
# over the same directory as committed at <ref> (read with git show, no
# checkout), over the working tree, and the difference — the "-N lines" of
# a simplicity PR in one command. A directory that exists on only one side
# counts 0 on the other.
#
# "Comment" means a line whose first non-blank characters are "//"; the
# tree has no block comments outside generated text, so that is exact here.
set -eu

usage() {
    echo "usage: $0 [--base <ref>] <pkg-dir>..." >&2
    exit 2
}

base=""
if [ "${1:-}" = "--base" ]; then
    [ "$#" -ge 2 ] || usage
    base="$2"
    shift 2
    git rev-parse --verify --quiet "${base}^{commit}" >/dev/null || {
        echo "$0: ${base}: not a commit" >&2
        exit 2
    }
fi
[ "$#" -gt 0 ] || usage

# code_lines counts the code lines of the Go source on stdin.
code_lines() {
    grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$' || true
}

# head_lines counts a working-tree directory; base_lines the same directory
# as committed at ${base}.
head_lines() {
    n=0
    for f in "$1"/*.go; do
        case "${f}" in
        *_test.go) continue ;;
        esac
        [ -f "${f}" ] || continue
        n=$((n + $(code_lines <"${f}")))
    done
    echo "${n}"
}

base_lines() {
    n=0
    while IFS= read -r f; do
        case "${f}" in
        *_test.go) continue ;;
        *.go) n=$((n + $(git show "${base}:${f}" | code_lines))) ;;
        esac
    done <<LIST
$(git ls-tree --name-only "${base}" "${1%/}/")
LIST
    echo "${n}"
}

total=0
base_total=0
for dir in "$@"; do
    if [ -z "${base}" ]; then
        [ -d "${dir}" ] || {
            echo "$0: ${dir}: not a directory" >&2
            exit 2
        }
        n="$(head_lines "${dir}")"
        printf '%6d  %s\n' "${n}" "${dir}"
    else
        n="$(head_lines "${dir}")"
        b="$(base_lines "${dir}")"
        printf '%6d %6d %+6d  %s\n' "${b}" "${n}" "$((n - b))" "${dir}"
        base_total=$((base_total + b))
    fi
    total=$((total + n))
done
if [ -z "${base}" ]; then
    printf '%6d  total\n' "${total}"
else
    printf '%6d %6d %+6d  total\n' "${base_total}" "${total}" "$((total - base_total))"
fi
