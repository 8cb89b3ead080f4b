#!/usr/bin/env sh
# Count code the one way this repo's size claims are made: non-blank,
# non-comment lines of the non-test Go files directly inside each given
# package directory (no recursion — name sub-packages explicitly), one row
# per directory plus a total.
#
#   scripts/loc.sh internal/service internal/cluster
#
# "Comment" means a line whose first non-blank characters are "//"; the
# tree has no block comments outside generated text, so that is exact here.
set -eu

[ "$#" -gt 0 ] || {
    echo "usage: $0 <pkg-dir>..." >&2
    exit 2
}

total=0
for dir in "$@"; do
    [ -d "${dir}" ] || {
        echo "$0: ${dir}: not a directory" >&2
        exit 2
    }
    n=0
    for f in "${dir}"/*.go; do
        case "${f}" in
        *_test.go) continue ;;
        esac
        [ -f "${f}" ] || continue
        c="$(grep -v '^[[:space:]]*//' "${f}" | grep -vc '^[[:space:]]*$' || true)"
        n=$((n + c))
    done
    printf '%6d  %s\n' "${n}" "${dir}"
    total=$((total + n))
done
printf '%6d  total\n' "${total}"
