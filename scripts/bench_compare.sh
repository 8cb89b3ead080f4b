#!/usr/bin/env sh
# The one answer to "did it get faster": run the yardstick (bench/) at a
# base ref and at the working tree, then let it compare the two against
# the bounds in BENCHMARK.json. The exit status is the comparison's.
#
#   scripts/bench_compare.sh <base-ref>        # or: make bench-compare BASE=<ref>
#
# The base is checked out into a git worktree under .bench_build/ (ignored,
# removed on exit); each tree builds and runs its own bench/, three runs of
# every workload. A base that predates bench/ is a skip, not a failure.
set -eu

[ "$#" -eq 1 ] || {
    echo "usage: $0 <base-ref>" >&2
    exit 2
}
root="$(git rev-parse --show-toplevel)"
out="${root}/.bench_build/compare"
tree="${out}/base"
cd "${root}"
mkdir -p "${out}"
git worktree remove --force "${tree}" 2>/dev/null || true
git worktree add --detach "${tree}" "$1" >/dev/null
trap 'git -C "${root}" worktree remove --force "${tree}"' EXIT

if [ ! -f "${tree}/bench/run.sh" ]; then
    echo "$0: $1 has no bench/: nothing to compare with, skipping" >&2
    exit 0
fi
(cd "${tree}" && bash bench/run.sh -runs 3 -out "${out}/base.json")
bash bench/run.sh -runs 3 -out "${out}/head.json"
bash bench/run.sh -compare "${out}/base.json" "${out}/head.json"
