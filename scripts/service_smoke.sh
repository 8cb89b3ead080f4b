#!/usr/bin/env sh
# End-to-end smoke of the fastd job service, driven the way an operator
# would — through fastctl (cmd/fastctl), the CLI over the typed Go client:
# boot the daemon, submit one Figure-4 point (fast engine, 164.gzip,
# gshare) twice, and assert
#   1. both jobs finish "done" with byte-identical result JSON,
#   2. the second is served from the content-addressed cache
#      (cached=true, service_cache_hits_total=1, exactly one engine run),
#   3. rejections carry the typed error envelope (stable machine codes),
#      an unknown route included,
#   4. the collection endpoint lists and paginates,
#   5. warm-start: on a second fastd (result cache disabled so engines
#      really run, boot snapshots in their own -snapshot-dir), the same
#      instruction-cap sweep twice — the first run writes the boot
#      snapshot into that directory, the second resumes every point from
#      it (snapshot hits +N, resumed-instruction counter grows, the
#      snapshot index lists the prefix),
#   6. SIGTERM drains gracefully (clean exit, final metrics dump written).
# Needs only the Go toolchain: fastctl replaces curl+jq.
set -eu

PORT="${FASTD_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
PORT2="${FASTD_SNAP_PORT:-18081}"
BASE2="http://127.0.0.1:${PORT2}"
TMP="$(mktemp -d)"
PID=""
PID2=""

fail() {
    echo "SMOKE FAIL: $*" >&2
    [ -f "${TMP}/fastd.log" ] && sed 's/^/  fastd: /' "${TMP}/fastd.log" >&2
    exit 1
}

cleanup() {
    [ -n "${PID}" ] && kill "${PID}" 2>/dev/null || true
    [ -n "${PID2}" ] && kill "${PID2}" 2>/dev/null || true
    rm -rf "${TMP}"
}
trap cleanup EXIT INT TERM

echo "== build fastd + fastctl"
go build -o "${TMP}/fastd" ./cmd/fastd
go build -o "${TMP}/fastctl" ./cmd/fastctl
ctl() { "${TMP}/fastctl" -addr "${BASE}" "$@"; }

echo "== boot on :${PORT}"
"${TMP}/fastd" -addr "127.0.0.1:${PORT}" -workers 2 -queue 8 \
    -metrics-dump "${TMP}/final-metrics.prom" >"${TMP}/fastd.log" 2>&1 &
PID=$!

i=0
until ctl health >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "server never became healthy"
    kill -0 "${PID}" 2>/dev/null || fail "fastd exited during startup"
    sleep 0.1
done

PARAMS='{"workload":"164.gzip","predictor":"gshare","max_instructions":50000}'

echo "== submit the Figure-4 point (cold)"
id1="$(ctl submit -engine fast -params "${PARAMS}" -id-only)" || fail "cold submit rejected"
ctl result "${id1}" -wait >"${TMP}/result1.json" || fail "cold job did not finish"
case "$(ctl job "${id1}")" in
*'"cached":false'*) ;;
*) fail "first submission claims to be cached" ;;
esac

echo "== submit the identical point again (must hit the cache)"
id2="$(ctl submit -engine fast -params "${PARAMS}" -id-only)" || fail "warm submit rejected"
ctl result "${id2}" -wait >"${TMP}/result2.json" || fail "warm job did not finish"
case "$(ctl job "${id2}")" in
*'"cached":true'*) ;;
*) fail "second submission was not served from cache" ;;
esac

cmp -s "${TMP}/result1.json" "${TMP}/result2.json" ||
    fail "cache hit is not byte-identical to the original result"

echo "== rejections carry the typed error envelope"
if ctl submit -engine warp-drive -params '{}' >/dev/null 2>"${TMP}/err.json"; then
    fail "unknown engine was accepted"
fi
grep -q '"code":"unknown_engine"' "${TMP}/err.json" ||
    fail "unknown-engine rejection lacks its envelope code: $(cat "${TMP}/err.json")"
if ctl submit -engine fast -params '{"frobnicate":1}' >/dev/null 2>"${TMP}/err.json"; then
    fail "bad params were accepted"
fi
grep -q '"code":"bad_params"' "${TMP}/err.json" ||
    fail "bad-params rejection lacks its envelope code: $(cat "${TMP}/err.json")"

# A route no handler matches (a plain node has no /v1/cluster) must answer
# the same envelope, not the mux's text/plain 404.
if ctl cluster >/dev/null 2>"${TMP}/err.json"; then
    fail "a plain node answered /v1/cluster"
fi
grep -q '"code":"not_found"' "${TMP}/err.json" ||
    fail "unknown route did not answer the not_found envelope: $(cat "${TMP}/err.json")"

echo "== collection endpoint lists and paginates"
page="$(ctl jobs -limit 1)"
case "${page}" in
*"${id2}"*) ;;
*) fail "newest-first listing missing ${id2}: ${page}" ;;
esac
case "${page}" in
*'"next_after"'*) ;;
*) fail "first page of two jobs has no cursor: ${page}" ;;
esac
case "$(ctl jobs -status done)" in
*"${id1}"*) ;;
*) fail "status=done listing missing ${id1}" ;;
esac

echo "== check the /metrics scrape"
metrics="$(ctl metrics)"
echo "${metrics}" | grep -q '^service_cache_hits_total 1$' ||
    fail "expected exactly one cache hit, got: $(echo "${metrics}" | grep service_cache || true)"
echo "${metrics}" | grep -q '^service_engine_runs_total 1$' ||
    fail "cache hit triggered a second engine run"
echo "${metrics}" | grep -q '^service_jobs_submitted_total 2$' ||
    fail "expected two submitted jobs"

echo "== warm-start: the same sweep twice on a cache-less fastd"
# Result cache disabled (-cache -1, no -cache-dir) so the repeated sweep
# re-executes every engine run; only the snapshot tier, persisted in its
# own directory, can speed it up.
mkdir "${TMP}/snaps"
"${TMP}/fastd" -addr "127.0.0.1:${PORT2}" -workers 2 -queue 16 -cache -1 \
    -snapshot-dir "${TMP}/snaps" >"${TMP}/fastd2.log" 2>&1 &
PID2=$!
ctl2() { "${TMP}/fastctl" -addr "${BASE2}" "$@"; }
i=0
until ctl2 health >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "snapshot fastd never became healthy"
    kill -0 "${PID2}" 2>/dev/null || fail "snapshot fastd exited during startup"
    sleep 0.1
done

# Three sweep points sharing one boot prefix, differing only in the cap.
SWEEP='{"workloads":["253.perlbmk"],"variants":[{"max_instructions":60000},{"max_instructions":80000},{"max_instructions":100000}]}'
metric() { ctl2 metrics | awk -v n="$1" '$1 == n {print $2}' | head -1; }

sid1="$(ctl2 sweep -spec "${SWEEP}" -id-only)" || fail "first sweep rejected"
ctl2 sweep-result "${sid1}" -wait -results-only >"${TMP}/sweep1.json" || fail "first sweep did not finish"
hits1="$(metric service_snapshot_hits_total)"; hits1="${hits1:-0}"
resumed1="$(metric service_snapshot_resumed_instructions_total)"; resumed1="${resumed1:-0}"
ctl2 metrics | grep -q '^service_snapshot_misses_total' ||
    fail "first sweep recorded no snapshot miss (capture path never ran)"
ls "${TMP}/snaps" | grep -q '\.json$' ||
    fail "first sweep wrote no snapshot blob into -snapshot-dir"

sid2="$(ctl2 sweep -spec "${SWEEP}" -id-only)" || fail "second sweep rejected"
ctl2 sweep-result "${sid2}" -wait -results-only >"${TMP}/sweep2.json" || fail "second sweep did not finish"
hits2="$(metric service_snapshot_hits_total)"; hits2="${hits2:-0}"
resumed2="$(metric service_snapshot_resumed_instructions_total)"; resumed2="${resumed2:-0}"

[ "$((hits2 - hits1))" -eq 3 ] ||
    fail "second sweep should warm-start all 3 points: hits ${hits1} -> ${hits2}"
[ "${resumed2}" -gt "${resumed1}" ] ||
    fail "second sweep resumed no instructions (boot re-executed): ${resumed1} -> ${resumed2}"
case "$(ctl2 snapshots)" in
*'"prefix"'*) ;;
*) fail "snapshot index is empty after a captured sweep" ;;
esac

# The warm-started sweep must aggregate byte-identically to the cold one.
cmp -s "${TMP}/sweep1.json" "${TMP}/sweep2.json" ||
    fail "warm-started sweep is not byte-identical to the cold sweep"
kill -TERM "${PID2}" && wait "${PID2}" 2>/dev/null || true
PID2=""

echo "== SIGTERM drains gracefully"
kill -TERM "${PID}"
i=0
while kill -0 "${PID}" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "fastd did not exit within 10s of SIGTERM"
    sleep 0.1
done
wait "${PID}" 2>/dev/null || fail "fastd exited non-zero after SIGTERM"
PID=""
grep -q '^service_cache_hits_total 1$' "${TMP}/final-metrics.prom" ||
    fail "final metrics dump missing or wrong"

echo "SMOKE OK: cold run + byte-identical cache hit + typed errors + listing + warm-start sweep + graceful drain"
