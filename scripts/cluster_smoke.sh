#!/usr/bin/env sh
# End-to-end smoke of the sharded simulation cluster (internal/cluster):
# two fastd workers sharing a disk-backed result store, fronted by a fastd
# coordinator, driven through fastctl. Asserts the three cluster
# contracts:
#   1. a Figure-4 sweep through the coordinator aggregates byte-identically
#      to the same sweep on a fresh single node,
#   2. after BOTH workers restart (fresh processes, same store directory),
#      the repeated sweep is served entirely from the disk cache — zero
#      engine runs on either worker — with identical per-point results,
#   3. the coordinator's topology view and cluster_* metrics are live, it
#      serves the shared registry listings (workloads), and a node-only
#      route asked of it answers the not_found envelope,
#   4. warm-start survives the restart: a NEW sweep point sharing the
#      boot prefix of a pre-restart run (so it misses the result cache
#      and must simulate) resumes from the boot snapshot in the shared
#      store — zero boot instructions re-executed on either worker.
# Needs only the Go toolchain.
set -eu

P_SINGLE="${FASTD_PORT:-18090}"
P_W1=$((P_SINGLE + 1))
P_W2=$((P_SINGLE + 2))
P_COORD=$((P_SINGLE + 3))
TMP="$(mktemp -d)"
STORE="${TMP}/store"
PIDS=""

fail() {
    echo "CLUSTER SMOKE FAIL: $*" >&2
    for f in "${TMP}"/*.log; do
        [ -f "$f" ] && sed "s|^|  $(basename "$f"): |" "$f" >&2
    done
    exit 1
}

cleanup() {
    for p in ${PIDS}; do kill "$p" 2>/dev/null || true; done
    rm -rf "${TMP}"
}
trap cleanup EXIT INT TERM

echo "== build fastd + fastctl"
go build -o "${TMP}/fastd" ./cmd/fastd
go build -o "${TMP}/fastctl" ./cmd/fastctl

ctl() { # ctl <port> <args...>
    port=$1
    shift
    "${TMP}/fastctl" -addr "http://127.0.0.1:${port}" "$@"
}

wait_healthy() { # wait_healthy <port> <what>
    i=0
    until ctl "$1" health >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "$2 never became healthy"
        sleep 0.1
    done
}

start_worker() { # start_worker <port> <logname>  — appends pid to PIDS, echoes it
    "${TMP}/fastd" -addr "127.0.0.1:$1" -workers 2 -queue 16 \
        -cache-dir "${STORE}" >"${TMP}/$2.log" 2>&1 &
    PIDS="${PIDS} $!"
    echo "$!"
}

# One small Figure-4 slice: 2 workloads x 2 predictors = 4 points.
SPEC='{"engines":["fast"],"workloads":["164.gzip","176.gcc"],"variants":[{"predictor":"gshare"},{"predictor":"2bit"}],"base":{"max_instructions":50000}}'

echo "== reference: the sweep on a fresh single node (no disk store)"
"${TMP}/fastd" -addr "127.0.0.1:${P_SINGLE}" -workers 2 >"${TMP}/single.log" 2>&1 &
SINGLE_PID=$!
PIDS="${PIDS} ${SINGLE_PID}"
wait_healthy "${P_SINGLE}" "single node"
ctl "${P_SINGLE}" sweep -spec "${SPEC}" -wait >"${TMP}/ref.json" || fail "single-node sweep failed"
kill "${SINGLE_PID}" 2>/dev/null || true

echo "== boot 2 workers (shared store at ${STORE}) + coordinator"
W1_PID="$(start_worker "${P_W1}" worker1)"
W2_PID="$(start_worker "${P_W2}" worker2)"
wait_healthy "${P_W1}" "worker 1"
wait_healthy "${P_W2}" "worker 2"
"${TMP}/fastd" -coordinator -addr "127.0.0.1:${P_COORD}" \
    -nodes "http://127.0.0.1:${P_W1},http://127.0.0.1:${P_W2}" \
    -probe-interval 200ms >"${TMP}/coord.log" 2>&1 &
PIDS="${PIDS} $!"
wait_healthy "${P_COORD}" "coordinator"

echo "== sweep through the coordinator must aggregate byte-identically"
ctl "${P_COORD}" sweep -spec "${SPEC}" -wait >"${TMP}/clu.json" || fail "cluster sweep failed"
cmp -s "${TMP}/ref.json" "${TMP}/clu.json" || {
    diff "${TMP}/ref.json" "${TMP}/clu.json" >&2 || true
    fail "coordinator aggregation differs from single-node"
}
sweep_id="$(ctl "${P_COORD}" sweeps -limit 1 | sed -n 's/.*"id":"\(sweep-[0-9]*\)".*/\1/p')"
[ -n "${sweep_id}" ] || fail "coordinator sweep listing is empty"
ctl "${P_COORD}" sweep-result "${sweep_id}" -results-only >"${TMP}/run1.points" ||
    fail "sweep-result -results-only failed"

echo "== capture a boot snapshot into the shared store (253.perlbmk point)"
ctl "${P_COORD}" submit -engine fast \
    -params '{"workload":"253.perlbmk","max_instructions":60000}' -wait >/dev/null ||
    fail "perlbmk capture point failed"

echo "== topology view reports both workers healthy"
view="$(ctl "${P_COORD}" cluster)"
case "${view}" in
*'"healthy":false'*) fail "a live worker shows unhealthy: ${view}" ;;
esac
ctl "${P_COORD}" metrics | grep -q '^cluster_reassignments_total' ||
    fail "coordinator metrics missing cluster_* series"

echo "== one v1 surface: shared listings served, node-only routes are the envelope"
case "$(ctl "${P_COORD}" workloads)" in
*'"name":"164.gzip"'*) ;;
*) fail "coordinator does not serve /v1/workloads" ;;
esac
if ctl "${P_COORD}" snapshots >/dev/null 2>"${TMP}/err.json"; then
    fail "coordinator answered the node-only /v1/snapshots"
fi
grep -q '"code":"not_found"' "${TMP}/err.json" ||
    fail "node-only route on the coordinator is not the not_found envelope: $(cat "${TMP}/err.json")"

echo "== restart BOTH workers (fresh processes, same store directory)"
kill -TERM "${W1_PID}" "${W2_PID}"
i=0
while kill -0 "${W1_PID}" 2>/dev/null || kill -0 "${W2_PID}" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "workers did not drain within 10s"
    sleep 0.1
done
start_worker "${P_W1}" worker1b >/dev/null
start_worker "${P_W2}" worker2b >/dev/null
wait_healthy "${P_W1}" "restarted worker 1"
wait_healthy "${P_W2}" "restarted worker 2"

echo "== repeated sweep must be served from the disk store: zero engine runs"
ctl "${P_COORD}" sweep -spec "${SPEC}" -id-only >"${TMP}/sweep2.id" ||
    fail "post-restart sweep rejected (coordinator did not re-admit the workers?)"
ctl "${P_COORD}" sweep-result "$(cat "${TMP}/sweep2.id")" -wait -results-only >"${TMP}/run2.points" ||
    fail "post-restart sweep failed"
cmp -s "${TMP}/run1.points" "${TMP}/run2.points" ||
    fail "post-restart results differ from the original run"
for port in "${P_W1}" "${P_W2}"; do
    ctl "${port}" metrics | grep -q '^service_engine_runs_total 0$' ||
        fail "worker :${port} simulated after restart (want 0 engine runs, disk-cache serves)"
done

echo "== a new point sharing the boot prefix warm-starts: no boot re-execution"
# Different cap = different result key (must simulate), same boot prefix =
# the snapshot captured before the restart resumes it from the shared dir.
ctl "${P_COORD}" submit -engine fast \
    -params '{"workload":"253.perlbmk","max_instructions":80000}' -wait >/dev/null ||
    fail "post-restart perlbmk point failed"
hits=0
resumed=0
for port in "${P_W1}" "${P_W2}"; do
    h="$(ctl "${port}" metrics | awk '$1 == "service_snapshot_hits_total" {print $2}')"
    r="$(ctl "${port}" metrics | awk '$1 == "service_snapshot_resumed_instructions_total" {print $2}')"
    hits=$((hits + ${h:-0}))
    resumed=$((resumed + ${r:-0}))
done
[ "${hits}" -ge 1 ] || fail "no snapshot hit after restart: the boot was re-executed"
[ "${resumed}" -ge 1 ] || fail "no instructions resumed from the shared snapshot store"

echo "CLUSTER SMOKE OK: byte-identical sharded aggregation + disk-cache restart serve + warm-start across restart"
