#!/bin/sh
# End-to-end smoke test for the specmpkd service path:
#
#   1. build specmpkd and specmpk-bench
#   2. start the daemon on a loopback port
#   3. run a small experiment through `specmpk-bench -remote` twice
#   4. assert the second pass was answered from the result cache
#   5. run the sampled-fidelity experiment across two policies and assert
#      they shared one profiling pass through the profile cache
#   6. SIGKILL the daemon while a client is mid-job, restart it, and require
#      the client to recover by resubmitting its content-addressed spec
#   7. SIGTERM the daemon and require a clean drain
#
# Exercises the full stack (client -> HTTP -> queue -> workers -> pipeline ->
# cache) the way a user would, not the way a unit test would — including the
# way a user's daemon actually dies.
set -eu

ADDR=${SPECMPKD_ADDR:-127.0.0.1:8351}
WORKLOAD=548.exchange2_r # smallest pipeline workload: keeps the smoke fast
BIN=$(mktemp -d)
BENCHPID=
trap 'kill "$PID" 2>/dev/null || true; kill "$BENCHPID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

echo "== build"
go build -o "$BIN/specmpkd" ./cmd/specmpkd
go build -o "$BIN/specmpk-bench" ./cmd/specmpk-bench

echo "== start specmpkd on $ADDR"
"$BIN/specmpkd" -addr "$ADDR" &
PID=$!

for i in $(seq 1 50); do
    if curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "specmpkd exited before becoming healthy" >&2
        exit 1
    fi
    sleep 0.2
done
curl -fsS "http://$ADDR/v1/healthz" >/dev/null

echo "== remote experiment (cold)"
"$BIN/specmpk-bench" -remote "$ADDR" -workloads "$WORKLOAD" -modes specmpk stats

echo "== remote experiment (resubmit: must hit the cache)"
"$BIN/specmpk-bench" -remote "$ADDR" -workloads "$WORKLOAD" -modes specmpk stats

echo "== metrics"
METRICS=$(curl -fsS "http://$ADDR/v1/metrics")
echo "$METRICS" | grep -E '^server_(jobs_accepted|jobs_done|cache_hits) '
HITS=$(echo "$METRICS" | awk '$1 == "server_cache_hits" { print $2 }')
if [ "${HITS:-0}" -lt 1 ]; then
    echo "FAIL: expected at least one cache hit on resubmit, got '${HITS:-}'" >&2
    exit 1
fi
# The job-lifecycle latency histograms must be live after real traffic.
for H in server_latency_e2e_ms server_latency_simulate_ms server_latency_queue_wait_ms; do
    N=$(echo "$METRICS" | awk -v h="${H}_count" '$1 == h { print $2 }')
    if [ "${N:-0}" -lt 1 ]; then
        echo "FAIL: latency histogram $H absent or empty in /v1/metrics" >&2
        exit 1
    fi
done

echo "== span flight recorder"
SPANS=$(curl -fsS "http://$ADDR/v1/debug/spans")
echo "$SPANS" | grep -q '"name": *"job"' || {
    echo "FAIL: /v1/debug/spans holds no job spans after real traffic" >&2
    exit 1
}
# Stage agreement: one simulate span per simulate-histogram observation
# (span EndAt and histogram Observe derive from the same measured duration,
# so the counts must match exactly).
SIM_SPANS=$(echo "$SPANS" | grep -o '"name": *"simulate"' | wc -l | tr -d ' ')
SIM_OBS=$(echo "$METRICS" | awk '$1 == "server_latency_simulate_ms_count" { print $2 }')
if [ "${SIM_SPANS:-0}" -ne "${SIM_OBS:-0}" ]; then
    echo "FAIL: $SIM_SPANS simulate spans vs $SIM_OBS histogram observations" >&2
    exit 1
fi
# A recorded trace ID must resolve through the ?trace= filter.
TRACE=$(echo "$SPANS" | grep -o '"traceID": *"[0-9a-f]\{32\}"' | head -1 | cut -d'"' -f4)
if [ -z "${TRACE:-}" ]; then
    echo "FAIL: no trace ID found in the span dump" >&2
    exit 1
fi
curl -fsS "http://$ADDR/v1/debug/spans?trace=$TRACE" | grep -q "$TRACE" || {
    echo "FAIL: trace $TRACE did not resolve via ?trace=" >&2
    exit 1
}
# The Perfetto-loadable export (kept when PERFETTO_OUT names a path, e.g. to
# upload as a CI artifact).
PERFETTO=${PERFETTO_OUT:-$BIN/spans_perfetto.json}
curl -fsS "http://$ADDR/v1/debug/spans?format=chrome" > "$PERFETTO"
grep -q '"traceEvents"' "$PERFETTO" || {
    echo "FAIL: chrome export is missing traceEvents" >&2
    exit 1
}

echo "== sampled-fidelity jobs: two policies must share one profiling pass"
# The sampled experiment submits one fidelity=sampled job and one full job
# per policy. The profile key excludes the machine config, so the second
# policy's sampled job must answer its profiling from the plan cache.
"$BIN/specmpk-bench" -remote "$ADDR" -workloads "$WORKLOAD" \
    -modes specmpk,nonsecure sampled
METRICS=$(curl -fsS "http://$ADDR/v1/metrics")
SAMPLED_JOBS=$(echo "$METRICS" | awk '$1 == "server_sampled_jobs" { print $2 }')
if [ "${SAMPLED_JOBS:-0}" -lt 2 ]; then
    echo "FAIL: expected >= 2 sampled jobs, got '${SAMPLED_JOBS:-}'" >&2
    exit 1
fi
PROFILE_HITS=$(echo "$METRICS" | awk '$1 == "server_sampled_profile_cache_hits" { print $2 }')
if [ "${PROFILE_HITS:-0}" -lt 1 ]; then
    echo "FAIL: expected a profile-cache hit across two sampled policies, got '${PROFILE_HITS:-}'" >&2
    exit 1
fi
INTERVALS=$(echo "$METRICS" | awk '$1 == "server_sampled_intervals" { print $2 }')
if [ "${INTERVALS:-0}" -lt 2 ]; then
    echo "FAIL: expected fan-out intervals to be simulated, got '${INTERVALS:-}'" >&2
    exit 1
fi

echo "== SIGKILL mid-job: client must recover via resubmission"
# Cells not simulated above, so none can be a cache hit — and heavy enough
# that they are still in flight when the daemon dies. The kill waits for
# the daemon to actually accept work from this sweep (a fixed sleep races:
# a fast cell could finish first and make recovery vacuous).
A0=$(curl -fsS "http://$ADDR/v1/metrics" | awk '$1 == "server_jobs_accepted" { print $2 }')
"$BIN/specmpk-bench" -remote "$ADDR" \
    -workloads 505.mcf_r,502.gcc_r,520.omnetpp_r -modes serialized stats &
BENCHPID=$!
for i in $(seq 1 100); do
    A1=$(curl -fsS "http://$ADDR/v1/metrics" | awk '$1 == "server_jobs_accepted" { print $2 }')
    if [ "${A1:-0}" -gt "${A0:-0}" ]; then break; fi
    sleep 0.05
done
kill -KILL "$PID" 2>/dev/null || true
sleep 0.2
"$BIN/specmpkd" -addr "$ADDR" &
PID=$!
# The client retries the connection-refused window with backoff, then gets a
# 404 for its pre-restart job id and resubmits the spec to the new daemon.
if ! wait "$BENCHPID"; then
    echo "FAIL: specmpk-bench did not recover from a daemon SIGKILL+restart" >&2
    exit 1
fi
BENCHPID=
curl -fsS "http://$ADDR/v1/healthz" >/dev/null
# Recovery must have gone through content-addressed resubmission: the client
# marks recovery submits (X-Specmpk-Resubmit) and the restarted daemon
# counts them, so "it recovered" is proven to be resubmission, not luck.
RESUB=$(curl -fsS "http://$ADDR/v1/metrics" | awk '$1 == "server_jobs_resubmitted" { print $2 }')
if [ "${RESUB:-0}" -lt 1 ]; then
    echo "FAIL: expected >= 1 resubmitted job on the restarted daemon, got '${RESUB:-}'" >&2
    exit 1
fi

echo "== SIGTERM drain"
kill -TERM "$PID"
for i in $(seq 1 50); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: specmpkd did not exit within 10s of SIGTERM" >&2
    exit 1
fi
wait "$PID" || { echo "FAIL: specmpkd exited non-zero" >&2; exit 1; }

echo "PASS: e2e smoke (cold run, cache hit, sampled profile reuse, spans, SIGKILL recovery, clean drain)"
