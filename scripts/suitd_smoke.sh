#!/usr/bin/env bash
# suitd end-to-end smoke (the CI suitd-smoke job): boot the daemon,
# serve a small sweep to completion, prove a second identical
# submission is a cache hit via /metrics, then SIGTERM and require a
# clean exit-0 drain inside the budget.
#
# The restart phase boots the daemon again on the same state dir: the
# resubmitted spec is a new job (201) whose every point replays from
# the scenario cache (no engine run), its GET view must be
# byte-identical to the first lifetime's, the state dir must hold only
# cas/, and cas/ only the one segment the first lifetime appended to.
#
# Phase 2 is the distributed kill-a-worker e2e: a second daemon with a
# fresh state dir executes the same spec through suitworker processes.
# The first worker is SIGSTOPped while its claim is held at the daemon,
# so the sweep's first offer leases it a unit it never runs; it is then
# SIGKILLed holding that lease. The lease must expire, the second
# worker must finish the sweep, and its GET view must be byte-identical
# to the single-process daemon's. The daemon holds an idle worker's
# claim until work is ready, so the surviving worker is waiting in a
# claim when the daemon gets SIGTERM: the drain must answer that claim
# and exit 0 within 5 s.
#
# Run from the repository root: scripts/suitd_smoke.sh
set -euo pipefail

WORK=$(mktemp -d)
ADDR=127.0.0.1:8470
BASE="http://$ADDR"
ADDR2=127.0.0.1:8471
BASE2="http://$ADDR2"
PID=""
PID2=""
W1=""
W2=""
cleanup() {
  for p in "$PID" "$PID2" "$W1" "$W2"; do
    # A stopped worker acts on its SIGTERM once continued.
    [ -n "$p" ] && { kill "$p"; kill -CONT "$p"; } 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# wait_up URL PID: wait until the daemon at URL answers /healthz.
wait_up() {
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then echo "suitd at $1 died during startup" >&2; exit 1; fi
    sleep 0.1
  done
  echo "suitd at $1 never answered /healthz" >&2
  exit 1
}

# job_state URL ID: print the job's lifecycle state.
job_state() {
  curl -fsS "$1/v1/sweeps/$2" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'
}

# wait_done URL ID TRIES: poll every 0.2 s until the job is done.
wait_done() {
  local state=""
  for _ in $(seq 1 "$3"); do
    state=$(job_state "$1" "$2")
    [ "$state" = done ] && return 0
    case "$state" in
      failed|canceled) echo "job $2 at $1 ended $state" >&2; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "job $2 at $1 stuck in state '$state'" >&2
  exit 1
}

# metric TEXT NAME: print one sample's value from a /metrics page.
metric() {
  echo "$1" | awk -v n="$2" '$1 == n {print $2}'
}

go build -o "$WORK/suitd" ./cmd/suitd
go build -o "$WORK/suitworker" ./cmd/suitworker
"$WORK/suitd" -addr "$ADDR" -state "$WORK/state" -drain-timeout 30s &
PID=$!
wait_up "$BASE" "$PID"

# Readiness is split from liveness: a freshly booted daemon is both.
curl -fsS "$BASE/readyz" >/dev/null || { echo "/readyz not ready on a fresh daemon" >&2; exit 1; }

SPEC='{"instructions":50000,"benches":["VLC","557.xz"],"params":[{"p_dl_us":30,"p_ts_us":450,"p_ec":3,"p_df":14},{"p_dl_us":50,"p_ts_us":450,"p_ec":2,"p_df":9}]}'

ID=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/sweeps" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "submitted job $ID"
wait_done "$BASE" "$ID" 300

# Every field of a done job's view is deterministic; the restart phase
# and phase 2 compare their views with this one byte for byte.
curl -fsS "$BASE/v1/sweeps/$ID" > "$WORK/view1.json"
python3 -c '
import json, sys
v = json.load(sys.stdin)
pts = v["result"]["points"]
assert v["state"] == "done" and pts, v
effs = [p["efficiency"] for p in pts]
assert effs == sorted(effs, reverse=True), "ranking not descending"
print(f"ranked {len(pts)} points; best efficiency {effs[0]:.4f}")
' < "$WORK/view1.json"

# The second identical submission must be answered by the registry's
# done job (200, not 201) and /metrics must prove no second execution
# happened.
CODE=$(curl -fsS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/sweeps")
[ "$CODE" = 200 ] || { echo "duplicate POST got HTTP $CODE, want 200" >&2; exit 1; }
METRICS=$(curl -fsS "$BASE/metrics")
HITS=$(metric "$METRICS" suitd_cache_hits_total)
EXECUTED=$(metric "$METRICS" suitd_jobs_executed_total)
[ "$HITS" = 1 ] || { echo "suitd_cache_hits_total = '$HITS', want 1" >&2; exit 1; }
[ "$EXECUTED" = 1 ] || { echo "suitd_jobs_executed_total = '$EXECUTED', want 1" >&2; exit 1; }

# Graceful shutdown: SIGTERM, then the daemon must exit 0. The drain is
# internally bounded by -drain-timeout; a hang beyond that trips the CI
# job's timeout-minutes.
kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
[ "$RC" = 0 ] || { echo "suitd exited $RC after SIGTERM, want 0" >&2; exit 1; }
echo "suitd smoke OK: served 1 sweep, deduped the repeat (hits=$HITS), drained cleanly"

# ---------------------------------------------------------------------
# Restart: a new daemon lifetime on the same state dir. The registry
# starts empty, so the resubmission is a new job (201); the scenario
# cache is the one record of finished work, so every point is a disk
# hit, nothing is simulated, and the GET view matches the first
# lifetime's byte for byte.
# ---------------------------------------------------------------------
"$WORK/suitd" -addr "$ADDR" -state "$WORK/state" -drain-timeout 30s &
PID=$!
wait_up "$BASE" "$PID"
CODE=$(curl -fsS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/sweeps")
[ "$CODE" = 201 ] || { echo "POST after a restart got HTTP $CODE, want 201" >&2; exit 1; }
wait_done "$BASE" "$ID" 300
curl -fsS "$BASE/v1/sweeps/$ID" > "$WORK/view_restart.json"
cmp "$WORK/view1.json" "$WORK/view_restart.json" ||
  { echo "the view after a restart differs from the first lifetime's" >&2; exit 1; }
METRICS=$(curl -fsS "$BASE/metrics")
RAN=$(metric "$METRICS" suitd_engine_ran_total)
DISK=$(metric "$METRICS" suitd_engine_disk_hits_total)
[ "$RAN" = 0 ] || { echo "suitd_engine_ran_total = '$RAN' after a restart, want 0" >&2; exit 1; }
[ "$DISK" = 4 ] || { echo "suitd_engine_disk_hits_total = '$DISK' after a restart, want 4" >&2; exit 1; }
kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
[ "$RC" = 0 ] || { echo "restarted suitd exited $RC after SIGTERM, want 0" >&2; exit 1; }
LEFT=$(ls -A "$WORK/state")
[ "$LEFT" = cas ] || { echo "state dir holds '$LEFT', want only cas" >&2; exit 1; }
# The scenario cache appends: the first lifetime wrote its 4 points to
# one segment, and the restarted one, which only hit, wrote nothing.
SEGS=$(ls -A "$WORK/state/cas" | wc -l)
[ "$SEGS" = 1 ] || { echo "cas/ holds $SEGS files, want the one segment of the lifetime that computed" >&2; exit 1; }
echo "suitd restart OK: resubmission replayed $DISK points from cas/, ran $RAN, view bytes identical"

# ---------------------------------------------------------------------
# Phase 2: distributed kill-a-worker e2e. A second daemon (fresh state,
# short lease TTL) runs the SAME spec through pull workers; one worker
# is SIGKILLed while it holds a lease. The sweep must complete via lease
# expiry and reassignment, and its GET view must be byte-identical to
# the single-process daemon's.
# ---------------------------------------------------------------------
TOKEN=smoke-worker-secret
"$WORK/suitd" -addr "$ADDR2" -state "$WORK/state2" -lease-ttl 2s -worker-token "$TOKEN" -drain-timeout 30s &
PID2=$!
up=""
for _ in $(seq 1 100); do
  if curl -fsS "$BASE2/readyz" >/dev/null 2>&1; then up=1; break; fi
  if ! kill -0 "$PID2" 2>/dev/null; then echo "second suitd died during startup" >&2; exit 1; fi
  sleep 0.1
done
[ -n "$up" ] || { echo "second suitd never became ready" >&2; exit 1; }

# The work endpoints require the worker token: an unauthenticated claim
# must bounce with 401 (a digest proves integrity, not authenticity).
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{"worker_id":"intruder"}' "$BASE2/v1/work/claim")
[ "$CODE" = 401 ] || { echo "tokenless claim got HTTP $CODE, want 401" >&2; exit 1; }

"$WORK/suitworker" -daemon "$BASE2" -id smoke-w1 -token "$TOKEN" -slots 1 &
W1=$!

# smoke-w1 counts as live from its first claim, which the daemon holds
# for one lease TTL (2 s) since no work is pending. Stopping it within
# that hold leaves the claim open at the daemon, so the sweep's first
# offer is leased to a worker that will never run it or heartbeat.
live=""
for _ in $(seq 1 100); do
  live=$(metric "$(curl -fsS "$BASE2/metrics")" suitd_dist_live_workers)
  [ "${live:-0}" = 1 ] && break
  sleep 0.05
done
[ "$live" = 1 ] || { echo "smoke-w1 never registered (live=$live)" >&2; exit 1; }
kill -STOP "$W1"

ID2=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE2/v1/sweeps" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
[ "$ID2" = "$ID" ] || { echo "content addressing drifted: job $ID2 vs $ID" >&2; exit 1; }

leased=""
for _ in $(seq 1 100); do
  leased=$(metric "$(curl -fsS "$BASE2/metrics")" suitd_dist_leased_units)
  [ "${leased:-0}" -ge 1 ] && break
  sleep 0.05
done
[ "${leased:-0}" -ge 1 ] || { echo "no unit was leased to the stopped smoke-w1 (leased=$leased)" >&2; exit 1; }

# A real crash: no goodbye, no result post, just a lease that stops
# heartbeating. smoke-w2 then takes the pending units and, once the
# dead lease expires, its requeued unit.
kill -9 "$W1" 2>/dev/null || true
wait "$W1" 2>/dev/null || true
W1=""
echo "SIGKILLed worker smoke-w1 holding $leased lease(s)"
"$WORK/suitworker" -daemon "$BASE2" -id smoke-w2 -token "$TOKEN" -slots 1 &
W2=$!

wait_done "$BASE2" "$ID2" 600

# The robustness contract: the distributed daemon's GET view is
# byte-identical to the single-process daemon's.
curl -fsS "$BASE2/v1/sweeps/$ID2" > "$WORK/view2.json"
cmp "$WORK/view1.json" "$WORK/view2.json" ||
  { echo "distributed view differs from the single-process one" >&2; exit 1; }

M2=$(curl -fsS "$BASE2/metrics")
COMPLETED=$(metric "$M2" suitd_dist_completed_total)
EXPIRED=$(metric "$M2" suitd_dist_leases_expired_total)
FALLBACKS=$(metric "$M2" suitd_dist_local_fallbacks_total)
CONFLICTS=$(metric "$M2" suitd_dist_conflicts_total)
[ "$CONFLICTS" = 0 ] || { echo "suitd_dist_conflicts_total = $CONFLICTS — determinism violation" >&2; exit 1; }
[ "${EXPIRED:-0}" -ge 1 ] || { echo "suitd_dist_leases_expired_total = '$EXPIRED', want >= 1: smoke-w1 died holding a lease" >&2; exit 1; }
echo "distributed sweep OK: remote-completed=$COMPLETED expired-leases=$EXPIRED local-fallbacks=$FALLBACKS conflicts=0"

# smoke-w2 is idle now, so its claim waits at the daemon. The drain
# closes the dispatcher, which answers that claim 503 at once, so
# neither the drain nor the HTTP server's shutdown waits on it.
kill -0 "$W2" 2>/dev/null || { echo "worker smoke-w2 died before the drain" >&2; exit 1; }
kill -TERM "$PID2"
for _ in $(seq 1 50); do
  kill -0 "$PID2" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID2" 2>/dev/null; then
  echo "second suitd still running 5 s after SIGTERM, with smoke-w2 waiting in a claim" >&2
  exit 1
fi
RC=0
wait "$PID2" || RC=$?
PID2=""
[ "$RC" = 0 ] || { echo "second suitd exited $RC after SIGTERM, want 0" >&2; exit 1; }
kill -TERM "$W2" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
W2=""
echo "suitd distributed smoke OK: worker killed mid-sweep, view bytes identical, clean drain with a claim held"
