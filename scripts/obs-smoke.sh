#!/bin/sh
# obs-smoke — end-to-end check of the fleet observability surface
# (DESIGN.md §16) against real processes: a coordinator and two worker
# nodes run a campaign, one node is SIGKILLed mid-unit, and the script
# asserts what a fleet operator would rely on:
#
#   * GET /metrics on the coordinator is live *mid-campaign* with a
#     non-zero latticesim_queue_depth, and after the run shows the
#     forced lease expiry and a store hit from a resubmission;
#   * GET /metrics on a worker node (-metrics-addr) reports its unit
#     and Monte Carlo shard series;
#   * one trace ID stamps the campaign's spans in the coordinator's
#     -log-json sink AND the surviving node's unit spans in its own;
#   * `latticesim status` renders the dashboard against the live fleet;
#   * -debug-addr serves pprof.
#
# Usage: scripts/obs-smoke.sh   (or `make obs-smoke`)
# Env:   BIN  — prebuilt latticesim binary (default: build into tmpdir)
#        KEEP — set non-empty to keep the tmpdir for inspection
set -eu

ADDR=127.0.0.1:8653
WADDR=127.0.0.1:8654
PPROF=127.0.0.1:8655
DIR=$(mktemp -d)

SERVE_PID=; DOOMED_PID=; SURVIVOR_PID=; POLL_PID=
cleanup() {
  kill $SERVE_PID $DOOMED_PID $SURVIVOR_PID $POLL_PID 2>/dev/null || true
  if [ -n "${KEEP:-}" ]; then echo "obs-smoke: artifacts kept in $DIR"; else rm -rf "$DIR"; fi
}
trap cleanup EXIT

if [ -z "${BIN:-}" ]; then
  BIN=$DIR/latticesim
  go build -o "$BIN" ./cmd/latticesim
fi

fail() { echo "obs-smoke FAIL: $*" >&2; exit 1; }

# Coordinator: executes nothing itself, short leases. A killed node's
# unit comes back only by lease expiry, which pins
# latticesim_lease_expiries_total to a non-zero value.
"$BIN" serve -addr "$ADDR" -data "$DIR/data" -workers 0 -lease 2s \
  -log-json "$DIR/coord.ndjson" -debug-addr "$PPROF" &
SERVE_PID=$!
for i in $(seq 1 50); do
  curl -sf "http://$ADDR/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "http://$ADDR/healthz" >/dev/null || fail "coordinator never came up"

"$BIN" worker -server "http://$ADDR" -name doomed -poll 100ms &
DOOMED_PID=$!
"$BIN" worker -server "http://$ADDR" -name survivor -poll 100ms \
  -metrics-addr "$WADDR" -log-json "$DIR/worker.ndjson" &
SURVIVOR_PID=$!
for i in $(seq 1 50); do
  n=$(curl -sf "http://$ADDR/v1/workers" | grep -o '"id"' | wc -l)
  [ "$n" -eq 2 ] && break
  sleep 0.2
done
[ "$n" -eq 2 ] || fail "expected 2 registered workers, saw $n"

# Mid-campaign watcher: scrape the coordinator until the queue is
# visibly non-empty AND both nodes hold leases, then SIGKILL the doomed
# node while it provably owns a unit. Also snapshot the worker's own
# /metrics mid-run.
(
  for i in $(seq 1 600); do
    m=$(curl -sf "http://$ADDR/metrics" || true)
    depth=$(echo "$m" | awk '/^latticesim_queue_depth /{print int($2)}')
    leases=$(echo "$m" | awk '/^latticesim_active_leases /{print int($2)}')
    if [ "${depth:-0}" -gt 0 ] && [ "${leases:-0}" -ge 2 ]; then
      echo "${depth}" > "$DIR/qdepth"
      curl -sf "http://$WADDR/metrics" > "$DIR/worker_midrun.txt" || true
      kill -9 $DOOMED_PID 2>/dev/null || true
      exit 0
    fi
    sleep 0.05
  done
  exit 1
) &
POLL_PID=$!

"$BIN" submit campaign -server "http://$ADDR" \
  -policies Passive,Active -tau 250,500,750,1000 -shots 400000 \
  -batch-points 1 -retry \
  > "$DIR/campaign.json" 2> "$DIR/campaign.err"
cat "$DIR/campaign.err"
wait $POLL_PID || fail "never observed a non-empty queue with two active leases mid-campaign"
POLL_PID=

[ -s "$DIR/qdepth" ] || fail "mid-campaign latticesim_queue_depth never went above 0"
echo "obs-smoke: mid-campaign queue depth was $(cat "$DIR/qdepth")"
grep -q '^# TYPE latticesim_worker_units_leased_total counter' "$DIR/worker_midrun.txt" \
  || fail "mid-campaign worker scrape missing unit counters"

# Resubmission of the identical campaign is answered by the store.
"$BIN" submit campaign -server "http://$ADDR" \
  -policies Passive,Active -tau 250,500,750,1000 -shots 400000 \
  -batch-points 1 \
  > "$DIR/campaign2.json" 2>/dev/null
cmp "$DIR/campaign.json" "$DIR/campaign2.json" || fail "resubmitted campaign bytes differ"

metric() { # metric <file> <name> -> integer value (0 if absent)
  awk -v n="$2" '$1 == n {print int($2); found=1} END {if (!found) print 0}' "$1"
}
curl -sf "http://$ADDR/metrics" > "$DIR/coord_metrics.txt" || fail "final coordinator scrape failed"
[ "$(metric "$DIR/coord_metrics.txt" latticesim_lease_expiries_total)" -ge 1 ] \
  || fail "lease_expiries_total still 0 after SIGKILLing a node holding a lease"
[ "$(metric "$DIR/coord_metrics.txt" latticesim_store_hits_total)" -ge 1 ] \
  || fail "store_hits_total still 0 after resubmitting a finished campaign"
[ "$(metric "$DIR/coord_metrics.txt" latticesim_integrity_failures_total)" -eq 0 ] \
  || fail "integrity failures during the smoke"

curl -sf "http://$WADDR/metrics" > "$DIR/worker_metrics.txt" || fail "worker scrape failed"
[ "$(metric "$DIR/worker_metrics.txt" latticesim_worker_units_completed_total)" -ge 1 ] \
  || fail "survivor completed no units per its own registry"
[ "$(metric "$DIR/worker_metrics.txt" latticesim_shard_duration_seconds_count)" -ge 1 ] \
  || fail "worker registry missing Monte Carlo shard observations"

# One trace ID end to end: the campaign's spans on the coordinator and
# the surviving node's unit spans carry the same 32-hex ID.
TRACE=$(grep '"name":"campaign"' "$DIR/coord.ndjson" | head -n 1 \
  | sed 's/.*"trace":"\([0-9a-f]\{32\}\)".*/\1/')
[ -n "$TRACE" ] || fail "no campaign span in the coordinator's -log-json sink"
grep '"phase":"end"' "$DIR/coord.ndjson" | grep '"name":"campaign"' \
  | grep "$TRACE" | grep -q '"outcome":"done"' \
  || fail "campaign trace $TRACE has no done end-span"
units=$(grep '"name":"unit"' "$DIR/worker.ndjson" | grep '"phase":"end"' | grep -c "$TRACE" || true)
[ "$units" -ge 1 ] || fail "survivor's span sink has no unit end-spans with trace $TRACE"
echo "obs-smoke: trace $TRACE spans $units surviving-node units"

# The status dashboard renders against the live fleet.
"$BIN" status -server "$ADDR" > "$DIR/status.txt"
cat "$DIR/status.txt"
grep -q "survivor" "$DIR/status.txt" || fail "status dashboard missing the surviving node"

# pprof on its own listener.
curl -sf "http://$PPROF/debug/pprof/" >/dev/null || fail "pprof endpoint not serving"

kill $SURVIVOR_PID 2>/dev/null || true
kill $SERVE_PID
SERVE_PID=; SURVIVOR_PID=; DOOMED_PID=
echo "obs-smoke PASS"
