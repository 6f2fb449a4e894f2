#!/usr/bin/env bash
# Chaos smoke for the serving front-end. Two legs:
#
#   A  start dsig_serve on a fresh deployment, drive open-loop traffic,
#      assert the loadgen completed work with zero protocol errors, then
#      kill -9 the server mid-flight and assert recovery replays at least
#      as far as the highest update sequence any client saw acknowledged —
#      "no acknowledged update lost", the durability headline.
#
#   B  restart on the recovered deployment with starvation budgets, short
#      SLO burn windows, and 2x the traffic. Assert overload shows up as
#      load shedding (RETRY_AFTER) and degraded (category-only) answers
#      rather than collapse, that the SLO engine reports burn-rate critical
#      while the overload is inside its windows (health_overload.json) and
#      recovers to ok once it ages out (health_after.json), that breaching
#      requests left trace lines in the slow-query log, then SIGTERM the
#      server and assert a clean drain (exit 0, SERVE_DRAINED, final
#      checkpoint) and recover-check once more.
#
#   C  tenant isolation: restart with two fair-share tenants (compliant,
#      flood — the flooder rate-capped at its token bucket), drive both from
#      one loadgen with the flooder at 10x the compliant rate, and assert
#      from the TENANT_SUMMARY lines that the flooder was shed hard while
#      the compliant tenant completed nearly everything with a p99 inside
#      its objective; the server's own TENANT_HEALTH ledger must agree.
#
# Usage: serve_smoke.sh <dsig_serve> <dsig_loadgen> <dsig_tool> [workdir]
set -u

SERVE="$1"
LOADGEN="$2"
TOOL="$3"
WORK="${4:-$(mktemp -d)}"
mkdir -p "$WORK"
DIR="$WORK/deploy"
SERVER_PID=""

fail() {
  echo "SERVE_SMOKE FAIL: $*" >&2
  for log in "$WORK"/*.log; do
    [ -f "$log" ] && { echo "--- $log"; tail -20 "$log"; } >&2
  done
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  exit 1
}

# Scrape "key=value" off a LOADGEN_SUMMARY / RECOVER_OK line.
scrape() { # file key
  grep -o "$2=[^ ]*" "$1" | head -1 | cut -d= -f2
}

wait_port() { # port-file
  for _ in $(seq 1 300); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  return 1
}

# ---- Leg A: traffic, kill -9, recovery oracle -------------------------------
rm -rf "$DIR"
mkdir -p "$DIR"
rm -f "$WORK/port"
# Launched directly (not via a compound command) so $! is the server itself,
# which is what kill -9 must hit.
"$SERVE" --dir="$DIR" --nodes=3000 --checkpoint-interval=32 \
  --port-file="$WORK/port" >"$WORK/serve_a.log" 2>&1 &
SERVER_PID=$!
wait_port "$WORK/port" || fail "server A never published its port"

"$LOADGEN" --port-file="$WORK/port" --rate=300 --duration-s=2 --threads=4 \
  --deadline-ms=200 --update-fraction=0.15 --seed=11 \
  --report="$WORK/serve_report.json" >"$WORK/loadgen_a.log" 2>&1 \
  || fail "loadgen A exited nonzero"

completed=$(scrape "$WORK/loadgen_a.log" completed)
protocol_errors=$(scrape "$WORK/loadgen_a.log" protocol_errors)
max_acked_seq=$(scrape "$WORK/loadgen_a.log" max_acked_seq)
[ -n "$completed" ] || fail "no LOADGEN_SUMMARY in leg A"
[ "$completed" -gt 0 ] || fail "leg A completed nothing"
[ "$protocol_errors" -eq 0 ] || fail "leg A protocol_errors=$protocol_errors"
[ "$max_acked_seq" -gt 0 ] || fail "leg A acked no updates"
[ -s "$WORK/serve_report.json" ] || fail "loadgen wrote no report"

kill -9 "$SERVER_PID" 2>/dev/null || fail "server A already gone before kill -9"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""

"$SERVE" --dir="$DIR" --recover-check >"$WORK/recover_a.log" 2>&1 \
  || fail "recover-check after kill -9 failed"
grep -q RECOVER_OK "$WORK/recover_a.log" || fail "no RECOVER_OK after kill -9"
last_seq=$(scrape "$WORK/recover_a.log" last_seq)
[ "$last_seq" -ge "$max_acked_seq" ] \
  || fail "acknowledged update lost: recovered seq $last_seq < acked $max_acked_seq"
echo "leg A ok: completed=$completed acked_seq=$max_acked_seq recovered_seq=$last_seq"

# ---- Leg B: overload + graceful drain ---------------------------------------
# Overload is statistical; retry the leg a few times before declaring the
# server refuses to shed.
for attempt in 1 2 3; do
  rm -f "$WORK/port" "$WORK/slow_queries.jsonl"
  # Short burn windows (fast 2s / slow 8s) so the 2-second overload fills
  # both and the recovery sleep empties them; a generous 200ms budget so
  # only shed/timed-out requests burn error budget, not healthy latency;
  # a three-nines availability objective so the ~5% shed rate the tiny
  # queue produces burns at ~50x — unambiguously past the 14.4 critical
  # threshold — while zero bad requests still burns zero.
  "$SERVE" --dir="$DIR" --port-file="$WORK/port" \
    --max-inflight=1 --max-queue=2 --retry-after-base-ms=5 \
    --degrade-fraction=0.25 --slo-availability=0.999 \
    --slo-budget-ms=200 --slo-fast-s=2 --slo-slow-s=8 --slo-slot-ms=250 \
    --slow-query-log="$WORK/slow_queries.jsonl" --trace-sample-period=4 \
    >"$WORK/serve_b.log" 2>&1 &
  SERVER_PID=$!
  wait_port "$WORK/port" || fail "server B never published its port"

  # More connections (8) than slot + queue (1 + 2), and a join-heavy mix so
  # requests are slow enough to pile up: whenever four senders overlap, the
  # fourth is shed. The single slot makes overload structural, not timing.
  "$LOADGEN" --port-file="$WORK/port" --rate=1000 --duration-s=2 --threads=8 \
    --join-fraction=0.25 --deadline-ms=50 --max-retries=1 \
    --seed=$((attempt * 13)) \
    >"$WORK/loadgen_b.log" 2>&1 || fail "loadgen B exited nonzero"

  shed=$(scrape "$WORK/loadgen_b.log" shed)
  degraded=$(scrape "$WORK/loadgen_b.log" degraded)
  b_protocol_errors=$(scrape "$WORK/loadgen_b.log" protocol_errors)
  [ "$b_protocol_errors" -eq 0 ] || fail "leg B protocol_errors=$b_protocol_errors"

  overloaded=0
  if [ "$shed" -gt 0 ] && [ "$degraded" -gt 0 ]; then
    overloaded=1
    # Probe immediately, while the shed traffic is still inside both burn
    # windows: the health report must say critical.
    "$TOOL" slo --port-file="$WORK/port" --out="$WORK/health_overload.json" \
      >"$WORK/slo_overload.log" 2>&1 || fail "dsig_tool slo (overload) failed"
    # Let the overload age out of the slow (8s) window, then probe again
    # with fresh good traffic: burn drops to zero and the class windows
    # forget the overload latencies, while the lifetime histogram does not.
    sleep 10
    "$TOOL" slo --port-file="$WORK/port" --probe=30 \
      --out="$WORK/health_after.json" \
      >"$WORK/slo_after.log" 2>&1 || fail "dsig_tool slo (recovery) failed"
  fi

  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  rc=$?
  SERVER_PID=""
  [ "$rc" -eq 0 ] || fail "server B exited $rc after SIGTERM"
  grep -q SERVE_DRAINED "$WORK/serve_b.log" || fail "server B drained without SERVE_DRAINED"

  [ "$overloaded" -eq 1 ] && break
  [ "$attempt" -lt 3 ] || fail "no overload after 3 attempts (shed=$shed degraded=$degraded)"
done
echo "leg B ok: shed=$shed degraded=$degraded"

# ---- SLO burn-rate + slow-query-log assertions ------------------------------
grep -q 'SLO_OVERALL state=critical' "$WORK/slo_overload.log" \
  || fail "SLO not critical during overload (slo_overload.log)"
grep -q 'SLO_OVERALL state=ok' "$WORK/slo_after.log" \
  || fail "SLO did not recover to ok (slo_after.log)"
[ -s "$WORK/slow_queries.jsonl" ] || fail "no slow-query trace lines"
grep -q '"trace_id"' "$WORK/slow_queries.jsonl" \
  || fail "slow-query lines carry no trace_id"

# The archived health reports are machine-readable: re-assert the burn-rate
# transition from them, and that after recovery the windowed view has
# forgotten the overload latencies while the lifetime histogram remembers.
python3 - "$WORK/health_overload.json" "$WORK/health_after.json" <<'EOF' \
  || fail "health report assertions failed"
import json, sys

with open(sys.argv[1]) as f:
    overload = json.load(f)
with open(sys.argv[2]) as f:
    after = json.load(f)

assert overload["slo"]["overall"] == "critical", overload["slo"]["overall"]
worst = next(c for c in overload["slo"]["classes"] if c["state"] == "critical")
assert worst["fast_burn"] >= 14.4 and worst["slow_burn"] >= 14.4, worst

assert after["slo"]["overall"] == "ok", after["slo"]["overall"]
knn = next(c for c in after["slo"]["classes"] if c["class"] == "knn")
assert knn["fast_burn"] == 0.0, knn
# The probe traffic is all the window remembers; the overload's queueing
# latencies survive only in the lifetime percentile.
assert knn["window_count"] > 0, knn
assert knn["lifetime_p99_ms"] > 1.3 * knn["window_p99_ms"], (
    knn["lifetime_p99_ms"], knn["window_p99_ms"])
print("health reports ok: burn", round(worst["slow_burn"], 1),
      "-> 0; window p99", round(knn["window_p99_ms"], 2),
      "ms vs lifetime p99", round(knn["lifetime_p99_ms"], 2), "ms")
EOF

"$SERVE" --dir="$DIR" --recover-check >"$WORK/recover_b.log" 2>&1 \
  || fail "final recover-check failed"
grep -q RECOVER_OK "$WORK/recover_b.log" || fail "no RECOVER_OK after drain"

# ---- Leg C: two-tenant isolation --------------------------------------------
# Tenant 0 "compliant" (unlimited), tenant 1 "flood" rate-capped at 100 qps.
# The loadgen drives the flooder at 10x the compliant rate; isolation means
# the flood is shed at its bucket and its own queue while the compliant
# tenant's completions and p99 are untouched.
rm -f "$WORK/port"
"$SERVE" --dir="$DIR" --port-file="$WORK/port" \
  --max-inflight=2 --max-queue=8 \
  --tenants=compliant:1:0,flood:1:100 --tenant-slo-budget-ms=150 \
  >"$WORK/serve_c.log" 2>&1 &
SERVER_PID=$!
wait_port "$WORK/port" || fail "server C never published its port"
grep -q 'tenants=2' "$WORK/serve_c.log" || fail "server C did not load 2 tenants"

"$LOADGEN" --port-file="$WORK/port" --duration-s=2 --threads=2 \
  --tenants=compliant:0:40,flood:1:400 \
  --update-fraction=0 --join-fraction=0 --deadline-ms=250 --max-retries=1 \
  --seed=29 --report="$WORK/serve_report_tenants.json" \
  >"$WORK/loadgen_c.log" 2>&1 || fail "loadgen C exited nonzero"

compliant_line=$(grep 'TENANT_SUMMARY tenant=compliant' "$WORK/loadgen_c.log")
flood_line=$(grep 'TENANT_SUMMARY tenant=flood' "$WORK/loadgen_c.log")
[ -n "$compliant_line" ] && [ -n "$flood_line" ] \
  || fail "leg C missing TENANT_SUMMARY lines"
t_scrape() { echo "$1" | grep -o "$2=[^ ]*" | head -1 | cut -d= -f2; }
flood_shed=$(t_scrape "$flood_line" shed)
flood_arrivals=$(t_scrape "$flood_line" arrivals)
c_arrivals=$(t_scrape "$compliant_line" arrivals)
c_completed=$(t_scrape "$compliant_line" completed)
c_shed=$(t_scrape "$compliant_line" shed)
c_p99=$(t_scrape "$compliant_line" p99_ms)
[ "$flood_shed" -gt $((flood_arrivals / 4)) ] \
  || fail "flooder was not shed (shed=$flood_shed of $flood_arrivals)"
[ "$c_completed" -ge $((c_arrivals * 95 / 100)) ] \
  || fail "compliant tenant lost work: completed=$c_completed of $c_arrivals"
[ "$c_shed" -le $((c_arrivals / 20)) ] \
  || fail "compliant tenant shed alongside the flooder: shed=$c_shed"
awk "BEGIN { exit !($c_p99 < 150) }" \
  || fail "compliant p99=${c_p99}ms breached its 150ms objective"
grep -q 'loadgen_tenant' "$WORK/serve_report_tenants.json" \
  || fail "tenant report carries no per-tenant points"

# The server's own per-tenant SLO ledger agrees with the client's view.
"$TOOL" slo --port-file="$WORK/port" --out="$WORK/health_tenants.json" \
  >"$WORK/slo_tenants.log" 2>&1 || fail "dsig_tool slo (tenants) failed"
grep -q 'TENANT_HEALTH class=tenant_compliant state=ok' "$WORK/slo_tenants.log" \
  || fail "compliant tenant not healthy in TENANT_HEALTH"
grep -q 'TENANT_HEALTH class=tenant_flood' "$WORK/slo_tenants.log" \
  || fail "no TENANT_HEALTH line for the flood tenant"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
rc=$?
SERVER_PID=""
[ "$rc" -eq 0 ] || fail "server C exited $rc after SIGTERM"
echo "leg C ok: flood shed=$flood_shed/$flood_arrivals compliant p99=${c_p99}ms shed=$c_shed"

echo "SERVE_SMOKE OK"
