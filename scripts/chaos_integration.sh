#!/usr/bin/env bash
# Chaos check for the fault plane, in three storms:
#
#   A. Full disk: a jitd with an injected ENOSPC schedule must degrade to
#      read-only (503 + Retry-After on creates, jitd_degraded_mode 1) instead
#      of dying, keep answering reads, and clear the mode automatically once
#      the injected budget burns off.
#   B. Bit rot: flipped bytes in one session's snapshot must quarantine that
#      one session (404, directory moved to <data>/quarantine/, counter up)
#      while the process keeps serving the untouched session byte-for-byte.
#   C. Network storm: a 3-shard cluster whose replication links tear writes
#      mid-frame and reset for the first connections must still drain lag;
#      then kill -9 of a primary + standby promotion must lose zero
#      acknowledged writes — byte-identical answers after the storm.
set -euo pipefail

WORK="${TMPDIR:-/tmp}/jitd-chaos-it.$$"
TRAIN_FLAGS=(-eras 4 -rows 300 -horizon 2 -k 5 -wal-sync always)
JITD="$WORK/jitd"
JITROUTER="$WORK/jitrouter"
PIDS=()

mkdir -p "$WORK"
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for f in "$WORK"/log-*; do
    echo "--- $f ---" >&2
    tail -25 "$f" >&2 || true
  done
  exit 1
}

wait_url() { # wait_url <url> <what>
  for _ in $(seq 1 240); do
    if curl -sf "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.5
  done
  fail "$2 did not become ready ($1)"
}

wait_metric() { # wait_metric <base> <regex> <what>
  for _ in $(seq 1 120); do
    if curl -sf "$1/metrics" | grep "$2" >/dev/null; then return 0; fi
    sleep 0.5
  done
  fail "$3 (never saw /metrics line matching '$2')"
}

PROFILE='{"profile": {"age": 29, "household": 1, "income": 48000, "debt": 1900, "seniority": 4, "amount": 30000}}'

create_session() { # create_session <base> -> session id on stdout, "" on non-201
  local out
  out=$(curl -s -X POST "$1/api/sessions" -H 'Content-Type: application/json' -d "$PROFILE")
  printf '%s' "$out" | sed -n 's/.*"id":"\(s-[0-9a-f]*\)".*/\1/p'
}

ask() { # ask <base> <session-id> <kind>
  curl -sf -X POST "$1/api/sessions/$2/ask" -H 'Content-Type: application/json' \
    -d "{\"kind\": \"$3\", \"feature\": \"income\", \"alpha\": 0.7}"
}

dump_session() { # dump_session <base> <session-id> <out-file>
  : >"$3"
  for kind in no-modification minimal-features-set turning-point; do
    ask "$1" "$2" "$kind" >>"$3" || return 1
    echo >>"$3"
  done
  curl -sf -X POST "$1/api/sessions/$2/sql" -H 'Content-Type: application/json' \
    -d '{"query": "SELECT * FROM candidates ORDER BY time, diff, gap, p"}' >>"$3" || return 1
  echo >>"$3"
}

echo "== building jitd and jitrouter =="
go build -o "$JITD" ./cmd/jitd
go build -o "$JITROUTER" ./cmd/jitrouter

# --------------------------------------------------------------------------
echo "== phase A: full disk -> read-only degraded mode -> automatic recovery =="
A_PORT=18601
A_BASE="http://127.0.0.1:$A_PORT"
# After ~16 KiB of writes under the sessions tree (a handful of sessions),
# the next 6 mutating ops fail ENOSPC; the bounded budget is what lets the
# recovery probe (1/s) observe the disk "recovering".
"$JITD" -addr "127.0.0.1:$A_PORT" -data-dir "$WORK/a-data" \
  -fault-disk 'enospc:after=16384,times=6,path=sessions' \
  "${TRAIN_FLAGS[@]}" >>"$WORK/log-a" 2>&1 &
PIDS+=("$!")
wait_url "$A_BASE/api/questions" "phase-A jitd"

A_SID=$(create_session "$A_BASE")
[ -n "$A_SID" ] || fail "phase A: healthy create failed before the disk filled"

echo "   filling the disk (creating until ENOSPC fires)"
GOT_503=""
for _ in $(seq 1 25); do
  HDRS=$(curl -s -D - -o /dev/null -X POST "$A_BASE/api/sessions" \
    -H 'Content-Type: application/json' -d "$PROFILE")
  if printf '%s' "$HDRS" | grep -q '^HTTP/[0-9.]* 503'; then
    printf '%s' "$HDRS" | grep -qi '^Retry-After:' \
      || fail "phase A: degraded 503 carries no Retry-After"
    GOT_503=1
    break
  fi
done
[ -n "$GOT_503" ] || fail "phase A: injected ENOSPC never produced a 503"
curl -s "$A_BASE/metrics" | grep '^jitd_degraded_mode 1$' >/dev/null \
  || fail "phase A: jitd_degraded_mode not 1 while degraded"

echo "   reads still answer while degraded"
ask "$A_BASE" "$A_SID" no-modification >/dev/null \
  || fail "phase A: read failed while degraded (read-only mode must keep serving reads)"

echo "   waiting for the probe to clear the mode"
wait_metric "$A_BASE" '^jitd_degraded_mode 0$' "phase A: degraded mode never cleared"
A_SID2=$(create_session "$A_BASE")
[ -n "$A_SID2" ] || fail "phase A: create still failing after recovery"
echo "   phase A ok (degraded, kept reading, self-recovered)"

# --------------------------------------------------------------------------
echo "== phase B: snapshot bit rot -> one session quarantined, the rest serve =="
B_PORT=18602
B_BASE="http://127.0.0.1:$B_PORT"
"$JITD" -addr "127.0.0.1:$B_PORT" -data-dir "$WORK/b-data" \
  "${TRAIN_FLAGS[@]}" >>"$WORK/log-b" 2>&1 &
B_PID=$!
PIDS+=("$B_PID")
wait_url "$B_BASE/api/questions" "phase-B jitd"

B_BAD=$(create_session "$B_BASE")
B_GOOD=$(create_session "$B_BASE")
[ -n "$B_BAD" ] && [ -n "$B_GOOD" ] || fail "phase B: session creation failed"
dump_session "$B_BASE" "$B_GOOD" "$WORK/b-good-pre.txt" || fail "phase B: pre dump failed"

echo "   stopping jitd cleanly, flipping bytes mid-snapshot of $B_BAD"
kill "$B_PID" 2>/dev/null || true
for _ in $(seq 1 100); do kill -0 "$B_PID" 2>/dev/null || break; sleep 0.1; done
kill -0 "$B_PID" 2>/dev/null && fail "phase B: jitd did not exit on SIGTERM"

SNAP="$WORK/b-data/sessions/$B_BAD/snapshot.db"
[ -f "$SNAP" ] || fail "phase B: no snapshot on disk for $B_BAD"
SIZE=$(wc -c <"$SNAP")
printf 'CHAOSCHAOSCHAOS' | dd of="$SNAP" bs=1 seek=$((SIZE / 2)) conv=notrunc 2>/dev/null

"$JITD" -addr "127.0.0.1:$B_PORT" -data-dir "$WORK/b-data" \
  "${TRAIN_FLAGS[@]}" >>"$WORK/log-b" 2>&1 &
PIDS+=("$!")
wait_url "$B_BASE/api/questions" "phase-B jitd (restarted)"

CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$B_BASE/api/sessions/$B_BAD/ask" \
  -H 'Content-Type: application/json' -d '{"kind": "no-modification"}')
[ "$CODE" = "404" ] || fail "phase B: corrupt session answered $CODE, want 404"
curl -s "$B_BASE/metrics" | grep '^jitd_sessions_quarantined_total 1$' >/dev/null \
  || fail "phase B: quarantine counter not 1"
[ -d "$WORK/b-data/quarantine/$B_BAD" ] || fail "phase B: no quarantine directory for $B_BAD"
[ ! -d "$WORK/b-data/sessions/$B_BAD" ] || fail "phase B: corrupt session still in the live tree"

dump_session "$B_BASE" "$B_GOOD" "$WORK/b-good-post.txt" \
  || fail "phase B: healthy session stopped serving after the quarantine"
diff -u "$WORK/b-good-pre.txt" "$WORK/b-good-post.txt" >/dev/null \
  || fail "phase B: healthy session's answers drifted across restart + quarantine"
echo "   phase B ok (one session quarantined, process kept serving)"

# --------------------------------------------------------------------------
echo "== phase C: 3-shard cluster, replication storm, kill -9, zero lost writes =="
ROUTER_ADDR="127.0.0.1:18690"
ROUTER="http://$ROUTER_ADDR"
NAMES=(s0 s1 s2)
API_PORTS=(18611 18612 18613)
SB_PORTS=(18621 18622 18623)
REPL_PORTS=(18631 18632 18633)
CONFIG="$WORK/cluster.json"

cat >"$CONFIG" <<EOF
{"shards": [
  {"name": "s0", "addr": "127.0.0.1:${API_PORTS[0]}", "standby": "127.0.0.1:${SB_PORTS[0]}"},
  {"name": "s1", "addr": "127.0.0.1:${API_PORTS[1]}", "standby": "127.0.0.1:${SB_PORTS[1]}"},
  {"name": "s2", "addr": "127.0.0.1:${API_PORTS[2]}", "standby": "127.0.0.1:${SB_PORTS[2]}"}
]}
EOF

for i in 0 1 2; do
  "$JITD" -standby -addr "127.0.0.1:${SB_PORTS[$i]}" \
    -replication-listen "127.0.0.1:${REPL_PORTS[$i]}" \
    -data-dir "$WORK/standby-${NAMES[$i]}" "${TRAIN_FLAGS[@]}" \
    >>"$WORK/log-standby-${NAMES[$i]}" 2>&1 &
  PIDS+=("$!")
done
# Primaries ship their WAL through a faulty link: 1ms added latency and the
# first 5 connections reset mid-frame after 2 KiB with a 256-byte torn
# tail — every handshake sync is bigger than that, so the storm is
# guaranteed to fire. first-conns bounds it so convergence is too.
for i in 0 1 2; do
  "$JITD" -addr "127.0.0.1:${API_PORTS[$i]}" \
    -cluster-config "$CONFIG" -shard-name "${NAMES[$i]}" \
    -replicate-to "127.0.0.1:${REPL_PORTS[$i]}" \
    -fault-net 'latency=1ms,reset-after=2048,torn=256,first-conns=5' \
    -data-dir "$WORK/primary-${NAMES[$i]}" "${TRAIN_FLAGS[@]}" \
    >>"$WORK/log-primary-${NAMES[$i]}" 2>&1 &
  eval "PRI_PID_$i=$!"
  PIDS+=("$!")
done
for i in 0 1 2; do
  wait_url "http://127.0.0.1:${API_PORTS[$i]}/api/questions" "primary ${NAMES[$i]}"
  wait_url "http://127.0.0.1:${SB_PORTS[$i]}/admin/standby" "standby ${NAMES[$i]}"
done

"$JITROUTER" -addr "$ROUTER_ADDR" -cluster-config "$CONFIG" \
  -probe-interval 250ms -probe-timeout 1s -down-after 2 -forward-timeout 5s \
  >>"$WORK/log-router" 2>&1 &
PIDS+=("$!")
wait_url "$ROUTER/admin/map" "router"

echo "   creating sessions through the router until every shard holds one"
declare -A SESSION_OF
PLACED=0
for _ in $(seq 1 30); do
  [ "$PLACED" -eq 3 ] && break
  SID=$(create_session "$ROUTER")
  [ -n "$SID" ] || fail "phase C: session creation through router failed"
  OWNER=$(curl -sf "$ROUTER/admin/owner?id=$SID" | sed -n 's/.*"shard":"\([^"]*\)".*/\1/p')
  [ -n "$OWNER" ] || fail "phase C: router could not name an owner for $SID"
  if [ -z "${SESSION_OF[$OWNER]:-}" ]; then
    SESSION_OF[$OWNER]="$SID"
    PLACED=$((PLACED + 1))
    echo "   $OWNER <- $SID"
  fi
done
[ "$PLACED" -eq 3 ] || fail "phase C: could not land a session on every shard (placed $PLACED)"

echo "   extra traffic so every shard ships through the faulty window"
for _ in $(seq 1 6); do
  SID=$(create_session "$ROUTER")
  [ -n "$SID" ] || fail "phase C: create during the storm failed"
done

echo "   recording pre-storm answers (these are the acknowledged writes)"
for name in "${NAMES[@]}"; do
  dump_session "$ROUTER" "${SESSION_OF[$name]}" "$WORK/pre-$name.txt" \
    || fail "phase C: pre-storm dump for shard $name failed"
done

echo "   asserting the faults actually fired and lag drains anyway"
STORMED=""
for i in 0 1 2; do
  if curl -sf "http://127.0.0.1:${API_PORTS[$i]}/metrics" \
      | grep '^jitd_fault_net_injected_total [1-9]' >/dev/null; then
    STORMED=1
  fi
done
[ -n "$STORMED" ] || fail "phase C: no primary recorded an injected network fault"
for i in 0 1 2; do
  wait_metric "http://127.0.0.1:${API_PORTS[$i]}" '^jitd_replication_lag_sessions 0$' \
    "phase C: shard ${NAMES[$i]} never drained its replication lag through the storm"
done

VICTIM_IDX=1
VICTIM="${NAMES[$VICTIM_IDX]}"
VICTIM_SID="${SESSION_OF[$VICTIM]}"
VICTIM_PID=$(eval echo "\$PRI_PID_$VICTIM_IDX")
echo "   kill -9 shard $VICTIM (pid $VICTIM_PID), promoting its standby"
kill -9 "$VICTIM_PID"
PROMOTE=$(curl -sf -X POST "http://127.0.0.1:${SB_PORTS[$VICTIM_IDX]}/admin/promote") \
  || fail "phase C: promotion request failed"
printf '%s' "$PROMOTE" | grep -q '"promoted":true' || fail "phase C: promotion not confirmed: $PROMOTE"

cat >"$CONFIG" <<EOF
{"shards": [
  {"name": "s0", "addr": "127.0.0.1:${API_PORTS[0]}", "standby": "127.0.0.1:${SB_PORTS[0]}"},
  {"name": "s1", "addr": "127.0.0.1:${SB_PORTS[1]}"},
  {"name": "s2", "addr": "127.0.0.1:${API_PORTS[2]}", "standby": "127.0.0.1:${SB_PORTS[2]}"}
]}
EOF
curl -sf -X POST "$ROUTER/admin/reload" >/dev/null || fail "phase C: router reload failed"
wait_url "$ROUTER/api/sessions/$VICTIM_SID/inputs" "failed-over shard $VICTIM"

echo "   comparing post-storm answers byte for byte"
for name in "${NAMES[@]}"; do
  dump_session "$ROUTER" "${SESSION_OF[$name]}" "$WORK/post-$name.txt" \
    || fail "phase C: post-storm dump for shard $name failed"
  diff -u "$WORK/pre-$name.txt" "$WORK/post-$name.txt" \
    || fail "phase C: shard $name lost or mutated acknowledged writes across the storm"
done

echo "PASS: chaos — degraded+recovered on ENOSPC, quarantined bit rot in isolation, zero lost acknowledged writes through the network storm"
