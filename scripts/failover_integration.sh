#!/usr/bin/env bash
# Kill-a-shard failover check for the cluster layer: a 3-shard jitd cluster
# with a warm standby per shard behind one jitrouter. Sessions are created
# through the router on every shard and their answers recorded; replication
# lag is asserted drained on every primary (jitd_replication_lag_sessions 0:
# every session's standby cursor equals the primary's) and every standby's
# /metrics must show a connected feed (jitd_replica_connected 1);
# then one primary is killed with SIGKILL. The router must answer 503 (not
# hang) for the dead shard while unrelated shards keep answering, the standby
# is promoted via POST /admin/promote, the shard map is re-pointed and
# reloaded — and every session, including those of the killed shard, must
# answer byte-for-byte what it answered before the crash.
set -euo pipefail

WORK="${TMPDIR:-/tmp}/jitd-failover-it.$$"
ROUTER_ADDR="127.0.0.1:18090"
ROUTER="http://$ROUTER_ADDR"
NAMES=(s0 s1 s2)
API_PORTS=(19101 19102 19103)
SB_PORTS=(19201 19202 19203)
REPL_PORTS=(19301 19302 19303)
TRAIN_FLAGS=(-eras 4 -rows 300 -horizon 2 -k 5 -wal-sync always)

JITD="$WORK/jitd"
JITROUTER="$WORK/jitrouter"
CONFIG="$WORK/cluster.json"
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

echo "== writing shard map =="
cat >"$CONFIG" <<EOF
{"shards": [
  {"name": "s0", "addr": "127.0.0.1:${API_PORTS[0]}", "standby": "127.0.0.1:${SB_PORTS[0]}"},
  {"name": "s1", "addr": "127.0.0.1:${API_PORTS[1]}", "standby": "127.0.0.1:${SB_PORTS[1]}"},
  {"name": "s2", "addr": "127.0.0.1:${API_PORTS[2]}", "standby": "127.0.0.1:${SB_PORTS[2]}"}
]}
EOF

echo "== starting 3 warm standbys =="
for i in 0 1 2; do
  "$JITD" -standby -addr "127.0.0.1:${SB_PORTS[$i]}" \
    -replication-listen "127.0.0.1:${REPL_PORTS[$i]}" \
    -data-dir "$WORK/standby-${NAMES[$i]}" "${TRAIN_FLAGS[@]}" \
    >>"$WORK/log-standby-${NAMES[$i]}" 2>&1 &
  eval "SB_PID_$i=$!"
  PIDS+=("$!")
done

echo "== starting 3 shard primaries =="
for i in 0 1 2; do
  "$JITD" -addr "127.0.0.1:${API_PORTS[$i]}" \
    -cluster-config "$CONFIG" -shard-name "${NAMES[$i]}" \
    -replicate-to "127.0.0.1:${REPL_PORTS[$i]}" \
    -data-dir "$WORK/primary-${NAMES[$i]}" "${TRAIN_FLAGS[@]}" \
    >>"$WORK/log-primary-${NAMES[$i]}" 2>&1 &
  eval "PRI_PID_$i=$!"
  PIDS+=("$!")
done
for i in 0 1 2; do
  wait_url "http://127.0.0.1:${API_PORTS[$i]}/api/questions" "primary ${NAMES[$i]}"
  wait_url "http://127.0.0.1:${SB_PORTS[$i]}/admin/standby" "standby ${NAMES[$i]}"
done

echo "== starting jitrouter =="
"$JITROUTER" -addr "$ROUTER_ADDR" -cluster-config "$CONFIG" \
  -probe-interval 250ms -probe-timeout 1s -down-after 2 -forward-timeout 5s \
  >>"$WORK/log-router" 2>&1 &
PIDS+=("$!")
wait_url "$ROUTER/admin/map" "router"

echo "== creating sessions through the router until every shard holds one =="
PROFILE='{"profile": {"age": 29, "household": 1, "income": 48000, "debt": 1900, "seniority": 4, "amount": 30000}}'
declare -A SESSION_OF # shard name -> session id
PLACED=0
for _ in $(seq 1 30); do
  [ "$PLACED" -eq 3 ] && break
  CREATE=$(curl -sf -X POST "$ROUTER/api/sessions" -H 'Content-Type: application/json' -d "$PROFILE") \
    || fail "session creation through router failed"
  SID=$(printf '%s' "$CREATE" | sed -n 's/.*"id":"\(s-[0-9a-f]*\)".*/\1/p')
  [ -n "$SID" ] || fail "no session id in create response: $CREATE"
  OWNER=$(curl -sf "$ROUTER/admin/owner?id=$SID" | sed -n 's/.*"shard":"\([^"]*\)".*/\1/p')
  [ -n "$OWNER" ] || fail "router could not name an owner for $SID"
  if [ -z "${SESSION_OF[$OWNER]:-}" ]; then
    SESSION_OF[$OWNER]="$SID"
    PLACED=$((PLACED + 1))
    echo "   $OWNER <- $SID"
  fi
done
[ "$PLACED" -eq 3 ] || fail "could not land a session on every shard (placed $PLACED)"

echo "== recording pre-failover answers (via router) =="
for name in "${NAMES[@]}"; do
  dump_session "$ROUTER" "${SESSION_OF[$name]}" "$WORK/pre-$name.txt" \
    || fail "pre-failover dump for shard $name failed"
done

echo "== asserting replication lag is drained on every primary =="
for i in 0 1 2; do
  ok=""
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${API_PORTS[$i]}/metrics" | grep -q '^jitd_replication_lag_sessions 0$'; then
      ok=1; break
    fi
    sleep 0.2
  done
  [ -n "$ok" ] || fail "shard ${NAMES[$i]} never drained its replication lag"
done

echo "== asserting every standby reports a connected replication feed =="
for i in 0 1 2; do
  ok=""
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${SB_PORTS[$i]}/metrics" | grep -q '^jitd_replica_connected 1$'; then
      ok=1; break
    fi
    sleep 0.2
  done
  [ -n "$ok" ] || fail "standby ${NAMES[$i]} /metrics never showed jitd_replica_connected 1"
done

VICTIM_IDX=1
VICTIM="${NAMES[$VICTIM_IDX]}"
VICTIM_SID="${SESSION_OF[$VICTIM]}"
VICTIM_PID=$(eval echo "\$PRI_PID_$VICTIM_IDX")

echo "== kill -9 shard $VICTIM (pid $VICTIM_PID) =="
kill -9 "$VICTIM_PID"

echo "== dead shard must answer 503 with Retry-After, not hang =="
ok=""
for _ in $(seq 1 60); do
  HDRS=$(curl -s -m 10 -D - -o /dev/null "$ROUTER/api/sessions/$VICTIM_SID/inputs" || true)
  if printf '%s' "$HDRS" | grep -q '^HTTP/[0-9.]* 503' \
     && printf '%s' "$HDRS" | grep -qi '^Retry-After:'; then
    ok=1; break
  fi
  sleep 0.5
done
[ -n "$ok" ] || fail "router never turned the dead shard into a 503 + Retry-After"

echo "== unrelated shards keep answering identically =="
for name in "${NAMES[@]}"; do
  [ "$name" = "$VICTIM" ] && continue
  dump_session "$ROUTER" "${SESSION_OF[$name]}" "$WORK/mid-$name.txt" \
    || fail "shard $name stopped answering while $VICTIM is down"
  diff -u "$WORK/pre-$name.txt" "$WORK/mid-$name.txt" >/dev/null \
    || fail "shard $name answers drifted while $VICTIM is down"
done

echo "== promoting $VICTIM's standby =="
PROMOTE=$(curl -sf -X POST "http://127.0.0.1:${SB_PORTS[$VICTIM_IDX]}/admin/promote") \
  || fail "promotion request failed"
printf '%s' "$PROMOTE" | grep -q '"promoted":true' || fail "promotion not confirmed: $PROMOTE"

echo "== re-pointing the shard map at the promoted standby and reloading =="
cat >"$CONFIG" <<EOF
{"shards": [
  {"name": "s0", "addr": "127.0.0.1:${API_PORTS[0]}", "standby": "127.0.0.1:${SB_PORTS[0]}"},
  {"name": "s1", "addr": "127.0.0.1:${SB_PORTS[1]}"},
  {"name": "s2", "addr": "127.0.0.1:${API_PORTS[2]}", "standby": "127.0.0.1:${SB_PORTS[2]}"}
]}
EOF
curl -sf -X POST "$ROUTER/admin/reload" >/dev/null || fail "router reload failed"
wait_url "$ROUTER/api/sessions/$VICTIM_SID/inputs" "failed-over shard $VICTIM"

echo "== recording post-failover answers (via router) =="
for name in "${NAMES[@]}"; do
  dump_session "$ROUTER" "${SESSION_OF[$name]}" "$WORK/post-$name.txt" \
    || fail "post-failover dump for shard $name failed"
done

for name in "${NAMES[@]}"; do
  diff -u "$WORK/pre-$name.txt" "$WORK/post-$name.txt" \
    || fail "shard $name answers/candidate rows not byte-identical across failover"
done

echo "PASS: 3-shard failover — ${SESSION_OF[$VICTIM]} survived kill -9 of $VICTIM byte-for-byte on its standby"
