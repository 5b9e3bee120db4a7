#!/usr/bin/env bash
# Multi-process deployment smoke: the CI rehearsal of a real e-PPI rollout.
#
# Spawns one eppi_cli OS process per provider (m=4) on loopback, with every
# inter-party link routed through eppi_chaos_proxy applying mild TCP-level
# shaping (delay + split writes), then:
#
#   1. runs the full fault-tolerant distributed construction to completion,
#   2. scrapes each party's Prometheus endpoint and asserts zero secsum
#      aborts (shaping must not cost a single degraded epoch),
#   3. SIGTERMs the lingering parties and requires a clean drain (exit 0),
#      then merges the four per-party trace exports and gates on the wire
#      context propagation: >= 1 cross-process parent-child edge, ZERO
#      causality violations after clock-offset estimation, and a replayed
#      per-phase byte total exactly equal to the parties' summed CostMeter
#      ground truth — with the compute/wait decomposition and critical path
#      present in the replay table,
#   4. stands up `eppi_cli serve --listen` on the same collection and runs a
#      batched /query POST against it, checking the true positives; then
#      two /query requests over one `Connection: keep-alive` connection
#      (both answered, the socket kept) and an oversize POST, which must be
#      refused with 413,
#   5. rehearses membership churn: a locator daemon is SIGKILLed mid-churn
#      (a provider retirement posted but the epoch not yet rebuilt), a fresh
#      daemon takes over, the same churn replays against it plus a brand-new
#      provider joining, and POST /rebuild must publish the next epoch via
#      the DELTA path — the leaver gone from every answer, the joiner
#      serving its owner,
#   6. tears the daemons and the proxy down, again requiring exit 0.
#
# Usage: scripts/multiprocess_smoke.sh [build-dir]   (default: ./build)
# Needs: bash, python3 (stdlib only). Exits nonzero on any failed gate.
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
cli="$build/tools/eppi_cli"
proxy_bin="$build/tools/eppi_chaos_proxy"
for bin in "$cli" "$proxy_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "multiprocess_smoke: missing $bin (build the default preset first)" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
pids=()
cleanup() {
  # Best-effort: anything still alive at exit gets killed hard.
  for pid in "${pids[@]:-}"; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "multiprocess_smoke: FAIL: $*" >&2; exit 1; }

http_get() {  # port path -> body on stdout
  python3 -c '
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}{sys.argv[2]}"
sys.stdout.write(urllib.request.urlopen(url, timeout=5).read().decode())
' "$1" "$2"
}

http_post() {  # port path body -> response on stdout
  python3 -c '
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}{sys.argv[2]}"
req = urllib.request.Request(url, data=sys.argv[3].encode())
sys.stdout.write(urllib.request.urlopen(req, timeout=5).read().decode())
' "$1" "$2" "$3"
}

wait_for() {  # seconds "description" command...
  local deadline=$(( $(date +%s) + $1 )); shift
  local what="$1"; shift
  until "$@" >/dev/null 2>&1; do
    (( $(date +%s) < deadline )) || fail "timed out waiting for $what"
    sleep 0.2
  done
}

# ---------------------------------------------------------------- topology --
# Four providers; alice/bob/carol/dave give every party at least one claim
# and 'alice' two true providers for the query gate at the end.
csv="$workdir/collection.csv"
cat > "$csv" <<'EOF'
general,alice
general,bob
mercy,alice
mercy,carol
lakeside,carol
lakeside,dave
county,carol
county,bob
EOF

m=4
base=$(( 21000 + RANDOM % 8000 ))
real=$base                 # ports the parties actually listen on
proxied=$(( base + 10 ))   # ports peers dial (fronted by the chaos proxy)
metrics=$(( base + 20 ))   # per-party Prometheus endpoints
serve_port=$(( base + 30 ))

hosts="$workdir/hosts"
: > "$hosts"
for (( i = 0; i < m; i++ )); do
  echo "127.0.0.1:$(( proxied + i ))" >> "$hosts"
done

# ------------------------------------------------------------- chaos proxy --
# Mild shaping only: this gate proves shaped links don't cost correctness;
# the hostile scenarios (reset, blackhole) live in ctest -L fault.
"$proxy_bin" \
  --route "$(( proxied + 0 )):127.0.0.1:$(( real + 0 )):0" \
  --route "$(( proxied + 1 )):127.0.0.1:$(( real + 1 )):1" \
  --route "$(( proxied + 2 )):127.0.0.1:$(( real + 2 )):2" \
  --route "$(( proxied + 3 )):127.0.0.1:$(( real + 3 )):3" \
  --scenario "link 1->0: delay=1..3ms; link 2->3: split=96" --seed 7 \
  2> "$workdir/proxy.err" &
proxy_pid=$!
pids+=("$proxy_pid")

# ----------------------------------------------------------------- parties --
declare -a party_pid
# The trace ring is sized up so per-message net.recv spans survive until the
# post-drain export (the 8192-slot default is tuned for phase spans only).
for (( i = m - 1; i >= 0; i-- )); do
  EPPI_TRACE_RING=65536 \
  "$cli" party "$csv" --id "$i" --host-file "$hosts" \
    --listen-port "$(( real + i ))" --metrics-port "$(( metrics + i ))" \
    --ft --c 2 --seed 5 --linger --trace "$workdir/trace$i.jsonl" \
    > "$workdir/party$i.out" 2> "$workdir/party$i.err" &
  party_pid[$i]=$!
  pids+=("${party_pid[$i]}")
done

for (( i = 0; i < m; i++ )); do
  wait_for 30 "party $i construction" \
    grep -q "construction complete" "$workdir/party$i.err"
done
echo "multiprocess_smoke: construction complete on all $m parties"

# Published claims must surface the true memberships (party 0 = general).
grep -q 'general,alice' "$workdir/party0.out" \
  || fail "party 0 did not publish general,alice"
grep -q 'mercy,carol' "$workdir/party1.out" \
  || fail "party 1 did not publish mercy,carol"

# -------------------------------------------------------- zero-abort gate --
# The counter is registered lazily on first secsum round, so it must exist
# after construction; any nonzero sample means shaping cost us an epoch.
for (( i = 0; i < m; i++ )); do
  scrape="$(http_get "$(( metrics + i ))" /metrics)" \
    || fail "scraping party $i metrics"
  aborts="$(printf '%s\n' "$scrape" \
            | awk '$1 == "eppi_secsum_aborts_total" { print $2 }')"
  [[ -n "$aborts" ]] || fail "party $i exposes no eppi_secsum_aborts_total"
  [[ "$aborts" == "0" ]] \
    || fail "party $i reports $aborts secsum aborts (expected 0)"
done
echo "multiprocess_smoke: all $m parties report zero secsum aborts"

# ------------------------------------------------------------- clean drain --
for (( i = 0; i < m; i++ )); do kill -TERM "${party_pid[$i]}"; done
for (( i = 0; i < m; i++ )); do
  wait "${party_pid[$i]}" || fail "party $i exited nonzero after SIGTERM"
done
echo "multiprocess_smoke: all parties drained cleanly on SIGTERM"

# ------------------------------------------- distributed trace merge gates --
# Join the four per-process exports into one causal timeline. The merge must
# reconstruct real cross-process parent-child edges from the v3 wire context
# (or propagation is broken), and after clock-offset estimation no message
# may appear received before it was sent.
total_bytes=0
for (( i = 0; i < m; i++ )); do
  [[ -s "$workdir/trace$i.jsonl" ]] || fail "party $i wrote no trace export"
  bytes="$(sed -n 's/^cost: bytes=\([0-9]*\).*/\1/p' "$workdir/party$i.err")"
  [[ -n "$bytes" ]] || fail "party $i printed no CostMeter cost line"
  total_bytes=$(( total_bytes + bytes ))
done
merged="$workdir/merged.jsonl"
"$cli" trace merge "$merged" \
    "$workdir"/trace0.jsonl "$workdir"/trace1.jsonl \
    "$workdir"/trace2.jsonl "$workdir"/trace3.jsonl \
    --require-edges 8 --max-violations 0 \
    > "$workdir/merge.out" 2>&1 \
  || fail "trace merge gate: $(cat "$workdir/merge.out")"
sed 's/^/multiprocess_smoke:   /' "$workdir/merge.out"
echo "multiprocess_smoke: merged trace has cross-process edges, zero causality violations"

# The merged trace must replay to the parties' summed CostMeter ground
# truth exactly, and carry the compute/wait decomposition + critical path.
replay="$workdir/replay.out"
"$cli" trace "$merged" --expect-bytes "$total_bytes" > "$replay" 2>&1 \
  || fail "merged replay did not match CostMeter bytes=$total_bytes: $(cat "$replay")"
grep -q 'compute_ms' "$replay" || fail "replay table lacks compute/wait decomposition"
grep -q 'critical path:' "$replay" || fail "replay table lacks the critical path"
echo "multiprocess_smoke: merged replay matches CostMeter ($total_bytes bytes) with critical path"

# --------------------------------------------------- serve + batched query --
"$cli" serve "$csv" --listen "$serve_port" 2> "$workdir/serve.err" &
serve_pid=$!
pids+=("$serve_pid")
wait_for 15 "serve daemon" http_get "$serve_port" /healthz

answer="$(http_post "$serve_port" /query $'alice\ncarol\nbob')"
for expect in 'alice,general' 'alice,mercy' 'carol,lakeside' 'bob,county'; do
  grep -q "$expect" <<< "$answer" \
    || fail "batched query missing $expect (got: $(tr '\n' ' ' <<< "$answer"))"
done
http_get "$serve_port" /metrics | grep -q '^eppi_' \
  || fail "serve daemon exposes no eppi_ metrics"
echo "multiprocess_smoke: batched query answered with true positives"

python3 - "$serve_port" <<'PY' || fail "keep-alive queries or the 413 bound misbehaved"
import http.client, sys
conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=5)
socks = []
for owner in ("alice", "carol"):
    conn.request("GET", "/query?owner=" + owner,
                 headers={"Connection": "keep-alive"})
    resp = conn.getresponse()
    body = resp.read().decode()
    assert resp.status == 200, (resp.status, body)
    assert resp.getheader("Connection") == "keep-alive", resp.getheaders()
    assert body.startswith(owner + ","), body
    socks.append(conn.sock)
assert socks[0] is socks[1] and socks[0] is not None, "connection not kept"
conn.close()
big = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=5)
big.request("POST", "/delegate", body=b"x" * (2 << 20))
resp = big.getresponse()
assert resp.status == 413, resp.status
big.close()
PY
echo "multiprocess_smoke: two queries over one kept connection; oversize POST refused 413"

kill -TERM "$serve_pid"
wait "$serve_pid" || fail "serve daemon exited nonzero after SIGTERM"

# -------------------------------------------------------- membership churn --
# Kill a locator hard mid-churn, then prove a fresh one completes the same
# churn: lakeside leaves, newclinic joins with dave's delegation, and the
# next epoch must publish through the incremental (delta) protocol.
churn_port=$(( base + 31 ))
"$cli" serve "$csv" --listen "$churn_port" 2> "$workdir/churn1.err" &
churn_pid=$!
pids+=("$churn_pid")
wait_for 15 "churn daemon" http_get "$churn_port" /healthz
http_post "$churn_port" /retire 'lakeside' | grep -q 'retired 1' \
  || fail "first churn daemon refused the retirement"
kill -KILL "$churn_pid"      # the locator host dies before the rebuild
wait "$churn_pid" 2>/dev/null || true
echo "multiprocess_smoke: locator killed mid-churn (retirement unpublished)"

churn_port=$(( base + 32 ))
"$cli" serve "$csv" --listen "$churn_port" 2> "$workdir/churn2.err" &
churn_pid=$!
pids+=("$churn_pid")
wait_for 15 "replacement churn daemon" http_get "$churn_port" /healthz
http_post "$churn_port" /retire 'lakeside' | grep -q 'retired 1' \
  || fail "replacement daemon refused the retirement"
http_post "$churn_port" /delegate 'dave,0.6,newclinic' \
  | grep -q 'delegated 1' || fail "replacement daemon refused the join"
rebuild="$(http_post "$churn_port" /rebuild '')"
grep -q 'epoch=2 delta=1 degraded=0' <<< "$rebuild" \
  || fail "churn epoch did not publish via the delta path (got: $rebuild)"
grep -Eq 'joined=1 left=1' <<< "$rebuild" \
  || fail "churn epoch miscounted membership (got: $rebuild)"
answer="$(http_post "$churn_port" /query $'carol\ndave')"
grep -q 'lakeside' <<< "$answer" \
  && fail "retired provider still served after churn epoch"
grep -q 'dave,newclinic' <<< "$answer" \
  || fail "joined provider missing from churn epoch answers"
echo "multiprocess_smoke: churn epoch published via delta (leave + join)"

kill -TERM "$churn_pid"
wait "$churn_pid" || fail "churn daemon exited nonzero after SIGTERM"

kill -TERM "$proxy_pid"
wait "$proxy_pid" || fail "chaos proxy exited nonzero after SIGTERM"

echo "multiprocess_smoke: PASS"
