#!/usr/bin/env bash
# Smoke test for iddserver: start the service, POST a reduced TPC-H
# instance, and assert a proved-optimal response plus healthy metrics;
# then exercise the batch endpoint, a short multi-tenant iddload burst
# (zero errors required), and the per-tenant Prometheus series. Ends
# with a 2-process cluster round-trip: two peered servers, a solve
# submitted to the non-owning node must be forwarded to its ring owner
# and the replicated result served from the other node's cache, and a
# short iddload run through one node must see zero errors.
# Used by CI and runnable locally: ./scripts/service_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
server_pid="" node1_pid="" node2_pid=""
trap 'kill "$server_pid" "$node1_pid" "$node2_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/iddgen" ./cmd/iddgen
go build -o "$workdir/iddserver" ./cmd/iddserver

"$workdir/iddgen" -dataset tpch -reduce 12 -density low -o "$workdir/r12.json"

addr=127.0.0.1:18423
"$workdir/iddserver" -addr "$addr" -workers 2 -budget 5s -max-budget 30s \
  > "$workdir/server.log" 2>&1 &
server_pid=$!

# Wait for /healthz.
for _ in $(seq 1 50); do
  if curl -sf "http://$addr/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -sf "http://$addr/healthz" | grep -q '"status": "ok"'

# Sync solve of the reduced TPC-H instance must come back proved optimal.
printf '{"instance": %s, "budget": "20s"}' "$(cat "$workdir/r12.json")" \
  > "$workdir/request.json"
curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/request.json" "http://$addr/solve" > "$workdir/result.json"
grep -q '"proved": true' "$workdir/result.json"
grep -q '"order"' "$workdir/result.json"

# Bare instance JSON with curl's default content type also works.
curl -sf -X POST --data-binary @"$workdir/r12.json" \
  "http://$addr/solve?budget=20s" | grep -q '"proved": true'

# The identical request again: must be served from the cache.
curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/request.json" "http://$addr/solve" > "$workdir/cached.json"
grep -q '"cache_hit": true' "$workdir/cached.json"

# Metrics: one underlying solve, both resubmissions served from cache.
curl -sf "http://$addr/metrics" > "$workdir/metrics.json"
grep -q '"hits": 2' "$workdir/metrics.json"
grep -q '"count": 1' "$workdir/metrics.json"

# Async path: submit a job, follow it to completion, check its SSE log.
job_id=$(curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/request.json" "http://$addr/jobs" |
  sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -1)
test -n "$job_id"
curl -sf --max-time 30 "http://$addr/jobs/$job_id/events" > "$workdir/events.txt"
grep -q '^event: done' "$workdir/events.txt"

# Flight recorder: a structurally distinct solve (no cache entry, no
# structural-hash warm hint) must leave a trace that replays the full
# span timeline, including a non-empty incumbent curve with objectives.
"$workdir/iddgen" -dataset tpch -reduce 11 -density low -o "$workdir/r11.json"
job2_id=$(printf '{"instance": %s, "budget": "19s"}' "$(cat "$workdir/r11.json")" |
  curl -sf -X POST -H 'Content-Type: application/json' --data-binary @- \
    "http://$addr/jobs" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -1)
test -n "$job2_id"
curl -sf --max-time 30 "http://$addr/jobs/$job2_id/events" > /dev/null # returns at terminal event
curl -sf "http://$addr/jobs/$job2_id/trace" > "$workdir/trace.json"
grep -q '"kind": "queued"' "$workdir/trace.json"
grep -q '"kind": "started"' "$workdir/trace.json"
grep -q '"kind": "backend-start"' "$workdir/trace.json"
grep -q '"kind": "incumbent"' "$workdir/trace.json"
grep -q '"kind": "done"' "$workdir/trace.json"
grep -q '"objective"' "$workdir/trace.json"

# The same instance under a different budget and an explicit backend
# misses the solution cache and, since it names its backends, skips the
# proved-result lookup (taken only for the default selection); it still
# shares its structural hash, so the warm-hint table must seed the
# re-solve with the first solve's order, leaving a warm-start span.
job3_id=$(printf '{"instance": %s, "budget": "19s", "backends": ["cp"]}' "$(cat "$workdir/r12.json")" |
  curl -sf -X POST -H 'Content-Type: application/json' --data-binary @- \
    "http://$addr/jobs" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -1)
test -n "$job3_id"
curl -sf --max-time 30 "http://$addr/jobs/$job3_id/events" > /dev/null
curl -sf "http://$addr/jobs/$job3_id/trace" > "$workdir/trace3.json"
grep -q '"kind": "warm-start"' "$workdir/trace3.json"
grep -q 'structural-hash hint' "$workdir/trace3.json"

# The same /metrics endpoint speaks the Prometheus text exposition format
# when asked, with well-formed histogram series.
curl -sf -H 'Accept: text/plain' "http://$addr/metrics" > "$workdir/metrics.prom"
grep -q '^# TYPE idd_queue_wait_seconds histogram$' "$workdir/metrics.prom"
grep -q '^# TYPE idd_solve_wall_seconds histogram$' "$workdir/metrics.prom"
grep -q '^# TYPE idd_request_duration_seconds histogram$' "$workdir/metrics.prom"
grep -q '^idd_solves_total 3$' "$workdir/metrics.prom"
grep -q 'idd_solve_wall_seconds_bucket{le="+Inf"} 3' "$workdir/metrics.prom"
grep -q '^idd_backend_wins_total{backend=' "$workdir/metrics.prom"
# Two sync cache hits plus the async resubmission of the same request.
grep -q '^idd_cache_hits_total 3$' "$workdir/metrics.prom"

# Batch endpoint: two instances in one request, tagged with a tenant.
# The SSE stream returns at the terminal batch_done event; every item
# must land done with an objective.
printf '{"instances": [%s, %s], "budget": "20s"}' \
  "$(cat "$workdir/r12.json")" "$(cat "$workdir/r12.json")" > "$workdir/batch.json"
batch_id=$(curl -sf -X POST -H 'Content-Type: application/json' -H 'X-Tenant: smoke-batch' \
  --data @"$workdir/batch.json" "http://$addr/batch" |
  sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -1)
test -n "$batch_id"
curl -sf --max-time 60 "http://$addr/batch/$batch_id/events" > "$workdir/batch_events.txt"
grep -q '^event: item' "$workdir/batch_events.txt"
grep -q '^event: batch_done' "$workdir/batch_events.txt"
curl -sf "http://$addr/batch/$batch_id" > "$workdir/batch_status.json"
grep -q '"state": "done"' "$workdir/batch_status.json"
grep -q '"objective"' "$workdir/batch_status.json"
curl -sf "http://$addr/batch/$batch_id/trace" | grep -q '"kind": "queued"'

# Serving load burst: a short open-loop iddload run against the live
# server must complete with zero errors (-max-error-rate 0 exits 2
# otherwise).
go build -o "$workdir/iddload" ./cmd/iddload
"$workdir/iddload" -target "http://$addr" -duration 3s -rate 20 -tenants 3 \
  -small-frac 1 -budget 2s -max-error-rate 0 2> "$workdir/iddload.log" ||
  { cat "$workdir/iddload.log" >&2; exit 1; }

# After real multi-tenant traffic the Prometheus scrape must carry
# non-empty per-tenant series, batch counters, and fast-path routing
# telemetry.
curl -sf "http://$addr/metrics?format=prometheus" > "$workdir/metrics2.prom"
grep -q '^idd_tenant_jobs_submitted_total{tenant="tenant-0"}' "$workdir/metrics2.prom"
grep -q '^idd_tenant_jobs_completed_total{tenant="smoke-batch"} 2$' "$workdir/metrics2.prom"
grep -q '^idd_tenant_queue_wait_seconds_count{tenant=' "$workdir/metrics2.prom"
grep -q '^idd_batches_submitted_total 1$' "$workdir/metrics2.prom"
grep -q '^idd_batch_items_total 2$' "$workdir/metrics2.prom"
grep -q '^idd_fastpath_routed_total{backend=' "$workdir/metrics2.prom"

# Re-solve session round-trip: create a session from the reduced TPC-H
# instance, apply a weight-only delta (must re-solve warm-started from
# the prior plan), close it, and replay the event stream — which must
# carry the initial plan, the delta's changed tail, and the terminal
# session_closed event.
session_id=$(curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/request.json" "http://$addr/sessions" |
  sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -1)
test -n "$session_id"
curl -sf "http://$addr/sessions/$session_id" > "$workdir/session.json"
grep -q '"state": "active"' "$workdir/session.json"
grep -q '"plan"' "$workdir/session.json"

qname=$(python3 -c "import json; print(json.load(open('$workdir/r12.json'))['queries'][0]['name'])")
printf '{"weights": {"%s": 2.5}}' "$qname" > "$workdir/delta.json"
curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/delta.json" "http://$addr/sessions/$session_id/delta" \
  > "$workdir/delta_result.json"
grep -q '"revision": 1' "$workdir/delta_result.json"
grep -q '"warm_started": true' "$workdir/delta_result.json"
grep -q '"tail_from"' "$workdir/delta_result.json"

curl -sf -X DELETE "http://$addr/sessions/$session_id" |
  grep -q '"state": "closed"'
curl -sf --max-time 30 "http://$addr/sessions/$session_id/events" \
  > "$workdir/session_events.txt"
grep -q '^event: plan' "$workdir/session_events.txt"
grep -q '^event: delta' "$workdir/session_events.txt"
grep -q '^event: session_closed' "$workdir/session_events.txt"

# Session counters land in the Prometheus scrape.
curl -sf "http://$addr/metrics?format=prometheus" > "$workdir/metrics3.prom"
grep -q '^idd_sessions_created_total 1$' "$workdir/metrics3.prom"
grep -q '^idd_session_deltas_total 1$' "$workdir/metrics3.prom"
grep -q '^idd_warm_starts_total [1-9]' "$workdir/metrics3.prom"
grep -q '^idd_warm_hint_hits_total [1-9]' "$workdir/metrics3.prom"

# Graceful shutdown on SIGTERM.
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

# Cluster round-trip: two peered server processes. A solve posted to
# whichever node does NOT own the instance's hash must be forwarded to
# the owner; re-posting to the other node must then hit the replicated
# or owner-side cache. Either way both nodes return the same objective.
addr1=127.0.0.1:18431
addr2=127.0.0.1:18432
peers="http://$addr1,http://$addr2"
"$workdir/iddserver" -addr "$addr1" -advertise "http://$addr1" -peers "$peers" \
  -workers 1 -budget 5s -max-budget 30s -gossip-interval 200ms \
  > "$workdir/node1.log" 2>&1 &
node1_pid=$!
"$workdir/iddserver" -addr "$addr2" -advertise "http://$addr2" -peers "$peers" \
  -workers 1 -budget 5s -max-budget 30s -gossip-interval 200ms \
  > "$workdir/node2.log" 2>&1 &
node2_pid=$!

# Wait until each node's /healthz reports its peer up (the cluster
# healthz is compact JSON, no space after the colon).
for a in "$addr1" "$addr2"; do
  for _ in $(seq 1 100); do
    if curl -sf "http://$a/healthz" 2>/dev/null | grep -q '"state":"up"'; then break; fi
    sleep 0.2
  done
  curl -sf "http://$a/healthz" | grep -q '"state":"up"'
done

# Same instance to both nodes: identical proved result, and the second
# submission must be answered from a cache (forwarded single-flight or
# replicated locally), not re-solved.
curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/request.json" "http://$addr1/solve" > "$workdir/c1.json"
grep -q '"proved": true' "$workdir/c1.json"
curl -sf -X POST -H 'Content-Type: application/json' \
  --data @"$workdir/request.json" "http://$addr2/solve" > "$workdir/c2.json"
grep -q '"proved": true' "$workdir/c2.json"
grep -q '"cache_hit": true' "$workdir/c2.json"
obj1=$(python3 -c "import json; print(json.load(open('$workdir/c1.json'))['objective'])")
obj2=$(python3 -c "import json; print(json.load(open('$workdir/c2.json'))['objective'])")
test "$obj1" = "$obj2"

# Exactly one of the two nodes owns the instance: across both nodes the
# forward counter must show the non-owner handing the request over, and
# the cluster gauges must be in the Prometheus scrape.
curl -sf "http://$addr1/metrics?format=prometheus" > "$workdir/n1.prom"
curl -sf "http://$addr2/metrics?format=prometheus" > "$workdir/n2.prom"
grep -q '^idd_cluster_peers_up 1$' "$workdir/n1.prom"
grep -q '^idd_cluster_peers_up 1$' "$workdir/n2.prom"
fwd=$(awk '/^idd_cluster_forwards_total /{s+=$2} END{print s+0}' "$workdir/n1.prom" "$workdir/n2.prom")
test "$fwd" -ge 1

# Load through the cluster: an open-loop iddload run against one member,
# which forwards each request to its ring owner, must complete with zero
# errors.
"$workdir/iddload" -target "http://$addr1" -duration 3s -rate 20 \
  -max-error-rate 0 2> "$workdir/iddload_cluster.log" ||
  { cat "$workdir/iddload_cluster.log" >&2; exit 1; }

kill -TERM "$node1_pid" "$node2_pid"
wait "$node1_pid" "$node2_pid"
node1_pid="" node2_pid=""

echo "service smoke: OK"
