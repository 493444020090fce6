#!/bin/sh
# Hermetic CI: the whole workspace must build, test and stay formatted with
# no network access and no crates-io dependencies (see DESIGN.md §2).
set -eux

cd "$(dirname "$0")"

cargo build --workspace --release --offline
cargo test --workspace -q --offline
cargo fmt --check
# Lint gate: deny-level clippy lints (correctness bugs such as always-true
# comparisons) fail the build; warn-level lints are reported, not fatal.
cargo clippy --workspace --all-targets -q --offline

# SIMD tier matrix: the linalg kernel suite and the nn_seed7 golden fixture
# must hold bit-for-bit under every dispatch tier. TROUT_SIMD clamps down to
# the host's best tier (DESIGN §13), so the loop is valid on any machine —
# on an SSE2-only box the avx2 leg simply re-runs the sse2 kernels.
for tier in scalar sse2 avx2; do
    TROUT_SIMD="$tier" cargo test -q --offline -p trout-linalg
    TROUT_SIMD="$tier" cargo test -q --offline -p trout-ml --test golden_nn
done

# Serve protocol smoke: flatten a small trace into a ~200-line ndjson replay
# script, pipe it through the daemon, and require one well-formed ok-response
# per request line plus a clean exit. A Prometheus-format metrics request is
# spliced in before shutdown so both exposition formats are exercised.
serve_tmp=$(mktemp -d)
./target/release/trout simulate --jobs 60 --seed 7 --out "$serve_tmp/trace.csv"
./target/release/trout events --trace "$serve_tmp/trace.csv" --predict-every 5 \
    --out "$serve_tmp/events.ndjson"
sed -i 's/^{"event":"metrics"}$/{"event":"metrics"}\n{"event":"metrics","format":"prometheus"}/' \
    "$serve_tmp/events.ndjson"
./target/release/trout serve --bootstrap 300 --stdin \
    < "$serve_tmp/events.ndjson" > "$serve_tmp/responses.ndjson"
requests=$(wc -l < "$serve_tmp/events.ndjson")
responses=$(wc -l < "$serve_tmp/responses.ndjson")
test "$requests" -ge 190 && test "$requests" -eq "$responses"
test "$(grep -c '^{"ok":' "$serve_tmp/responses.ndjson")" -eq "$responses"
if grep -q '"ok":false' "$serve_tmp/responses.ndjson"; then
    echo "serve smoke: unexpected error responses" >&2
    exit 1
fi
# The JSON metrics dump must show served predictions and the drift monitor;
# the Prometheus dump must carry the drift gauges in exposition syntax.
grep '"event":"metrics","metrics"' "$serve_tmp/responses.ndjson" \
    | grep -q '"predicts":[1-9]'
grep '"event":"metrics","metrics"' "$serve_tmp/responses.ndjson" \
    | grep -q '"drift":{"joined":'
grep '"format":"prometheus"' "$serve_tmp/responses.ndjson" \
    | grep -q 'trout_serve_drift_mae_min'
grep '"format":"prometheus"' "$serve_tmp/responses.ndjson" \
    | grep -q 'trout_serve_predicts_total'
# v1 back-compat: the PR 7 v2 envelope (lanes, deadlines) must be invisible
# to v1 clients — not one response line may carry a lane echo.
if grep -q '"lane"' "$serve_tmp/responses.ndjson"; then
    echo "serve smoke: v1 responses grew a lane member" >&2
    exit 1
fi
rm -rf "$serve_tmp"

# Overload smoke: a deliberately starved scheduler (one prediction estimated
# at 200 ms against a 400 ms normal budget admits at most two in flight)
# must shed a v2 predict flood with typed overloaded+retry_after_ms errors,
# while urgent requests on a generous budget sail past the normal backlog
# with zero SLO violations.
ovl_tmp=$(mktemp -d)
{
    for k in $(seq 1 20); do
        printf '{"event":"submit","job":{"id":%d,"user":1,"partition":0,"submit_time":1000,"req_cpus":4,"req_mem_gb":8,"req_nodes":1,"timelimit_min":30}}\n' "$k"
    done
    for k in $(seq 1 20); do
        printf '{"v":2,"event":"predict","id":%d,"time":1060,"lane":"normal"}\n' "$k"
    done
    for k in $(seq 1 5); do
        printf '{"v":2,"event":"predict","id":%d,"time":1060,"lane":"urgent"}\n' "$k"
    done
    printf '{"event":"metrics"}\n{"event":"shutdown"}\n'
} > "$ovl_tmp/events.ndjson"
./target/release/trout serve --bootstrap 300 --stdin \
    --est-predict-us 200000 --deadline-ms 400 --urgent-deadline-ms 10000 \
    < "$ovl_tmp/events.ndjson" > "$ovl_tmp/responses.ndjson"
test "$(wc -l < "$ovl_tmp/events.ndjson")" -eq "$(wc -l < "$ovl_tmp/responses.ndjson")"
# The flood shed: typed errors with a retry hint, and the admission section
# of the metrics dump counts them under the normal lane.
grep -q '"error":"overloaded' "$ovl_tmp/responses.ndjson"
grep '"error":"overloaded' "$ovl_tmp/responses.ndjson" | grep -q '"retry_after_ms":[1-9]'
grep '"event":"metrics"' "$ovl_tmp/responses.ndjson" | grep -q '"shed_total":[1-9]'
# Every admitted urgent predict answered with its lane echo, inside budget.
test "$(grep -c '"lane":"urgent"' "$ovl_tmp/responses.ndjson")" -eq 5
grep '"event":"metrics"' "$ovl_tmp/responses.ndjson" \
    | grep -q '"slo_violations":{"urgent":0'
rm -rf "$ovl_tmp"

# Tracing smoke: traced v2 predicts must echo 16-hex trace ids, the flight
# recorder must return a per-stage breakdown, and both metrics dumps must
# carry the SLO burn-rate telemetry (JSON section + Prometheus gauges).
tr_tmp=$(mktemp -d)
{
    for k in $(seq 1 10); do
        printf '{"event":"submit","job":{"id":%d,"user":1,"partition":0,"submit_time":1000,"req_cpus":4,"req_mem_gb":8,"req_nodes":1,"timelimit_min":30}}\n' "$k"
    done
    for k in $(seq 1 10); do
        printf '{"v":2,"event":"predict","id":%d,"time":1060,"trace":true}\n' "$k"
    done
    printf '{"event":"trace","last":8}\n'
    printf '{"event":"metrics"}\n'
    printf '{"event":"metrics","format":"prometheus"}\n'
    printf '{"event":"shutdown"}\n'
} > "$tr_tmp/events.ndjson"
./target/release/trout serve --bootstrap 300 --stdin \
    < "$tr_tmp/events.ndjson" > "$tr_tmp/responses.ndjson"
test "$(wc -l < "$tr_tmp/events.ndjson")" -eq "$(wc -l < "$tr_tmp/responses.ndjson")"
test "$(grep -c '"trace_id":"[0-9a-f]\{16\}"' "$tr_tmp/responses.ndjson")" -ge 10
trace_dump=$(grep '"event":"trace"' "$tr_tmp/responses.ndjson")
echo "$trace_dump" | grep -q '"count":8'
echo "$trace_dump" | grep -q '"parse_us":'
echo "$trace_dump" | grep -q '"inference_us":'
grep '"event":"metrics","metrics"' "$tr_tmp/responses.ndjson" \
    | grep -q '"burn":{"anchor_sec":'
grep '"format":"prometheus"' "$tr_tmp/responses.ndjson" \
    | grep -q 'trout_serve_burn_rate_fast_urgent'
grep '"format":"prometheus"' "$tr_tmp/responses.ndjson" \
    | grep -q 'trout_serve_trace_total_us'
rm -rf "$tr_tmp"

# Crash-recovery smoke: serve a replay script with a write-ahead state dir,
# SIGKILL the daemon halfway through, restart with --recover, feed the rest,
# and require the combined responses to be byte-identical to an uninterrupted
# run (metrics dumps compared on their deterministic drift section only —
# latency histograms legitimately differ across runs).
rec_tmp=$(mktemp -d)
./target/release/trout simulate --jobs 80 --seed 11 --out "$rec_tmp/trace.csv"
./target/release/trout events --trace "$rec_tmp/trace.csv" --predict-every 4 \
    --out "$rec_tmp/events.ndjson"
total=$(wc -l < "$rec_tmp/events.ndjson")
half=$((total / 2))
./target/release/trout serve --bootstrap 300 --seed 7 --stdin \
    < "$rec_tmp/events.ndjson" > "$rec_tmp/ref.ndjson"
mkfifo "$rec_tmp/pipe"
./target/release/trout serve --bootstrap 300 --seed 7 --stdin \
    --state-dir "$rec_tmp/state" \
    < "$rec_tmp/pipe" > "$rec_tmp/part1.ndjson" &
serve_pid=$!
exec 9> "$rec_tmp/pipe"
head -n "$half" "$rec_tmp/events.ndjson" >&9
for _ in $(seq 1 100); do
    test "$(wc -l < "$rec_tmp/part1.ndjson")" -eq "$half" && break
    sleep 0.1
done
test "$(wc -l < "$rec_tmp/part1.ndjson")" -eq "$half"
kill -9 "$serve_pid"
exec 9>&-
wait "$serve_pid" || true
test -s "$rec_tmp/state/shard-000/journal.ndjson"
tail -n +"$((half + 1))" "$rec_tmp/events.ndjson" \
    | ./target/release/trout serve --bootstrap 300 --seed 7 --stdin \
        --state-dir "$rec_tmp/state" --recover > "$rec_tmp/part2.ndjson"
cat "$rec_tmp/part1.ndjson" "$rec_tmp/part2.ndjson" > "$rec_tmp/combined.ndjson"
test "$(wc -l < "$rec_tmp/combined.ndjson")" -eq "$total"
grep -v '"event":"metrics"' "$rec_tmp/ref.ndjson" > "$rec_tmp/ref.events"
grep -v '"event":"metrics"' "$rec_tmp/combined.ndjson" > "$rec_tmp/got.events"
cmp "$rec_tmp/ref.events" "$rec_tmp/got.events"
dr_ref=$(grep -o '"drift":{"joined":[^}]*"confusion":{[^}]*}}' "$rec_tmp/ref.ndjson" | head -1)
dr_got=$(grep -o '"drift":{"joined":[^}]*"confusion":{[^}]*}}' "$rec_tmp/combined.ndjson" | head -1)
test -n "$dr_ref" && test "$dr_ref" = "$dr_got"
rm -rf "$rec_tmp"

# Sharded crash-recovery smoke: the same SIGKILL-halfway drill with
# --shards 2 — lifecycle events journal into every shard-NNN/ subdirectory,
# recovery must restore each shard, and the combined responses must be
# byte-identical to an uninterrupted 2-shard run.
sh_tmp=$(mktemp -d)
./target/release/trout simulate --jobs 80 --seed 11 --out "$sh_tmp/trace.csv"
./target/release/trout events --trace "$sh_tmp/trace.csv" --predict-every 4 \
    --out "$sh_tmp/events.ndjson"
total=$(wc -l < "$sh_tmp/events.ndjson")
half=$((total / 2))
./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 --stdin \
    < "$sh_tmp/events.ndjson" > "$sh_tmp/ref.ndjson"
mkfifo "$sh_tmp/pipe"
./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 --stdin \
    --state-dir "$sh_tmp/state" \
    < "$sh_tmp/pipe" > "$sh_tmp/part1.ndjson" &
serve_pid=$!
exec 9> "$sh_tmp/pipe"
head -n "$half" "$sh_tmp/events.ndjson" >&9
for _ in $(seq 1 100); do
    test "$(wc -l < "$sh_tmp/part1.ndjson")" -eq "$half" && break
    sleep 0.1
done
test "$(wc -l < "$sh_tmp/part1.ndjson")" -eq "$half"
kill -9 "$serve_pid"
exec 9>&-
wait "$serve_pid" || true
test -s "$sh_tmp/state/shard-000/journal.ndjson"
test -s "$sh_tmp/state/shard-001/journal.ndjson"
tail -n +"$((half + 1))" "$sh_tmp/events.ndjson" \
    | ./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 --stdin \
        --state-dir "$sh_tmp/state" --recover > "$sh_tmp/part2.ndjson"
cat "$sh_tmp/part1.ndjson" "$sh_tmp/part2.ndjson" > "$sh_tmp/combined.ndjson"
test "$(wc -l < "$sh_tmp/combined.ndjson")" -eq "$total"
grep -v '"event":"metrics"' "$sh_tmp/ref.ndjson" > "$sh_tmp/ref.events"
grep -v '"event":"metrics"' "$sh_tmp/combined.ndjson" > "$sh_tmp/got.events"
cmp "$sh_tmp/ref.events" "$sh_tmp/got.events"
rm -rf "$sh_tmp"

# One TCP transport, wire-identical to stdin: the same replay script served
# over `--listen` (the poll(2) reactor, with no --reactor flag) and over
# --stdin must get byte-identical responses, metrics dumps aside (latency
# histograms legitimately differ). bash provides the /dev/tcp client.
tcp_tmp=$(mktemp -d)
./target/release/trout simulate --jobs 80 --seed 11 --out "$tcp_tmp/trace.csv"
./target/release/trout events --trace "$tcp_tmp/trace.csv" --predict-every 4 \
    --out "$tcp_tmp/events.ndjson"
./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 --stdin \
    < "$tcp_tmp/events.ndjson" > "$tcp_tmp/stdin.ndjson"
./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 \
    --listen 127.0.0.1:29474 &
tcp_pid=$!
for _ in $(seq 1 100); do
    ./target/release/trout replicate --connect 127.0.0.1:29474 --json \
        > /dev/null 2>&1 && break
    sleep 0.1
done
# The script ends in shutdown, so the daemon closes the connection after
# the last response and the read side sees EOF.
bash -c "exec 3<>/dev/tcp/127.0.0.1/29474
cat '$tcp_tmp/events.ndjson' >&3
cat <&3 > '$tcp_tmp/tcp.ndjson'"
kill "$tcp_pid"
wait "$tcp_pid" || true
test "$(wc -l < "$tcp_tmp/events.ndjson")" -eq "$(wc -l < "$tcp_tmp/tcp.ndjson")"
grep -v '"event":"metrics"' "$tcp_tmp/stdin.ndjson" > "$tcp_tmp/stdin.events"
grep -v '"event":"metrics"' "$tcp_tmp/tcp.ndjson" > "$tcp_tmp/tcp.events"
cmp "$tcp_tmp/stdin.events" "$tcp_tmp/tcp.events"
rm -rf "$tcp_tmp"

# Replication smoke: a leader daemon streams its journals to a follower
# started from the same bootstrap, the follower serves read-only while
# streaming, the leader is SIGKILLed, and the promoted follower must answer
# {"event":"state"} byte-identical to the dead leader's dump at the same
# watermark — the cross-process version of the replication e2e tests.
# (bash provides the /dev/tcp client; the daemons themselves are dash-run.)
repl_tmp=$(mktemp -d)
./target/release/trout simulate --jobs 80 --seed 11 --out "$repl_tmp/trace.csv"
./target/release/trout events --trace "$repl_tmp/trace.csv" --predict-every 4 \
    --out "$repl_tmp/events.ndjson"
head -n -2 "$repl_tmp/events.ndjson" > "$repl_tmp/feed.ndjson" # no shutdown
nfeed=$(wc -l < "$repl_tmp/feed.ndjson")
./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 \
    --listen 127.0.0.1:29471 --state-dir "$repl_tmp/lstate" \
    --replicate-listen 127.0.0.1:29472 &
leader_pid=$!
./target/release/trout serve --bootstrap 300 --seed 7 --shards 2 \
    --listen 127.0.0.1:29473 --state-dir "$repl_tmp/fstate" \
    --follow 127.0.0.1:29472 &
follower_pid=$!
for _ in $(seq 1 100); do
    ./target/release/trout replicate --connect 127.0.0.1:29471 --json \
        > "$repl_tmp/repl.json" 2> /dev/null && break
    sleep 0.1
done
# Feed the script over TCP and capture the leader's canonical state dump.
bash -c "exec 3<>/dev/tcp/127.0.0.1/29471
cat '$repl_tmp/feed.ndjson' >&3
head -n $nfeed <&3 > '$repl_tmp/leader_responses.ndjson'
printf '{\"event\":\"state\"}\n' >&3
head -n 1 <&3 > '$repl_tmp/leader_state.json'"
test "$(wc -l < "$repl_tmp/leader_responses.ndjson")" -eq "$nfeed"
# Wait until the follower has acked the leader's watermark on every shard.
for _ in $(seq 1 100); do
    ./target/release/trout replicate --connect 127.0.0.1:29471 --json \
        > "$repl_tmp/repl.json"
    grep -q '"followers":1' "$repl_tmp/repl.json" \
        && ! grep -q '"lag":[1-9]' "$repl_tmp/repl.json" && break
    sleep 0.1
done
grep -q '"role":"leader"' "$repl_tmp/repl.json"
! grep -q '"lag":[1-9]' "$repl_tmp/repl.json"
./target/release/trout replicate --connect 127.0.0.1:29473 --json \
    > "$repl_tmp/frepl.json"
grep -q '"role":"follower"' "$repl_tmp/frepl.json"
# Mid-stream the follower is read-only: lifecycle writes are refused typed.
bash -c "exec 3<>/dev/tcp/127.0.0.1/29473
printf '{\"event\":\"start\",\"id\":999999,\"time\":1}\n' >&3
head -n 1 <&3 > '$repl_tmp/refused.json'"
grep -q '"ok":false' "$repl_tmp/refused.json"
grep -q 'read_only' "$repl_tmp/refused.json"
# Kill the leader abruptly and promote the standby over the wire.
kill -9 "$leader_pid"
wait "$leader_pid" || true
bash -c "exec 3<>/dev/tcp/127.0.0.1/29473
printf '{\"event\":\"promote\"}\n{\"event\":\"state\"}\n' >&3
head -n 2 <&3 > '$repl_tmp/promote_state.ndjson'"
grep -q '"was_follower":true' "$repl_tmp/promote_state.ndjson"
grep '"event":"state"' "$repl_tmp/promote_state.ndjson" \
    > "$repl_tmp/follower_state.json"
cmp "$repl_tmp/leader_state.json" "$repl_tmp/follower_state.json"
# The promoted daemon accepts lifecycle writes again (gate lifts within
# one follower poll tick).
for _ in $(seq 1 50); do
    bash -c "exec 3<>/dev/tcp/127.0.0.1/29473
printf '{\"event\":\"start\",\"id\":999999,\"time\":1}\n' >&3
head -n 1 <&3 > '$repl_tmp/after.json'"
    grep -q '"ok":' "$repl_tmp/after.json" \
        && ! grep -q 'read_only' "$repl_tmp/after.json" && break
    sleep 0.1
done
! grep -q 'read_only' "$repl_tmp/after.json"
kill -9 "$follower_pid"
wait "$follower_pid" || true
rm -rf "$repl_tmp"

# Compaction smoke: --compact keeps the on-disk journal bounded (one
# journal_base control line plus at most snapshot-every entries) while the
# SIGKILL-halfway recovery drill stays byte-identical to an uninterrupted
# run.
cpt_tmp=$(mktemp -d)
./target/release/trout simulate --jobs 80 --seed 11 --out "$cpt_tmp/trace.csv"
./target/release/trout events --trace "$cpt_tmp/trace.csv" --predict-every 4 \
    --out "$cpt_tmp/events.ndjson"
total=$(wc -l < "$cpt_tmp/events.ndjson")
half=$((total / 2))
./target/release/trout serve --bootstrap 300 --seed 7 --stdin \
    < "$cpt_tmp/events.ndjson" > "$cpt_tmp/ref.ndjson"
mkfifo "$cpt_tmp/pipe"
./target/release/trout serve --bootstrap 300 --seed 7 --stdin \
    --state-dir "$cpt_tmp/state" --snapshot-every 16 --compact \
    < "$cpt_tmp/pipe" > "$cpt_tmp/part1.ndjson" &
serve_pid=$!
exec 9> "$cpt_tmp/pipe"
head -n "$half" "$cpt_tmp/events.ndjson" >&9
for _ in $(seq 1 100); do
    test "$(wc -l < "$cpt_tmp/part1.ndjson")" -eq "$half" && break
    sleep 0.1
done
test "$(wc -l < "$cpt_tmp/part1.ndjson")" -eq "$half"
kill -9 "$serve_pid"
exec 9>&-
wait "$serve_pid" || true
# The journal was truncated behind the last snapshot: it opens with a
# journal_base line at a positive absolute position and holds at most
# snapshot-every entries behind the watermark.
jr="$cpt_tmp/state/shard-000/journal.ndjson"
head -n 1 "$jr" | grep -q '"event":"journal_base"'
head -n 1 "$jr" | grep -q '"pos":[1-9]'
test "$(wc -l < "$jr")" -le 17
tail -n +"$((half + 1))" "$cpt_tmp/events.ndjson" \
    | ./target/release/trout serve --bootstrap 300 --seed 7 --stdin \
        --state-dir "$cpt_tmp/state" --snapshot-every 16 --compact --recover \
        > "$cpt_tmp/part2.ndjson"
cat "$cpt_tmp/part1.ndjson" "$cpt_tmp/part2.ndjson" > "$cpt_tmp/combined.ndjson"
test "$(wc -l < "$cpt_tmp/combined.ndjson")" -eq "$total"
grep -v '"event":"metrics"' "$cpt_tmp/ref.ndjson" > "$cpt_tmp/ref.events"
grep -v '"event":"metrics"' "$cpt_tmp/combined.ndjson" > "$cpt_tmp/got.events"
cmp "$cpt_tmp/ref.events" "$cpt_tmp/got.events"
rm -rf "$cpt_tmp"

# Deterministic concurrency battery, cross-process: the canonical merged
# 4-shard state written by the battery must be bit-identical whether the
# engines run single- or multi-threaded.
bat_tmp=$(mktemp -d)
TROUT_THREADS=1 TROUT_BATTERY_STATE_OUT="$bat_tmp/state-t1.json" \
    cargo test -q --offline -p trout-serve --test concurrency_battery \
    merged_four_shard_state_equals_single_shard_reference
TROUT_THREADS=4 TROUT_BATTERY_STATE_OUT="$bat_tmp/state-t4.json" \
    cargo test -q --offline -p trout-serve --test concurrency_battery \
    merged_four_shard_state_equals_single_shard_reference
test -s "$bat_tmp/state-t1.json"
cmp "$bat_tmp/state-t1.json" "$bat_tmp/state-t4.json"
rm -rf "$bat_tmp"

# One-iteration pass over the serve bench (no calibration, no report).
TROUT_BENCH_SMOKE=1 cargo bench --offline -p trout-bench --bench serve_bench

# And the crash-recovery bench (journal appends, snapshot writes, replay,
# replication catch-up).
TROUT_BENCH_SMOKE=1 cargo bench --offline -p trout-bench --bench recover_bench

# Same for the training-throughput and matmul benches guarding the
# workspace hot path.
TROUT_BENCH_SMOKE=1 cargo bench --offline -p trout-bench --bench train_bench

# And the observability layer's record-cost bench.
TROUT_BENCH_SMOKE=1 cargo bench --offline -p trout-bench --bench obs_bench
