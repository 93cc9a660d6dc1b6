#!/usr/bin/env bash
# Hermetic tier-1 verify: build + test with zero registry access, then
# assert that no non-workspace dependency has crept into any feature
# set. Run from anywhere; exits non-zero on the first violation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== property sweeps (--features proptest) =="
# The in-repo prop harness scales every property to its full case
# count under this feature; still offline and deterministic.
cargo test -q --offline --features proptest \
  --test proptest_crypto --test proptest_framework --test proptest_tls

echo "== figures smoke run =="
# Every figure generator must still run end to end (tiny simulated
# window; the numbers are noise, the exercise is the point).
cargo run --release --offline -p qtls-sim --bin figures -- smoke > /dev/null

echo "== sharding figure + bench smoke =="
# The sharding ablation must produce all three shard-count series in
# SMOKE fidelity, and the bench group must emit a parseable throughput
# row for every shard count (the >=1.7x scaling claim itself is
# verified at full fidelity and recorded in EXPERIMENTS.md).
sharding_fig=$(cargo run --release --offline -p qtls-sim --bin figures -- smoke sharding)
for series in "1-shard K CPS" "2-shard K CPS" "4-shard K CPS"; do
  if ! grep -qF "$series" <<< "$sharding_fig"; then
    echo "sharding figure missing series: $series" >&2
    exit 1
  fi
done
echo "ok: sharding figure emits all shard-count series"
sharding_bench=$(cargo bench --offline -p qtls-bench --bench framework -- sharding)
for case in submit_only_64/shards1 saturated_roundtrip_64/shards1 \
            saturated_roundtrip_64/shards2 saturated_roundtrip_64/shards4; do
  if ! grep -F "sharding/$case" <<< "$sharding_bench" | grep -q 'elem/s'; then
    echo "bench sharding/$case missing or lacks an elem/s throughput row" >&2
    exit 1
  fi
done
echo "ok: bench sharding rows parse with elem/s throughput"

echo "== resumption figure + cross-worker test + bench smoke =="
# The resumption ablation must emit both shared and per-worker series
# (CPS and miss-rate) in SMOKE fidelity, the cluster test proving a
# ticket minted on worker A resumes on worker B must actually run in the
# offline suite, and the handshake bench must reach its resumed-vs-full
# CPS verdict (>= 2x asserted inside the bench).
resumption_fig=$(cargo run --release --offline -p qtls-sim --bin figures -- smoke resumption)
for series in "shared K CPS" "shared miss %" "per-worker K CPS" "per-worker miss %"; do
  if ! grep -qF "$series" <<< "$resumption_fig"; then
    echo "resumption figure missing series: $series" >&2
    exit 1
  fi
done
echo "ok: resumption figure emits shared and per-worker series"
cross_worker=$(cargo test --offline -p qtls-server --lib \
  ticket_minted_on_worker_a_resumes_on_worker_b 2>&1)
if ! grep -q "test result: ok. 1 passed" <<< "$cross_worker"; then
  echo "cross-worker resumption test did not run and pass" >&2
  exit 1
fi
echo "ok: cross-worker resumption test passes (resume on worker B, miss 0)"
resumption_bench=$(cargo bench --offline -p qtls-bench --bench handshake -- resumption)
if ! grep -q "resumption_speedup: PASS" <<< "$resumption_bench"; then
  echo "resumption bench did not print its PASS verdict" >&2
  exit 1
fi
echo "ok: resumed CPS at least 2x full-handshake CPS"

echo "== bulk data-plane figure + bench smoke =="
# The record data plane's ablation (DESIGN.md §13) must emit all four
# series in SMOKE fidelity, the bench group must report byte throughput
# for both the roundtrip and publish-only rows, and the batched-vs-
# per-record verdict (>= 1.5x at depth 16, asserted inside the bench)
# must be reached.
bulk_fig=$(cargo run --release --offline -p qtls-sim --bin figures -- smoke bulk)
for series in "SW" "per-record" "pinned-16" "batched-16"; do
  if ! grep -qF "$series" <<< "$bulk_fig"; then
    echo "bulk figure missing series: $series" >&2
    exit 1
  fi
done
echo "ok: bulk figure emits all data-plane series"
bulk_bench=$(cargo bench --offline -p qtls-bench --bench framework -- bulk_transfer)
for case in per_record_depth16 batched_depth16 \
            publish_only/per_record publish_only/batched; do
  if ! grep -F "bulk_transfer/$case" <<< "$bulk_bench" | grep -qE 'thrpt: [0-9.]+ [KMG]iB/s'; then
    echo "bench bulk_transfer/$case missing or lacks a bytes throughput row" >&2
    exit 1
  fi
done
if ! grep -q "bulk_batched_speedup: PASS" <<< "$bulk_bench"; then
  echo "bulk_transfer bench did not print its PASS verdict" >&2
  exit 1
fi
echo "ok: batched bulk transfer at least 1.5x per-record at depth 16"

echo "== flood figure + admission gate tests + bench smoke =="
# The admission-control layer (DESIGN.md §14) must emit all four flood-
# ablation series in SMOKE fidelity; the deterministic sim gate (flood
# with admission on within 1.2x of the unflooded p99, the same flood
# without admission at >= 2x) and the real-stack flood regression suite
# must run and pass; and the handshake bench must reach its challenge-
# economics verdict (challenge >= 50x cheaper than a full handshake,
# asserted inside the bench).
flood_fig=$(cargo run --release --offline -p qtls-sim --bin figures -- smoke flood)
for series in "est p99 ms" "est K rps" "chal K/s" "flood hs/s"; do
  if ! grep -qF "$series" <<< "$flood_fig"; then
    echo "flood figure missing series: $series" >&2
    exit 1
  fi
done
echo "ok: flood figure emits all admission-ablation series"
flood_gate=$(cargo test --offline -p qtls-sim --lib \
  admission_absorbs_handshake_flood 2>&1)
if ! grep -q "test result: ok. 1 passed" <<< "$flood_gate"; then
  echo "sim flood-admission gate test did not run and pass" >&2
  exit 1
fi
echo "ok: sim gate holds (admission <=1.2x baseline p99; no admission >=2x)"
flood_suite=$(cargo test --offline -p qtls-server --test flood 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$flood_suite"; then
  echo "real-stack flood regression suite did not run and pass" >&2
  exit 1
fi
echo "ok: real-stack flood suite passes (challenge/retry, caps, sheds, drain)"
admission_bench=$(cargo bench --offline -p qtls-bench --bench handshake -- admission)
if ! grep -q "admission_challenge_cheap: PASS" <<< "$admission_bench"; then
  echo "admission bench did not print its PASS verdict" >&2
  exit 1
fi
echo "ok: challenge mint+verify at least 50x cheaper than a full handshake"

echo "== scheduling figure + gate tests + bench verdicts =="
# The cluster-scheduling plane (DESIGN.md §15) must emit every queue-
# discipline series in SMOKE fidelity; the deterministic sim gate
# (dFCFS+steal beats round-robin p99 on the skewed mix), the scheduling
# unit tests, the steal/drain cluster regressions, the dispatch/steal
# property tests and the QAT shard-rebalance tests must all pass; and
# the scheduling bench must reach its three verdicts (sim p99 speedup
# >= 1.25x vs round-robin; least-loaded worst-worker byte share
# <= 0.75x of round-robin's under the stride-heavy mix; steals observed
# under throttled accepts).
sched_fig=$(cargo run --release --offline -p qtls-sim --bin figures -- smoke scheduling)
for series in "rr p99 ms" "cfcfs p99 ms" "dfcfs p99 ms" "dfcfs+steal p99 ms" "dfcfs+steal steals/s"; do
  if ! grep -qF "$series" <<< "$sched_fig"; then
    echo "scheduling figure missing series: $series" >&2
    exit 1
  fi
done
echo "ok: scheduling figure emits all discipline series"
sched_gate=$(cargo test --offline -p qtls-sim --lib \
  scheduling_ablation_steal_beats_round_robin 2>&1)
if ! grep -q "test result: ok. 1 passed" <<< "$sched_gate"; then
  echo "sim scheduling gate test did not run and pass" >&2
  exit 1
fi
echo "ok: sim gate holds (dFCFS+steal beats round-robin p99)"
sched_unit=$(cargo test --offline -p qtls-server --lib sched 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$sched_unit"; then
  echo "scheduling-plane unit tests did not run and pass" >&2
  exit 1
fi
sched_steal=$(cargo test --offline -p qtls-server --lib steal 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$sched_steal"; then
  echo "steal regression tests did not run and pass" >&2
  exit 1
fi
sched_drain=$(cargo test --offline -p qtls-server --lib drain 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$sched_drain"; then
  echo "drain-signal regression tests did not run and pass" >&2
  exit 1
fi
echo "ok: scheduling unit + steal + drain-signal regressions pass"
sched_prop=$(cargo test --offline -p qtls --test proptest_framework -- \
  least_loaded_dispatch_is_argmin \
  steal_half_conserves_and_never_duplicates_sockets 2>&1)
if ! grep -q "test result: ok. 2 passed" <<< "$sched_prop"; then
  echo "scheduling property tests did not run and pass" >&2
  exit 1
fi
echo "ok: dispatch-argmin and steal-half-conservation properties hold"
rebalance_suite=$(cargo test --offline -p qtls-qat --lib rebalance 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$rebalance_suite"; then
  echo "QAT shard-rebalance tests did not run and pass" >&2
  exit 1
fi
echo "ok: shard rebalancing migrates only quiescent pairs and completes work"
sched_bench=$(cargo bench --offline -p qtls-bench --bench scheduling)
for verdict in "scheduling_speedup: PASS" "scheduling_steal: PASS" "scheduling_balance: PASS"; do
  if ! grep -q "$verdict" <<< "$sched_bench"; then
    echo "scheduling bench did not print: $verdict" >&2
    exit 1
  fi
done
if [ ! -s results/BENCH_scheduling.json ]; then
  echo "scheduling bench did not persist results/BENCH_scheduling.json" >&2
  exit 1
fi
echo "ok: scheduling bench verdicts (sim p99, balance, steals) + JSON persisted"

echo "== metrics plane smoke =="
# Boot a sharded QTLS worker with qat_metrics on, scrape /metrics over
# a real in-band TLS connection, and validate the exposition with the
# in-repo mini-parser (the bin panics on any violation). Every family
# the scrape declares must appear in the single obs::registry constant
# list — no drive-by metric names outside the registry.
metrics_page=$(cargo run --release --offline -p qtls-server --bin metrics_smoke)
if ! grep -q "metrics_smoke: OK" <<< "$metrics_page"; then
  echo "metrics_smoke did not reach its OK verdict" >&2
  exit 1
fi
obs_registry=crates/core/src/obs.rs
scraped=$(grep '^# TYPE ' <<< "$metrics_page" | awk '{print $3}' | sort -u)
if [ -z "$scraped" ]; then
  echo "metrics_smoke scraped no # TYPE families" >&2
  exit 1
fi
while read -r fam; do
  if ! grep -qF "\"$fam\"" "$obs_registry"; then
    echo "scraped family $fam missing from obs::registry::METRIC_NAMES" >&2
    exit 1
  fi
done <<< "$scraped"
echo "ok: metrics smoke scrape parses; $(wc -l <<< "$scraped") families all in obs::registry"

echo "== obs overhead guard =="
# The observability plane must stay under its 2% roundtrip budget; the
# bench asserts it internally and prints a greppable verdict.
obs_bench=$(cargo bench --offline -p qtls-bench --bench framework -- obs_overhead)
if ! grep -q "obs_overhead: PASS" <<< "$obs_bench"; then
  echo "obs_overhead bench did not print its PASS verdict" >&2
  exit 1
fi
echo "ok: obs overhead under 2% enabled-vs-disabled"

echo "== connection tracing gates =="
# End-to-end tracing: the integration suite validates the /trace Chrome
# trace-event export with the in-repo mini-parser, sum-checks the
# attribution (stage durations cover each connection's wall time within
# 5%), proves the admission round trip shows up in the span trees, and
# pins the anomaly sweep to its wall-clock cadence.
trace_suite=$(cargo test --offline -p qtls-server --test trace 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$trace_suite"; then
  echo "tracing integration suite did not run and pass" >&2
  exit 1
fi
echo "ok: /trace export valid; span trees sum-checked; anomaly cadence on wall clock"
trace_prop=$(cargo test --offline -p qtls --test proptest_framework -- \
  span_trees_nest_and_idle_fill_makes_coverage_exact \
  trace_sampling_is_exact_and_off_costs_nothing 2>&1)
if ! grep -q "test result: ok. 2 passed" <<< "$trace_prop"; then
  echo "tracing property tests did not run and pass" >&2
  exit 1
fi
echo "ok: span nesting/coverage and sampling-exactness properties hold"
reg_audit=$(cargo test --offline -p qtls-server --test profiles -- \
  every_kv_counter_has_a_registered_prometheus_family \
  stub_status_kv_is_a_superset_of_the_human_page 2>&1)
if ! grep -q "test result: ok. 2 passed" <<< "$reg_audit"; then
  echo "metrics registry audit tests did not run and pass" >&2
  exit 1
fi
echo "ok: every stub_status counter maps to a registered Prometheus family"
# A loaded run's trace artifact: the loadgen CLI drives a 2-worker
# cluster and archives the /trace export via --trace-dump.
trace_dump=results/trace_loadgen.json
dump_out=$(cargo run --release --offline -p qtls-server --bin loadgen -- \
  --clients 4 --duration-ms 500 --requests 2 --trace-sample 4 \
  --trace-dump "$trace_dump")
if ! grep -q "trace-dump: wrote" <<< "$dump_out"; then
  echo "loadgen --trace-dump did not write its artifact" >&2
  exit 1
fi
if [ ! -s "$trace_dump" ]; then
  echo "loadgen --trace-dump left an empty $trace_dump" >&2
  exit 1
fi
echo "ok: loadgen --trace-dump archived a loaded run's span trees"

echo "== task path: the production pause/resume =="
# The polled-task path has its own tier-1 suite (every async profile x
# both versions x full/resumed x the three request shapes, exact wait
# counts, zero threads started, shutdown mid-handshake), and the three
# drivers of the engine's one offload step must stay observationally
# equal. Both run in the sweeps above; this asserts they actually ran.
task_path=$(cargo test --offline --test task_path 2>&1)
if ! grep -Eq "test result: ok\. [1-9][0-9]* passed; 0 failed" <<< "$task_path"; then
  echo "$task_path" >&2
  echo "tests/task_path.rs did not run and pass" >&2
  exit 1
fi
echo "ok: tests/task_path.rs passes"
drivers=$(cargo test --offline --features proptest --test proptest_tls \
  sync_task_and_fiber_drivers_are_observationally_equal 2>&1)
if ! grep -q "test result: ok. 1 passed" <<< "$drivers"; then
  echo "$drivers" >&2
  echo "driver-determinism property did not run and pass" >&2
  exit 1
fi
echo "ok: sync, task and fiber drivers are observationally equal"
# The fiber mechanism is ablation-only (an OS thread per job): nothing
# under the server may reach for it again.
if grep -rnE 'fiber::|start_job' crates/server/src; then
  echo "crates/server/src mentions the ablation-only fiber mechanism (see above)" >&2
  exit 1
fi
echo "ok: crates/server/src is fiber-free"

echo "== one wake per request: doorbell, park/wake, no timed idle waits =="
# The device's engines and the idle worker wait untimed or on a stated
# deadline, so a lost wake-up is a hang, not a slowdown: the doorbell
# stress tests and the worker park/wake suite (each under hard
# deadlines) must run and pass.
doorbell_suite=$(cargo test --offline -p qtls-qat --lib device:: 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$doorbell_suite"; then
  echo "$doorbell_suite" >&2
  echo "device doorbell tests did not run and pass" >&2
  exit 1
fi
park_wake=$(cargo test --offline -p qtls-server --test park_wake 2>&1)
if ! grep -qE "test result: ok. [1-9][0-9]* passed; 0 failed" <<< "$park_wake"; then
  echo "$park_wake" >&2
  echo "worker park/wake suite did not run and pass" >&2
  exit 1
fi
echo "ok: doorbell stress + park/wake suites pass"
# Neither idle path may regain a poll timeout or a spin: the engine's
# wait is untimed, the worker's sleep goes through its wake handle.
engine_idle=$(sed -n '/fn next_request/,/^    }/p' crates/qat/src/device.rs)
worker_idle=$(sed -n '/pub fn run_until/,/^    }/p' crates/server/src/worker.rs)
if [ -z "$engine_idle" ] || [ -z "$worker_idle" ]; then
  echo "could not find the engine idle path or Worker::run_until to audit" >&2
  exit 1
fi
if grep -nE 'wait_for|sleep\(|yield_now|park_timeout' <<< "$engine_idle"; then
  echo "the engine idle path in crates/qat/src/device.rs waits timed or spins (see above)" >&2
  exit 1
fi
if grep -nE 'wait_for|sleep\(|from_(micros|nanos)' <<< "$worker_idle"; then
  echo "Worker::run_until regained a poll timeout (see above)" >&2
  exit 1
fi
if ! grep -q 'park_timeout' <<< "$worker_idle"; then
  echo "Worker::run_until no longer parks: a bare yield_now loop burns a core" >&2
  exit 1
fi
echo "ok: engines wait untimed; the idle worker parks on its wake handle"

echo "== symmetric substrate: compile-time tables, one body each =="
# The record-cipher primitives (DESIGN.md §18) build their tables at
# compile time and multiply in GF(2^8) only to build them: no lazily
# initialised global and no run-time gmul outside test code. The
# byte-wise reference lives in aes_oracle.rs, which only test targets
# compile. (ec.rs / ec2m.rs / test_keys.rs keep their OnceLock'd curve
# and key constants — bignums cannot be const-built; not this gate.)
for f in aes sha1 sha256 hmac hash cbc_hmac x86; do
  src=crates/crypto/src/$f.rs
  if sed '/#\[cfg(test)\]/,$d' "$src" | grep -nE 'OnceLock|gmul'; then
    echo "non-test $src uses OnceLock or gmul (see above)" >&2
    exit 1
  fi
done
if ! grep -qx '#\[cfg(test)\]' <(grep -B1 '^mod aes_oracle;' crates/crypto/src/lib.rs); then
  echo "crates/crypto/src/lib.rs compiles aes_oracle outside #[cfg(test)]" >&2
  exit 1
fi
echo "ok: symmetric primitives are const-table and gmul-free outside tests"

echo "== asymmetric substrate: allocation-free loops, one oracle =="
# The exponentiation (DESIGN.md §19) owns one scratch allocation, made
# before its loops: from the first loop header to the end of
# MontCtx::mod_exp nothing may clone or build a Vec. The double-and-add
# the comb and wNAF paths replaced lives on only in ec_oracle.rs, which
# only test targets compile.
mod_exp_loops=$(sed -n '/pub fn mod_exp/,/^    }/p' crates/crypto/src/mont.rs | sed -n '/^ *for /,$p')
if [ -z "$mod_exp_loops" ]; then
  echo "could not find MontCtx::mod_exp's loops to audit" >&2
  exit 1
fi
if grep -nE '\.clone\(\)|vec!' <<< "$mod_exp_loops"; then
  echo "MontCtx::mod_exp allocates inside its loops (see above)" >&2
  exit 1
fi
if ! grep -qx '#\[cfg(test)\]' <(grep -B1 '^mod ec_oracle;' crates/crypto/src/lib.rs); then
  echo "crates/crypto/src/lib.rs compiles ec_oracle outside #[cfg(test)]" >&2
  exit 1
fi
echo "ok: mod_exp's loops are allocation-free; ec_oracle is test-only"

echo "== unsafe: confined to its three files, every block justified =="
# DESIGN.md §20: qtls-crypto denies unsafe code crate-wide and allows it
# on `mod x86` alone. Across the workspace the keyword may appear (outside
# comments) only in the hardware kernels, the ring's slots and the
# counting allocator of the allocation-budget test; in x86.rs every `unsafe {` sits directly
# under a `// SAFETY:` comment.
if ! grep -qx '#!\[deny(unsafe_code)\]' crates/crypto/src/lib.rs; then
  echo "crates/crypto/src/lib.rs no longer denies unsafe code" >&2
  exit 1
fi
if ! grep -qx '#\[allow(unsafe_code)\]' <(grep -B1 '^mod x86;' crates/crypto/src/lib.rs); then
  echo "crates/crypto/src/lib.rs: the unsafe_code allowance is not on 'mod x86;'" >&2
  exit 1
fi
if [ "$(grep -c 'allow(unsafe_code)' crates/crypto/src/lib.rs)" != 1 ]; then
  echo "crates/crypto/src/lib.rs allows unsafe code in more than one place" >&2
  exit 1
fi
unsafe_files=$(grep -rnw --include='*.rs' 'unsafe' crates src tests \
  | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' | cut -d: -f1 | sort -u \
  | grep -vxF -e crates/crypto/src/x86.rs -e crates/qat/src/ring.rs -e tests/alloc_budget.rs || true)
if [ -n "$unsafe_files" ]; then
  echo "'unsafe' outside x86.rs, ring.rs and tests/alloc_budget.rs:" >&2
  echo "$unsafe_files" >&2
  exit 1
fi
unjustified=$(awk '
  /^[[:space:]]*\/\/ SAFETY:/ { justified = 1; next }
  /^[[:space:]]*\/\//         { next }
  /unsafe \{/ && !justified   { print FILENAME ":" FNR ": " $0 }
                              { justified = 0 }
' crates/crypto/src/x86.rs)
if [ -n "$unjustified" ]; then
  echo "unsafe block without a '// SAFETY:' comment right above it:" >&2
  echo "$unjustified" >&2
  exit 1
fi
if ! grep -q 'unsafe {' crates/crypto/src/x86.rs; then
  echo "could not find x86.rs's unsafe blocks to audit" >&2
  exit 1
fi
echo "ok: unsafe only in x86.rs / ring.rs / alloc_budget.rs; every x86.rs block has its SAFETY line"

echo "== trajectory gate =="
# The newest results/BENCH_e2e.json entry must sit inside every
# BENCHMARK.json bound (ROADMAP 3(g)).
bench_gate=$(cargo test --offline --test bench_gate 2>&1)
if ! grep -q "test result: ok. 1 passed" <<< "$bench_gate"; then
  echo "$bench_gate" >&2
  echo "results/BENCH_e2e.json's newest entry is outside a BENCHMARK.json bound" >&2
  exit 1
fi
echo "ok: newest trajectory entry is inside every end-to-end bound"

echo "== frozen benchmark package builds and passes against this tree =="
# benchmark/ is frozen between benchmark-defining PRs and compiles
# against the crates' public API by path; an accidental break of that
# API must fail here, not in the pipeline.
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "== loadgen unwrap guard =="
# The load generator must never panic on a malformed or partial
# response: no unwrap() in its non-test code (the test module starts at
# the #[cfg(test)] marker).
loadgen=crates/server/src/loadgen.rs
if sed '/#\[cfg(test)\]/,$d' "$loadgen" | grep -nF '.unwrap()' ; then
  echo "unwrap() in non-test $loadgen (see above)" >&2
  exit 1
fi
echo "ok: no unwrap() in non-test $loadgen"

echo "== dependency hermeticity =="
# Workspace path crates render as `name vX.Y.Z (/abs/path)`; anything
# from a registry has no source path. Check the default feature set and
# --all-features (the proptest / rand-rng features must stay dep-free).
check_tree() {
  local label="$1"; shift
  local bad
  bad=$(cargo tree -e normal --offline --prefix none "$@" | sort -u \
        | grep -v ' (/' | grep -v '^$' || true)
  if [ -n "$bad" ]; then
    echo "non-workspace dependencies in $label:" >&2
    echo "$bad" >&2
    exit 1
  fi
  echo "ok: $label resolves to workspace crates only"
}
check_tree "default features"
check_tree "--all-features" --all-features

echo "check.sh: all green"
