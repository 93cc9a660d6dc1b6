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

echo "== the tests that carry a stated claim are in that run =="
# Every test ran, once, in the sweep above (a red one already failed this
# script). This pins the tests that back a claim in DESIGN.md or
# EXPERIMENTS.md by name, so a rename, a deletion or an #[ignore] cannot
# drop one silently. A name is <test binary>::<path inside the binary>.
list_tests() {
  cargo test --offline --workspace -- --list "$@" 2>&1 | awk '
    /Running .*deps\// { bin = $NF; sub(/.*deps\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin); next }
    /Doc-tests /       { bin = "doc-" $2; next }
    /: test$/          { sub(/: test$/, ""); print bin "::" $0 }'
}
listed=$(list_tests)
ignored=$(list_tests --ignored)
required=(
  # cluster-shared resumption (DESIGN.md §12)
  qtls_server::cluster::tests::ticket_minted_on_worker_a_resumes_on_worker_b
  # the record data plane and admission economics (§13, §14)
  economics::sixteen_records_under_one_doorbell_beat_sixteen_round_trips
  economics::a_challenge_costs_a_fiftieth_of_the_handshake_it_displaces
  # the bulk bytes move at memory speed; the stitched seal is the
  # two-pass seal (§13, §20)
  economics::bulk_bytes_move_at_memory_speed
  proptest_crypto::stitched_seal_matches_the_two_pass_seal_at_every_length
  # admission control: the sim gate and the real-stack flood suite (§14)
  qtls_sim::sim::tests::admission_absorbs_handshake_flood
  flood::challenge_then_token_retry_admits_the_client
  flood::flood_with_admission_keeps_established_streams_alive
  flood::shutdown_accounts_for_every_socket
  # cluster scheduling: sim p99, dispatch, steal, drain (§15)
  sim_claims::scheduling_ablation_steal_beats_round_robin
  qtls_server::sched::tests::least_loaded_pick_is_argmin_over_full_probe
  qtls_server::sched::tests::drain_signal_wakes_parked_dispatcher_before_the_timeout
  qtls_server::net::tests::steal_half_takes_the_back_and_keeps_order
  qtls_server::cluster::tests::least_loaded_cluster_with_stealing_conserves_sockets
  qtls_server::cluster::tests::full_backlogs_park_on_drain_signal_not_backoff
  proptest_framework::least_loaded_dispatch_is_argmin
  # a connection reaches its worker inside connect(): no dispatcher
  # thread, nothing in transit at shutdown, and the drain signal rings
  # only for a parked connect (§15)
  dispatch::no_dispatcher_thread_runs_beside_the_workers
  dispatch::back_to_back_connects_then_shutdown_lose_nothing_in_transit
  dispatch::connects_racing_shutdown_land_in_exactly_one_ledger_term
  qtls_server::sched::tests::the_drain_signal_counts_its_parked_connects
  proptest_framework::steal_half_conserves_and_never_duplicates_sockets
  # eager flush: a deferred submit keeps the worker sweeping (§9); the
  # deleted flush, placement and rebalance directives fail by name
  park_wake::a_deferred_submit_is_never_slept_on
  qtls_server::config_file::tests::removed_directives_are_rejected_by_name
  # connection tracing and the metrics registry (§11, §16)
  trace::mixed_cluster_run_exports_complete_sum_checked_span_trees
  trace::admission_round_trip_is_visible_in_the_span_trees
  trace::anomaly_sweep_runs_on_wall_clock_cadence_not_iteration_count
  proptest_framework::span_trees_nest_and_idle_fill_makes_coverage_exact
  proptest_framework::trace_sampling_is_exact_and_off_costs_nothing
  profiles::every_kv_counter_has_a_registered_prometheus_family
  profiles::stub_status_kv_is_a_superset_of_the_human_page
  qtls_server::metrics::tests::each_family_and_kv_key_is_declared_once
  qtls_server::metrics::tests::a_stub_field_that_reads_a_family_reads_one_on_the_metrics_page
  # the three status pages are byte-identical to their goldens (§11)
  metrics_golden::sw_pages_are_byte_identical_to_their_goldens
  metrics_golden::sharded_qtls_pages_are_byte_identical_to_their_goldens
  metrics_golden::traced_qtls_pages_are_byte_identical_to_their_goldens
  # the production pause/resume path (§17, §21)
  task_path::wait_counts_under_the_default_rule
  task_path::wait_counts_keep_their_meaning
  task_path::shutdown_mid_handshake_leaks_nothing
  task_path::steady_state_starts_no_threads
  proptest_tls::sync_task_and_fiber_drivers_are_observationally_equal
  # one wake per request: doorbell and park/wake (§2, §17); a doorbell
  # wakes one engine per run, and a record flush is one device round
  # trip: every chunk published, one pause, records in order (§13)
  qtls_qat::device::tests::doorbell_wakes_one_engine_per_request
  qtls_qat::device::tests::doorbell_wakes_one_engine_per_run
  qtls_qat::device::tests::runs_follow_the_engines_batch_rule
  qtls_qat::device::tests::a_doorbells_records_are_one_run_on_one_engine
  qtls_core::engine::tests::chunked_offload_publishes_every_chunk_before_its_one_pause
  qtls_tls::record::tests::the_offload_decision_never_changes_a_wire_byte
  # one record-protection core (§13): every way into the opener delivers
  # exactly the records before a tampered one; a payload over 16 KB is
  # framed as records, not a panic; a software codec's 16-record flush
  # and open are one multi-buffer pass each (§20)
  qtls_tls::record::tests::the_opener_delivers_exactly_the_records_before_a_tampered_one
  qtls_tls::record::tests::a_handshake_payload_over_16kb_is_two_records
  qtls_tls::record::tests::a_record_reaches_the_device_from_min_sym_bytes_up
  proptest_crypto::a_software_codec_seals_and_opens_sixteen_records_in_one_pass_each
  protocol_violations::client_start_twice_is_an_error
  qtls_tls::record::tests::a_shutdown_drain_mid_flush_emits_exactly_the_records_before_it
  qtls_tls::record::tests::a_whole_mib_flush_stays_in_the_pool
  profiles::record_batch_depth_sets_the_doorbells_of_a_flush_that_pauses_once
  qtls_qat::device::tests::lone_engine_never_misses_a_doorbell
  park_wake::client_write_wakes_the_parked_worker
  park_wake::response_landing_wakes_the_parked_qtls_worker
  park_wake::parked_thieves_still_steal
  park_wake::idle_cluster_worker_burns_next_to_no_cpu
  # the worker is an executor (§17)
  idle_sweep::idle_sweep_cost_is_flat_in_silent_connections
  # RSA-2048 on AVX-512 IFMA: a CPU that has it takes the radix-2^52
  # path, which matches the portable CRT and MontCtx::mod_exp (§19, §20)
  proptest_crypto::rsa2048_takes_the_ifma_path_wherever_the_cpu_has_it
  proptest_crypto::rsa_raw_matches_raw_portable
  proptest_crypto::mont52_mod_exp_pair_matches_mod_exp_at_every_exponent_length
  # P-256 on mulx/adcx/adox: a CPU that has BMI2 and ADX takes the
  # field kernels, which match the portable product, and key pairs and
  # shared secrets match the double-and-add oracle; an unreduced point
  # is InvalidPoint, not a panic (§19, §20)
  proptest_crypto::p256_takes_the_adx_path_wherever_the_cpu_has_it
  proptest_crypto::p256_kernels_match_portable_fpparams
  proptest_crypto::p256_keygen_and_ecdh_match_the_oracle
  qtls_crypto::ecc::tests::named_curve_operations_reject_unreduced_points
  # multi-buffer record crypto: a doorbell's records sealed and opened in
  # one 16-lane pass are the per-record records, and a CPU that has the
  # kernels takes them; the batched seal allocates nothing more (§13, §20)
  proptest_crypto::batched_seal_matches_the_per_record_seal_at_every_batch_size
  proptest_crypto::batched_open_matches_the_per_record_open_with_one_tampered_lane
  proptest_crypto::sha1_x16_matches_sha1_in_every_lane_at_every_block_count
  proptest_crypto::sixteen_record_batches_take_the_multi_buffer_path_wherever_the_cpu_has_it
  alloc_budget::a_batched_seal_allocates_nothing_beyond_the_per_record_seals
  # below MULTI_BUFFER_MIN a batch with a size hint goes record by
  # record without staging a run; hinted or not, every batch size 0-17
  # is the per-record calls' bytes and verdicts (§20)
  qtls_crypto::cbc_hmac::tests::every_batch_size_matches_the_per_record_calls_with_or_without_a_size_hint
  # a ring counts only published values, so a wait on
  # pending_responses never wakes before a poll can take the response
  # (the_offload_decision_never_changes_a_wire_byte, above, counts one
  # pause per record-layer offload on a reversed drive) (§9)
  qtls_qat::ring::tests::len_counts_only_published_values
  # worker-thread allocations: a keep-alive request's count and the
  # asymmetric primitives' counts are pinned (§21, §19); a 1 MiB
  # response allocates only its socket buffer, its body is the store's
  # shared buffer, and what is served is the oracle's response in the
  # fewest records (§13)
  alloc_budget::keepalive_request_allocations_are_pinned
  alloc_budget::keepalive_client_allocations_are_pinned
  alloc_budget::asymmetric_primitive_allocations_are_pinned
  alloc_budget::a_mib_response_allocates_only_the_socket_buffer
  qtls_server::http::tests::synthetic_objects_share_one_bounded_buffer
  profiles::served_responses_open_to_the_oracle_in_the_fewest_records
  # boot computes nothing the first connection does not need: the test
  # keys' public points and RSA primes are pinned and re-derived by a
  # test, the digests of test_default's scalars and ticket ring are the
  # ones computed when the points were still derived at boot, and after
  # test_default and a QTLS Worker::new no scalar multiplication has run
  # and no comb table is built (§19)
  qtls_crypto::test_keys::tests::pinned_keys_equal_the_seeded_search
  qtls_crypto::test_keys::tests::pinned_ecdsa_points_equal_the_seeded_draw
  qtls_tls::server::tests::cached_ecdsa_keys_equal_a_fresh_draw_from_the_seed
  qtls_tls::server::tests::test_default_keys_match_their_pinned_digests
  qtls_crypto::ec::tests::the_comb_is_built_on_first_use
  boot::boot_runs_no_scalar_multiplication_and_builds_no_comb
  # the newest results/BENCH_e2e.json entry inside every BENCHMARK.json bound
  bench_gate::newest_trajectory_entry_is_inside_every_bound
)
missing=0
for t in "${required[@]}"; do
  if ! grep -qxF "$t" <<< "$listed"; then
    echo "required test not in the workspace suite: $t" >&2
    missing=1
  elif grep -qxF "$t" <<< "$ignored"; then
    echo "required test is #[ignore]d: $t" >&2
    missing=1
  fi
done
if [ "$missing" != 0 ]; then
  exit 1
fi
echo "ok: all ${#required[@]} required tests ran in the workspace suite"

echo "== property sweeps (--features proptest) =="
# The in-repo prop harness scales every property to its full case
# count under this feature; still offline and deterministic.
cargo test -q --offline --features proptest \
  --test proptest_crypto --test proptest_framework --test proptest_tls

echo "== figures smoke run =="
# Every figure generator must still run end to end (tiny simulated
# window; the numbers are noise, the exercise is the point), and every
# ablation must still emit the series EXPERIMENTS.md quotes: sharding,
# resumption, the bulk data plane, admission and scheduling.
figures=$(cargo run --release --offline -p qtls-sim --bin figures -- smoke)
for series in "1-shard K CPS" "2-shard K CPS" "4-shard K CPS" \
              "shared K CPS" "shared miss %" "per-worker K CPS" "per-worker miss %" \
              "per-record" "pinned-16" "batched-16" \
              "est p99 ms" "est K rps" "chal K/s" "flood hs/s" \
              "rr p99 ms" "cfcfs p99 ms" "dfcfs p99 ms" "dfcfs+steal p99 ms" \
              "dfcfs+steal steals/s"; do
  if ! grep -qF "$series" <<< "$figures"; then
    echo "figures smoke run missing series: $series" >&2
    exit 1
  fi
done
echo "ok: every figure runs; every ablation series is emitted"

echo "== metrics plane smoke =="
# Boot a sharded QTLS worker with qat_metrics on, scrape /metrics over
# a real in-band TLS connection, and validate the exposition with the
# in-repo mini-parser (the bin panics on any violation, and on a family
# qtls_server::metrics::is_registered does not know). Every family the
# scrape declares must also be declared in the schema table, `mod
# schema` of crates/server/src/metrics.rs — no drive-by metric names
# outside it.
metrics_page=$(cargo run --release --offline -p qtls-server --bin metrics_smoke)
if ! grep -q "metrics_smoke: OK" <<< "$metrics_page"; then
  echo "metrics_smoke did not reach its OK verdict" >&2
  exit 1
fi
schema_table=$(sed -n '/^mod schema {/,/^}/p' crates/server/src/metrics.rs)
if [ -z "$schema_table" ]; then
  echo "could not find mod schema in crates/server/src/metrics.rs to audit" >&2
  exit 1
fi
scraped=$(grep '^# TYPE ' <<< "$metrics_page" | awk '{print $3}' | sort -u)
if [ -z "$scraped" ]; then
  echo "metrics_smoke scraped no # TYPE families" >&2
  exit 1
fi
while read -r fam; do
  if ! grep -qF "\"$fam\"" <<< "$schema_table"; then
    echo "scraped family $fam missing from the schema table in crates/server/src/metrics.rs" >&2
    exit 1
  fi
done <<< "$scraped"
echo "ok: metrics smoke scrape parses; $(wc -l <<< "$scraped") families all in the schema table"

echo "== loadgen trace dump =="
# A loaded run's trace artifact: the loadgen CLI drives a 2-worker
# cluster and archives the /trace export via --trace-dump (under
# target/, so the run leaves the tree clean).
trace_dump=target/trace_loadgen.json
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

echo "== task path: the production pause/resume is fiber-free =="
# The fiber mechanism is ablation-only (an OS thread per job): nothing
# under the server may reach for it again.
if grep -rnE 'fiber::|start_job' crates/server/src; then
  echo "crates/server/src mentions the ablation-only fiber mechanism (see above)" >&2
  exit 1
fi
echo "ok: crates/server/src is fiber-free"

echo "== offload only what is worth a round trip: one decision point =="
# DESIGN.md §21: whether an op goes to the device is decided in one place,
# CryptoProvider::engine_for. No other file may read the selection's
# eligibility or size fields to make a decision of its own.
selection_readers=$(grep -rnE --include='*.rs' \
  'selection\.(asym|prf|cipher|min_sym_bytes)\b' crates src tests examples benchmark \
  | grep -v '^crates/tls/src/provider\.rs:' || true)
if [ -n "$selection_readers" ]; then
  echo "$selection_readers" >&2
  echo "offload selection read outside crates/tls/src/provider.rs (see above)" >&2
  exit 1
fi
if ! grep -q 'fn engine_for' crates/tls/src/provider.rs; then
  echo "could not find CryptoProvider::engine_for to audit" >&2
  exit 1
fi
echo "ok: only CryptoProvider::engine_for reads the offload selection"

echo "== one record-protection core: one sealer, one opener =="
# DESIGN.md §13, §21: every protected record is sealed by Direction::seal
# and opened by Direction::open in crates/tls/src/record.rs, each pass
# deciding once with CryptoProvider::offloads_cipher. No other non-test
# code under crates/tls/src may run the record cipher or offload records
# itself.
record_src=crates/tls/src/record.rs
for f in 'async fn seal<' 'async fn open('; do
  if [ "$(grep -c "^    $f" "$record_src")" != 1 ]; then
    echo "could not find exactly one '$f' in $record_src to audit" >&2
    exit 1
  fi
done
core_calls=$(for f in crates/tls/src/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" | awk -v file="$f" '
    /^    async fn (seal<|open\()/                                      { inside = 1 }
    inside && /^    }$/                                                { inside = 0; next }
    /^[[:space:]]*\/\//                                                { next }
    !inside && /(seal_in_place|open_in_place|seal_batch|open_batch|offload_chunks_async)\(/ {
      print file ":" FNR ": " $0 }'
done)
if [ -n "$core_calls" ]; then
  echo "$core_calls" >&2
  echo "record crypto outside the one sealer and opener of $record_src (see above)" >&2
  exit 1
fi
echo "ok: crates/tls/src protects records only in Direction::seal and Direction::open"

echo "== one wake per request: no timed idle waits =="
# The device's engines and the idle worker wait untimed or on a stated
# deadline, so a lost wake-up is a hang, not a slowdown (the doorbell
# and park/wake tests above run under hard deadlines). Neither idle path
# may regain a poll timeout or a spin: the engine's wait is untimed, the
# worker's sleep goes through its wake handle.
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

echo "== the worker is an executor: a sweep never walks its connections =="
# DESIGN.md §17: readiness and completions name their task through a
# waker, TC_active / handshaking are counters kept where they change, so
# a sweep costs O(ready). Outside Worker::shutdown, nothing in worker.rs
# (run_iteration, load_gauge and the helpers they call) may iterate the
# connection table. tests/idle_sweep.rs gates the cost itself.
worker_src=crates/server/src/worker.rs
for f in run_iteration load_gauge shutdown; do
  if [ -z "$(sed -n "/pub fn $f(/,/^    }/p" "$worker_src")" ]; then
    echo "could not find Worker::$f to audit" >&2
    exit 1
  fi
done
# Whitespace squeezed out first, so a chain rustfmt split across lines
# (`self.conns` / `.iter()`) is still one match.
if sed "/pub fn shutdown(/,/^    }/d" "$worker_src" | tr -d ' \n' \
    | grep -oE 'conns\.(iter|iter_mut|values|values_mut|keys|drain)\(|in&(mut)?(self\.)?conns[^_[:alnum:]]'; then
  echo "$worker_src walks the connection table outside Worker::shutdown (see above)" >&2
  exit 1
fi
echo "ok: only Worker::shutdown walks the connection table"

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
# MontCtx::mod_exp nothing may clone or build a Vec. The sed range also
# matches Mont52::mod_exp_pair, whose table lives on the stack, so its
# body is held to the same rule. The double-and-add
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
