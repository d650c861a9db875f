#!/usr/bin/env bash
# Tier-1 verification entry point (see ROADMAP.md).
#
# Fully hermetic: the workspace has zero external crate dependencies, so
# every step runs with the network hard-disabled. If any step here needs
# the network, that is itself a regression.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings)"
# Broken or private intra-doc links fail here, so deleting a public item
# cannot leave docs that still point at it.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release --offline (all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> SIMD kernel pins on both tiers (natural dispatch, then HYBRIDCS_FORCE_SCALAR=1)"
# The 0-ULP tier pins run each kernel on both tiers in one process: the
# element-wise linalg/solver kernels are one scalar source compiled twice
# (baseline, and inside the AVX2 frame of `simd::on_tier`), while the
# sensing (frontend) and wavelet (dsp) panel kernels compare hand-written
# AVX2 twins with their scalar loops. Only these release runs reach the
# vector code: the test profile's opt-level 1 does not vectorize.
# Re-running the suites with the scalar pin additionally drives every
# batch bit-identity test through the fallback dispatch path that CI
# would otherwise only exercise on non-AVX2 hosts. The core (decode
# ladder) and gateway (flush) suites ride along: their batched-vs-serial
# tests run the same kernels.
SIMD_CRATES=(-p hybridcs-linalg -p hybridcs-solver -p hybridcs-frontend -p hybridcs-dsp
    -p hybridcs-core -p hybridcs-gateway)
cargo test -q --release --offline "${SIMD_CRATES[@]}"
HYBRIDCS_FORCE_SCALAR=1 \
    cargo test -q --release --offline "${SIMD_CRATES[@]}"

echo "==> hybridcs-obs unit suite under the release profile"
# The span and enabled-flag tests share one process-wide flag and hold a
# crate-level test lock for it; when a test skipped that lock, only the
# optimized build raced, so the lock is checked here.
cargo test -q --release --offline -p hybridcs-obs --lib

echo "==> benchmark smoke run (perfbench: every workload for 5 s, correctness audit)"
# perfbench is its own workspace (BENCHMARK.json runs it from its own
# manifest). Each workload exits 1 if any committed window fails its
# audit (exactly-once in-order commit, finite 512-sample output, the
# full-hybrid SNR floor, ward's crash-recovery bit identity) and 2 if the
# run cannot be made at all. It runs ahead of the timing gates below so
# that a slow host cannot hide an audit failure. The one traced run adds
# the layer probe (the K = 1 and K = 16 ladder solves, the serial decode)
# and the per-window parts-sum check.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> codegen guard (every AVX2 frame of simd::on_tier holds vector code)"
# `hybridcs_linalg::simd::on_tier` runs a kernel inlined into
# `avx2_frame`, a frame compiled with AVX2 enabled. When LLVM declines to
# inline the kernel, the frame compiles to a bare call of baseline code:
# the AVX2 tier then runs scalar code, with the same bits, so no test can
# see it. Thin LTO vectorizes after the link step, so the guard
# disassembles the linked perfbench binary, which runs every kernel of the
# gateway's decode, and fails when an instance of the frame holds no ymm
# instruction or when it finds no instance at all. The frame exists on
# x86_64 only.
if [ "$(uname -m)" = "x86_64" ]; then
    AVX2_FRAMES="$(objdump -d --no-show-raw-insn perfbench/target/release/perfbench | awk '
        /^[0-9a-f]+ <.*avx2_frame.*>:$/ { f = $2; n = 0; next }
        f && /ymm/ { n++ }
        /^$/ && f { print n, f; f = "" }
        END { if (f) print n, f }')"
    echo "ymm instructions per avx2_frame instance:"
    echo "$AVX2_FRAMES"
    if [ -z "$AVX2_FRAMES" ]; then
        echo "error: found no avx2_frame instance in perfbench" >&2
        exit 1
    fi
    if awk '$1 == 0 { bad = 1 } END { exit !bad }' <<<"$AVX2_FRAMES"; then
        echo "error: an avx2_frame instance holds no ymm instruction (kernel not inlined)" >&2
        exit 1
    fi
fi

# perfbench's own unit tests: its audit, statistics and argument parsing.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in capacity ward link; do
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --ward-sessions 8 --workload "$workload" --seed 1 --seconds 5 --trace 0
done
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --ward-sessions 8 --workload capacity --seed 1 --seconds 5 --trace 1

echo "==> observability round-trip (obs-enabled quickstart + JSONL check)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
HYBRIDCS_OBS=1 HYBRIDCS_OBS_DIR="$OBS_TMP" \
    cargo run -q --release --offline --example quickstart
if [ ! -s "$OBS_TMP/quickstart.jsonl" ]; then
    echo "error: obs-enabled quickstart did not export quickstart.jsonl" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$OBS_TMP/quickstart.jsonl" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema

echo "==> fault-injection smoke run (seeded GE burst loss through the decode ladder)"
# The example exits non-zero if any window fails to produce a finite
# reconstruction or SNR does not degrade monotonically with loss; also
# assert the 100% per-window output rate line and the JSONL rung export.
RESILIENCE_OUT="$(HYBRIDCS_OBS=1 HYBRIDCS_OBS_DIR="$OBS_TMP" \
    cargo run -q --release --offline --example resilience_report)"
if ! grep -q "every window at every loss rate produced a finite reconstruction" \
    <<<"$RESILIENCE_OUT"; then
    echo "error: resilience_report did not certify full per-window output" >&2
    exit 1
fi
if [ ! -s "$OBS_TMP/resilience_report.jsonl" ]; then
    echo "error: resilience_report did not export ladder-rung counters as JSONL" >&2
    exit 1
fi
if ! grep -q "supervisor_rung_total" "$OBS_TMP/resilience_report.jsonl"; then
    echo "error: resilience_report JSONL is missing supervisor_rung_total" >&2
    exit 1
fi
# Pin every sweep row (loss, hybrid, cs-only, lowres, concealed, retries,
# recovered, mean SNR): the sweep is seeded, so a drift in the decode
# ladder's rung policy shows up here.
for row in "0% +168 +0 +0 +0 +0 +0 +20\.6 dB" \
    "5% +165 +0 +1 +2 +8 +2 +20\.3 dB" \
    "20% +150 +4 +4 +10 +30 +11 +18\.7 dB" \
    "50% +129 +2 +4 +33 +96 +24 +15\.9 dB"; do
    if ! grep -qE "^ +$row\$" <<<"$RESILIENCE_OUT"; then
        echo "error: resilience_report sweep row drifted from '$row'" >&2
        exit 1
    fi
done

echo "==> lossy-link run (dropped packets and section CRC hits through the decode ladder)"
# The example streams a seeded strip over a link that drops whole packets
# and flips bits in either payload section. Assert every row of its rung
# table, its section-loss line (read from supervisor_section_lost_total),
# and the schema of its JSONL export.
LOSSY_OUT="$(HYBRIDCS_OBS=1 HYBRIDCS_OBS_DIR="$OBS_TMP" \
    cargo run -q --release --offline --example lossy_link)"
for row in "hybrid (both sections)" "CS only" "low-res only" "concealed"; do
    if ! grep -q "^  $row " <<<"$LOSSY_OUT"; then
        echo "error: lossy_link rung table is missing its '$row' row" >&2
        exit 1
    fi
done
# Pin the rung table's values (identical under HYBRIDCS_FORCE_SCALAR=1):
# a drift in the decode ladder's rung policy fails here.
for row in "hybrid \(both sections\) +13 windows, mean SNR 18\.7 dB" \
    "CS only +5 windows, mean SNR 2\.1 dB" \
    "low-res only +1 windows, mean SNR 21\.2 dB" \
    "concealed +2 windows"; do
    if ! grep -qE "^  $row\$" <<<"$LOSSY_OUT"; then
        echo "error: lossy_link rung table drifted from '$row'" >&2
        exit 1
    fi
done
if ! grep -qE '^  sections lost to CRC +cs [0-9]+, lowres [0-9]+$' <<<"$LOSSY_OUT"; then
    echo "error: lossy_link did not print its section-loss line" >&2
    exit 1
fi
if ! grep -q "supervisor_section_lost_total" "$OBS_TMP/lossy_link.jsonl"; then
    echo "error: lossy_link JSONL is missing supervisor_section_lost_total" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$OBS_TMP/lossy_link.jsonl" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema

echo "==> solver ablation pin (every baseline solver's SNR and iterations by value)"
# The bin decodes one seeded window with every solver at m = 32 and m = 96.
# Pin each row's SNR and iteration count, in order, but not its time: ADMM,
# FISTA, OMP, CoSaMP and IHT otherwise reach CI only through unit tests
# with loose bounds. The pinned columns are identical under
# HYBRIDCS_FORCE_SCALAR=1.
ABLATION_OUT="$(cargo run -q --release --offline -p hybridcs-bench --bin ablation_solvers)"
ABLATION_ROWS="$(awk -F' *[|] *' '/^--- m = / { print } \
    /^(PDHG|ADMM|FISTA|OMP|CoSaMP|IHT) / { print $1, $2, $3, $4 }' <<<"$ABLATION_OUT")"
ABLATION_PINNED="--- m = 32 (CR 93.8%) ---
PDHG yes 19.48 3000
ADMM yes 19.68 600
PDHG no 2.24 3000
ADMM no 2.26 600
FISTA no 2.52 1000
OMP no -0.58 10
CoSaMP no -3.30 26
IHT no 0.87 60
--- m = 96 (CR 81.2%) ---
PDHG yes 20.60 3000
ADMM yes 20.39 600
PDHG no 4.59 3000
ADMM no 4.56 600
FISTA no 4.61 783
OMP no 5.18 32
CoSaMP no -0.70 60
IHT no 1.71 60"
if [ "$ABLATION_ROWS" != "$ABLATION_PINNED" ]; then
    echo "error: ablation_solvers rows drifted from their pinned SNR/iterations:" >&2
    diff <(echo "$ABLATION_PINNED") <(echo "$ABLATION_ROWS") >&2 || true
    exit 1
fi

echo "==> committed results (eight regenerators diffed against results/)"
# The first six bins decode one generated window serially; the Fig. 7 and
# Fig. 8 sweeps decode the 48-record corpus (a few minutes each), every
# record into its own slot whatever the thread count. None prints a time
# column, so each output is fixed (identical under
# HYBRIDCS_FORCE_SCALAR=1): a change that moves it must regenerate the
# committed file, which EXPERIMENTS.md quotes. `ablation_weighted_l1` and
# `ablation_matrix` are the only end-to-end runs of weighted PDHG,
# `solve_reweighted` and the sparse-binary sensing kind.
for bin in ablation_resolution ablation_wavelets fig2_lowres_window fig9_examples \
    ablation_weighted_l1 ablation_matrix fig7_quality_vs_cr fig8_boxplots; do
    if ! diff -u "results/$bin.txt" \
        <(cargo run -q --release --offline -p hybridcs-bench --bin "$bin"); then
        echo "error: $bin output drifted from results/$bin.txt" >&2
        exit 1
    fi
done

echo "==> gateway soak (8 sessions: determinism across worker counts + interleavings)"
# The soak exits non-zero if any session's output differs across worker
# counts {1,4,8} or the two frame interleavings, if admission shedding
# never fired, or (on multi-core hosts) if batched decode fails its
# speedup floor. Its bench report must pass the same JSONL schema
# checker as every other observability export.
GATEWAY_BENCH="$OBS_TMP/BENCH_gateway.json"
FLIGHT_DUMP="$OBS_TMP/FLIGHT_gateway.jsonl"
PROM_OUT="$OBS_TMP/METRICS_gateway.prom"
SOAK_OUT="$(HYBRIDCS_SOAK_SESSIONS=8 HYBRIDCS_GATEWAY_BENCH_PATH="$GATEWAY_BENCH" \
    HYBRIDCS_FLIGHT_PATH="$FLIGHT_DUMP" HYBRIDCS_PROM_PATH="$PROM_OUT" \
    cargo run -q --release --offline --example gateway_soak)"
if ! grep -q "deterministic across worker counts" <<<"$SOAK_OUT"; then
    echo "error: gateway_soak did not certify deterministic outputs" >&2
    exit 1
fi
if ! grep -q "bit-identical with telemetry enabled" <<<"$SOAK_OUT"; then
    echo "error: gateway_soak did not certify telemetry-on bit-identity" >&2
    exit 1
fi
if [ "$(grep -c '^gateway slo ' <<<"$SOAK_OUT")" -lt 2 ]; then
    echo "error: gateway_soak evaluated fewer than two SLOs" >&2
    exit 1
fi
if [ ! -s "$GATEWAY_BENCH" ]; then
    echo "error: gateway_soak did not write BENCH_gateway.json" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$GATEWAY_BENCH" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema
# The anomaly flight dump must exist, carry the injected watchdog trips,
# and pass the same line-by-line schema checker as every JSONL export.
if [ ! -s "$FLIGHT_DUMP" ]; then
    echo "error: gateway_soak did not write the anomaly flight dump" >&2
    exit 1
fi
if ! grep -q '"event":"watchdog_trip"' "$FLIGHT_DUMP"; then
    echo "error: flight dump is missing the injected watchdog trips" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$FLIGHT_DUMP" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema
if ! grep -q '^# TYPE gateway_frame_to_commit_seconds histogram' "$PROM_OUT"; then
    echo "error: prometheus exposition is missing frame-to-commit latency" >&2
    exit 1
fi

echo "==> crash-recovery gate (kill-point sweep + journal-overhead ceiling)"
# The example journals a lossy multi-session run, kills the store at a
# sweep of record indices under every tail-fault flavour, and exits
# non-zero if any recovery diverges from the durable-prefix oracle, a
# corrupt tail goes undetected, no recovery restores a checkpoint, or the
# journal costs more than its wall-clock ceiling on the solve-heavy
# throughput workload. Its bench report is schema-checked like the rest.
RECOVERY_BENCH="$OBS_TMP/BENCH_recovery.json"
CRASH_OUT="$(HYBRIDCS_CRASH_SESSIONS=8 HYBRIDCS_CRASH_KILLPOINTS=4 \
    HYBRIDCS_RECOVERY_BENCH_PATH="$RECOVERY_BENCH" \
    cargo run -q --release --offline --example crash_recovery)"
if ! grep -q "crash recovery: OK" <<<"$CRASH_OUT"; then
    echo "error: crash_recovery did not pass its gates" >&2
    exit 1
fi
if [ "$(grep -c "state equivalent" <<<"$CRASH_OUT")" -lt 4 ]; then
    echo "error: crash_recovery audited fewer than four recoveries" >&2
    exit 1
fi
if ! grep -q "outputs bit-identical" <<<"$CRASH_OUT"; then
    echo "error: crash_recovery did not certify journal-on bit-identity" >&2
    exit 1
fi
if [ ! -s "$RECOVERY_BENCH" ]; then
    echo "error: crash_recovery did not write BENCH_recovery.json" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$RECOVERY_BENCH" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema

echo "==> ingest soak gate (1000 concurrent loopback sessions + determinism audit)"
# The example exits non-zero unless every one of the 1000 scale-phase
# sessions (a quarter through the faulty radio) and every
# fidelity-phase session completes AND the recorded gateway-call log —
# replayed in both recorded and session-major order into a fresh
# in-process gateway — reproduces the live socket outputs bit-for-bit.
# 10k+ sessions work locally via HYBRIDCS_INGEST_SESSIONS; CI pins the
# acceptance floor. Its bench report and flight dump are schema-checked.
INGEST_BENCH="$OBS_TMP/BENCH_ingest.json"
INGEST_OUT="$(HYBRIDCS_INGEST_SESSIONS=1000 \
    HYBRIDCS_INGEST_BENCH_PATH="$INGEST_BENCH" \
    HYBRIDCS_INGEST_FLIGHT_PATH="$OBS_TMP/FLIGHT_ingest.jsonl" \
    HYBRIDCS_INGEST_PROM_PATH="$OBS_TMP/METRICS_ingest.prom" \
    cargo run -q --release --offline --example ingest_soak)"
if ! grep -q "ingest scale: 1000 concurrent sessions" <<<"$INGEST_OUT"; then
    echo "error: ingest_soak did not sustain 1000 concurrent sessions" >&2
    exit 1
fi
if [ "$(grep -c "bit-identical to in-process replay (recorded + session-major)" \
    <<<"$INGEST_OUT")" -lt 2 ]; then
    echo "error: ingest_soak did not certify both determinism audits" >&2
    exit 1
fi
if ! grep -q "events schema-valid" <<<"$INGEST_OUT"; then
    echo "error: ingest_soak did not validate its flight dump" >&2
    exit 1
fi
if [ ! -s "$INGEST_BENCH" ]; then
    echo "error: ingest_soak did not write BENCH_ingest.json" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$INGEST_BENCH" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema

echo "==> journal + wire fuzz (deep property pass over mutated and random streams)"
# The workspace test run above already covers these properties at the
# default case count; this pass triples it so torn/bit-flipped/garbage
# journal images and wire byte streams get real coverage on every CI run.
HYBRIDCS_CHECK_CASES=192 \
    cargo test -q --release --offline -p hybridcs-gateway --test journal_fuzz
HYBRIDCS_CHECK_CASES=192 \
    cargo test -q --release --offline -p hybridcs-net --test proto_fuzz

echo "==> telemetry-overhead gate (flight recorder + spans on vs off, <=5%)"
# The bin pushes the same frame stream through identical gateways with
# telemetry off and on, asserts bit-identical decodes, and exits non-zero
# if the median of its per-round on/off time ratios (seven pairs, order
# alternating each round, so host drift cancels) exceeds the limit. Its
# report is schema-checked. Like the decode-throughput gate after it, it
# runs after the correctness steps: a wall-clock limit must not skip them.
OBS_BENCH="$OBS_TMP/BENCH_obs.json"
OVERHEAD_OUT="$(HYBRIDCS_OBS_BENCH_PATH="$OBS_BENCH" \
    cargo run -q --release --offline -p hybridcs-bench --bin obs_overhead)"
grep -E '^(decode throughput|telemetry overhead):' <<<"$OVERHEAD_OUT" || true
if ! grep -q "obs overhead: OK" <<<"$OVERHEAD_OUT"; then
    echo "error: obs_overhead did not pass its gate" >&2
    exit 1
fi
if [ ! -s "$OBS_BENCH" ]; then
    echo "error: obs_overhead did not write BENCH_obs.json" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$OBS_BENCH" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema

echo "==> decode-throughput gates (zero-alloc hot path + speedup floors + batched K-sweep)"
# The example runs under a counting global allocator and exits non-zero if
# a span of steady-state workspace solves (serial or batched) performs any
# heap allocation, if the optimized decode path fails its 2x throughput
# floor over the retained pre-optimization baseline, if the best
# batched+SIMD configuration fails its 3x floor (AVX2 hosts; each speed
# floor compares medians of interleaved passes), or if any batched
# configuration is not bit-identical to the serial decode. Its
# bench report must pass the shared JSONL schema checker; the K-sweep
# throughput lines and the gate ratios are republished below so CI logs
# carry the numbers.
# It runs last among the gates: its floors are wall-clock ratios, and a
# slow host failing them must not skip the correctness steps above.
DECODE_BENCH="$OBS_TMP/BENCH_decode.json"
DECODE_OUT="$(HYBRIDCS_DECODE_WINDOWS=8 HYBRIDCS_DECODE_BENCH_PATH="$DECODE_BENCH" \
    cargo run -q --release --offline --example decode_throughput)"
if ! grep -q "decode bench: OK" <<<"$DECODE_OUT"; then
    echo "error: decode_throughput did not pass its gates" >&2
    exit 1
fi
if ! grep -q "0 heap allocations" <<<"$DECODE_OUT"; then
    echo "error: decode_throughput did not certify a zero-allocation hot path" >&2
    exit 1
fi
if [ "$(grep -c '^decode bench: batched k = ' <<<"$DECODE_OUT")" -lt 4 ]; then
    echo "error: decode_throughput swept fewer than four batched configurations" >&2
    exit 1
fi
if ! grep -q "batched configurations bit-identical to the serial decode" <<<"$DECODE_OUT"; then
    echo "error: decode_throughput did not certify batched bit-identity" >&2
    exit 1
fi
grep -E '^decode bench: (batched k = |baseline |gate |OK)' <<<"$DECODE_OUT"
if [ ! -s "$DECODE_BENCH" ]; then
    echo "error: decode_throughput did not write BENCH_decode.json" >&2
    exit 1
fi
HYBRIDCS_OBS_CHECK="$DECODE_BENCH" \
    cargo test -q --release --offline -p hybridcs-obs --test jsonl_schema

echo "==> verifying Cargo.lock stays registry-free"
if grep -E '^source = ' Cargo.lock; then
    echo "error: Cargo.lock references an external registry source" >&2
    echo "       (the workspace must stay hermetic — path deps only)" >&2
    exit 1
fi

echo "ci: all checks passed"
