//! Decode-throughput baseline: the zero-allocation hot path versus the
//! pre-optimization decode, measured in the same process.
//!
//! ```sh
//! cargo run --release --example decode_throughput
//! ```
//!
//! Four phases, all gated (the process exits non-zero on any failure):
//!
//! 1. **Equivalence** — the same encoded windows are decoded through two
//!    paths whose outputs are asserted to agree to near machine precision:
//!    * *baseline*: the pre-optimization shape — unpacked `±1` sensing
//!      rows folded serially (one multiply-accumulate chain per row, the
//!      arithmetic the packed kernels replaced), a fresh power iteration
//!      for `‖A‖` on every decode, and the Vec-returning solver entry
//!      point (fresh buffers per solve);
//!    * *optimized*: [`HybridDecoder::decode_workspace`] — bit-packed
//!      sensing with table-driven 4-wide kernels, the decoder's cached
//!      norm estimate, and one reused [`SolverWorkspace`].
//!
//!    The two paths differ only in summation grouping (4-wide vs serial),
//!    so agreement is checked at a tight relative tolerance rather than
//!    bit equality.
//! 2. **Zero-allocation gate** — with the process running under the
//!    [`hybridcs_bench::alloc_counter::CountingAllocator`], a span of
//!    steady-state workspace solves (problems pre-built, workspace
//!    warmed, recovered signals recycled) must perform **zero** heap
//!    allocations. [`solve_pdhg`] runs the lockstep PDHG body on a
//!    one-window batch, so this gates that body's one-window entry. The
//!    same gate then runs against steady-state *batched* solves
//!    ([`solve_pdhg_batch`]) at K = 1 (the panel is one contiguous lane),
//!    K = 5 (one 4-wide vector plus a lane through the serial kernels)
//!    and K = 8: zero allocations there too.
//! 3. **Batched K-sweep** — the corpus is re-solved through the batched
//!    lockstep path at K ∈ {1, 3, 4, 5, 8, 16} windows per batch, once
//!    per tier the host has (scalar, AVX2+FMA, AVX-512F, each pinned via
//!    [`set_override`]). Every configuration is asserted
//!    **bit-identical** to the serial decode, one [`solve_pdhg`] per
//!    window — the batched solves vectorize across the batch dimension
//!    only, so the per-window arithmetic never changes — and its
//!    single-pass throughput goes into the report.
//! 4. **Speed gates** — host speed drifts during a run, so each gated
//!    configuration is timed interleaved with its reference over
//!    [`GATE_PASSES`] passes (every pass decodes the whole corpus once
//!    per configuration, in alternating order), and each
//!    gate compares the *medians* of the two. The optimized path must
//!    be ≥ 2× the baseline, and the best batched configuration on a
//!    vector tier (AVX2 or AVX-512) ≥ 3× the baseline (gated only when
//!    the host has AVX2+FMA).
//!
//! The bench report (`BENCH_decode.json` by default, JSONL in the
//! `hybridcs-obs` export schema) carries the per-window latency
//! histograms of the gate passes and the `decode_bench_*` gauges,
//! including one `decode_bench_batch_windows_per_s{k=…, tier=…}` point
//! per sweep configuration.
//!
//! Environment knobs: `HYBRIDCS_DECODE_WINDOWS` (default 12),
//! `HYBRIDCS_DECODE_BENCH_PATH` (default `BENCH_decode.json`). The
//! process-wide `HYBRIDCS_FORCE_SCALAR=1` pin is ignored here — the sweep
//! and the gates drive the tier explicitly through the in-process
//! override.

use hybridcs::codec::experiment::default_training_windows;
use hybridcs::codec::{
    train_lowres_codec, DecoderAlgorithm, EncodedWindow, HybridDecoder, HybridFrontEnd,
    SensingOperator, SystemConfig,
};
use hybridcs::ecg::{EcgGenerator, GeneratorConfig};
use hybridcs::frontend::{LowResChannel, LowResFrame, SensingMatrix};
use hybridcs::linalg::simd::{available_tiers, set_override, simd_available, Tier};
use hybridcs::solver::{
    solve_pdhg, solve_pdhg_batch, BatchProblem, BpdnProblem, IterationObserver, LinearOperator,
    NoopObserver, PdhgOptions, RecoveryResult, SolverWorkspace,
};
use hybridcs_bench::alloc_counter::{self, CountingAllocator};
use std::time::Instant;

// The allocator must be global for the Phase-2 gate to observe the solver;
// it delegates to `System` and is free until `start_counting` arms it.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Throughput floor the optimized path must clear over the baseline.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Throughput floor the best batched+SIMD configuration must clear over
/// the baseline (gated only when the host has the AVX2+FMA tier).
const BATCHED_SPEEDUP_FLOOR: f64 = 3.0;

/// Batch widths swept in phase 3.
const BATCH_WIDTHS: [usize; 6] = [1, 3, 4, 5, 8, 16];

/// Batch widths of the batched zero-allocation gate (each capped at the
/// corpus size).
const ALLOC_GATE_WIDTHS: [usize; 3] = [1, 5, 8];

/// Interleaved passes behind each median of the phase-4 speed gates.
const GATE_PASSES: usize = 5;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The pre-optimization sensing operator: unpacked `±1` chips stored one
/// `f64` each, folded with a single serial multiply-accumulate chain per
/// row (forward) and row-sequential accumulation (adjoint) — the exact
/// arithmetic the packed table-driven kernels replaced — plus the
/// trait-default `norm_est` (a fresh power iteration per call, i.e. per
/// decode, exactly what the decoder did before the norm was cached).
struct SerialBernoulli {
    rows: Vec<Vec<f64>>,
    scale: f64,
    n: usize,
}

impl SerialBernoulli {
    fn of(sensing: &SensingMatrix) -> Self {
        let mat = sensing.to_matrix();
        let rows = (0..sensing.measurements())
            .map(|i| {
                (0..sensing.window())
                    .map(|j| if mat.get(i, j) < 0.0 { -1.0 } else { 1.0 })
                    .collect()
            })
            .collect();
        SerialBernoulli {
            rows,
            scale: 1.0 / (sensing.window() as f64).sqrt(),
            n: sensing.window(),
        }
    }
}

impl LinearOperator for SerialBernoulli {
    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        for (yi, row) in out.iter_mut().zip(&self.rows) {
            let acc: f64 = row.iter().zip(x).map(|(c, v)| c * v).sum();
            *yi = self.scale * acc;
        }
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (row, &yi) in self.rows.iter().zip(y) {
            let w = self.scale * yi;
            for (xj, c) in out.iter_mut().zip(row) {
                *xj += w * c;
            }
        }
    }
}

/// Entropy-decodes one window's low-resolution stream into box bounds —
/// the same steps `decode_workspace` performs internally, repeated here so
/// the baseline pays the identical side-channel cost.
fn decode_bounds(
    codec: &hybridcs::coding::LowResCodec,
    channel: &LowResChannel,
    encoded: &EncodedWindow,
) -> Result<(Vec<f64>, Vec<f64>), Box<dyn std::error::Error>> {
    let codes = codec.decode(&encoded.lowres, encoded.window_len)?;
    Ok(LowResFrame::from_codes(codes, channel)?.bounds())
}

/// Decodes every problem once through the batched lockstep path at width
/// `k` (chunks of `k`, the last one ragged) on the current SIMD tier.
/// With a `reference` (the serial results and the tier's name), every
/// window must reproduce it bit for bit.
fn batched_pass(
    problems: &[BpdnProblem<'_>],
    k: usize,
    opts: &PdhgOptions,
    ws: &mut SolverWorkspace,
    reference: Option<(&[RecoveryResult], &str)>,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut noops: Vec<NoopObserver> = (0..k).map(|_| NoopObserver).collect();
    let mut out: Vec<Option<RecoveryResult>> = Vec::new();
    for (ci, chunk) in problems.chunks(k).enumerate() {
        let batch = BatchProblem::new(chunk)?;
        let mut refs: Vec<&mut dyn IterationObserver> = noops
            .iter_mut()
            .take(chunk.len())
            .map(|o| o as &mut dyn IterationObserver)
            .collect();
        solve_pdhg_batch(&batch, opts, &mut refs, ws, &mut out)?;
        for (j, slot) in out.iter_mut().enumerate() {
            let got = slot.take().expect("batch solvers fill every window");
            if let Some((serial, tier)) = reference {
                let want = &serial[ci * k + j];
                assert_eq!(
                    (got.iterations, got.converged),
                    (want.iterations, want.converged),
                    "batched decode (k = {k}, {tier}) diverged from serial at window {}",
                    ci * k + j
                );
                assert!(
                    got.signal.len() == want.signal.len()
                        && got
                            .signal
                            .iter()
                            .zip(&want.signal)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "batched decode (k = {k}, {tier}) not bit-identical to serial at \
                     window {}",
                    ci * k + j
                );
            }
            ws.release(got.signal);
        }
    }
    Ok(())
}

/// Heap allocations of one steady-state batched solve of `problems`:
/// observer refs and the `out` vector built once, the workspace warmed
/// with the panel shapes the counted solve will acquire.
fn batched_allocations(
    problems: &[BpdnProblem<'_>],
    opts: &PdhgOptions,
    ws: &mut SolverWorkspace,
) -> Result<u64, Box<dyn std::error::Error>> {
    let batch = BatchProblem::new(problems)?;
    let mut noops: Vec<NoopObserver> = problems.iter().map(|_| NoopObserver).collect();
    let mut refs: Vec<&mut dyn IterationObserver> = noops
        .iter_mut()
        .map(|o| o as &mut dyn IterationObserver)
        .collect();
    let mut out: Vec<Option<RecoveryResult>> = Vec::new();
    for _ in 0..2 {
        solve_pdhg_batch(&batch, opts, &mut refs, ws, &mut out)?;
        release_outputs(&mut out, ws);
    }
    alloc_counter::start_counting();
    let solved = solve_pdhg_batch(&batch, opts, &mut refs, ws, &mut out);
    release_outputs(&mut out, ws);
    let allocations = alloc_counter::stop_counting();
    solved?;
    Ok(allocations)
}

/// Hands every solved signal in `out` back to the workspace.
fn release_outputs(out: &mut [Option<RecoveryResult>], ws: &mut SolverWorkspace) {
    for result in out.iter_mut().filter_map(Option::take) {
        ws.release(result.signal);
    }
}

/// One configuration of the interleaved speed gates.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// The retained pre-optimization decode.
    Baseline,
    /// `HybridDecoder::decode_workspace`, one window at a time.
    Serial,
    /// The batched lockstep path at width `k` on a vector tier.
    Batched { k: usize, tier: Tier },
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let windows = env_usize("HYBRIDCS_DECODE_WINDOWS", 12).max(1);
    let bench_path =
        std::env::var("HYBRIDCS_DECODE_BENCH_PATH").unwrap_or_else(|_| "BENCH_decode.json".into());
    let registry = hybridcs::obs::global();

    let config = SystemConfig::default(); // 512-sample windows, m = 96
    let DecoderAlgorithm::Pdhg(pdhg) = &config.algorithm else {
        return Err("decode bench expects the default PDHG configuration".into());
    };
    let opts: PdhgOptions = *pdhg;
    let lowres = train_lowres_codec(config.lowres_bits, &default_training_windows(config.window))?;
    let frontend = HybridFrontEnd::new(&config, lowres.clone())?;
    let decoder = HybridDecoder::new(&config, lowres.clone())?;

    // Encode the corpus once; both paths decode the same payloads.
    let physiology = GeneratorConfig::normal_sinus();
    let seconds = (windows * config.window) as f64 / physiology.fs_hz + 2.0;
    let strip = EcgGenerator::new(physiology)?.generate(seconds, 0xDEC0);
    let encoded: Vec<EncodedWindow> = strip
        .chunks_exact(config.window)
        .take(windows)
        .map(|w| frontend.encode(w))
        .collect::<Result<_, _>>()?;
    assert_eq!(encoded.len(), windows, "strip long enough for all windows");
    println!(
        "decode bench: {windows} windows of {} samples, m = {}, PDHG x {} iterations",
        config.window, config.measurements, opts.max_iterations
    );

    // Baseline machinery: the decoder's exact matrix, pre-change arithmetic.
    let sensing = SensingMatrix::bernoulli(config.measurements, config.window, config.seed)?;
    let serial = SerialBernoulli::of(&sensing);
    let dwt = config.dwt()?;
    let channel = LowResChannel::new(config.lowres_bits)?;
    let sigma = decoder.sigma();

    let decode_baseline = |w: &EncodedWindow| -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let (lo, hi) = decode_bounds(&lowres, &channel, w)?;
        let problem = BpdnProblem {
            sensing: &serial,
            dwt: &dwt,
            measurements: &w.measurements,
            sigma,
            box_bounds: Some((&lo[..], &hi[..])),
            coefficient_weights: None,
        };
        Ok(solve_pdhg(
            &problem,
            &opts,
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?
        .signal)
    };

    // --- phase 1: equivalence: the optimized path changes nothing but speed
    // The packed kernels fold in groups of four where the baseline folds
    // serially; that summation regrouping perturbs each matvec at the
    // rounding level (~1e-16 relative), so full decodes must agree to a
    // tight relative tolerance rather than bit-for-bit.
    let mut ws = SolverWorkspace::new();
    for w in encoded.iter().take(2) {
        let base = decode_baseline(w)?;
        let opt = decoder.decode_workspace(w, true, &mut NoopObserver, &mut ws)?;
        assert_eq!(base.len(), opt.signal.len());
        let span = base.iter().fold(0.0f64, |a, b| a.max(b.abs())).max(1e-12);
        for (i, (b, o)) in base.iter().zip(&opt.signal).enumerate() {
            assert!(
                (b - o).abs() <= 1e-9 * span,
                "optimized decode diverged from baseline at sample {i}: {b} vs {o}"
            );
        }
    }
    println!("decode bench: baseline and optimized decodes agree to 1e-9 relative");

    // --- phase 2: zero-allocation gate --------------------------------
    // Problems are pre-built (operator, bounds, measurements) and the
    // workspace warmed, so the counted span is pure steady-state solver
    // work — the regime a long-running gateway shard sits in.
    let norm = SensingOperator::new(&sensing).norm_est();
    let operator = SensingOperator::with_norm(&sensing, norm);
    let bounds: Vec<(Vec<f64>, Vec<f64>)> = encoded
        .iter()
        .map(|w| decode_bounds(&lowres, &channel, w))
        .collect::<Result<_, _>>()?;
    let problems: Vec<BpdnProblem<'_>> = encoded
        .iter()
        .zip(&bounds)
        .map(|(w, (lo, hi))| BpdnProblem {
            sensing: &operator,
            dwt: &dwt,
            measurements: &w.measurements,
            sigma,
            box_bounds: Some((&lo[..], &hi[..])),
            coefficient_weights: None,
        })
        .collect();
    for problem in &problems {
        let warm = solve_pdhg(problem, &opts, &mut NoopObserver, &mut ws)?;
        ws.release(warm.signal);
    }

    alloc_counter::start_counting();
    for problem in &problems {
        match solve_pdhg(problem, &opts, &mut NoopObserver, &mut ws) {
            Ok(result) => ws.release(result.signal),
            Err(e) => {
                let _ = alloc_counter::stop_counting();
                return Err(e.into());
            }
        }
    }
    let allocations = alloc_counter::stop_counting();
    #[allow(clippy::cast_precision_loss)]
    let allocs_per_window = allocations as f64 / windows as f64;
    println!(
        "decode bench: {allocations} heap allocations across {windows} steady-state solves \
         ({allocs_per_window:.2}/window)"
    );

    // Same gate, batched path: a lone lane (the contiguous serial
    // kernels, in place), one vector plus a serial lane, and two vectors.
    let mut batch_allocations: Vec<(usize, u64)> = Vec::new();
    for gate_k in ALLOC_GATE_WIDTHS.map(|k| k.min(windows)) {
        if batch_allocations.iter().any(|&(k, _)| k == gate_k) {
            continue;
        }
        let counted = batched_allocations(&problems[..gate_k], &opts, &mut ws)?;
        println!(
            "decode bench: {counted} heap allocations across one steady-state \
             {gate_k}-window batched solve"
        );
        #[allow(clippy::cast_precision_loss)]
        registry
            .gauge(
                "decode_bench_batch_allocations",
                &[("k", &format!("{gate_k}"))],
            )
            .set(counted as f64);
        batch_allocations.push((gate_k, counted));
    }

    // --- phase 3: batched K-sweep across SIMD tiers --------------------
    // The serial workspace solves are the reference; every batched
    // configuration must reproduce them bit for bit (the lockstep loop
    // preserves each window's accumulation order exactly, and the SIMD
    // kernels are 0-ULP twins of the scalar tier). One warm-up pass
    // (workspace panels sized for this K), one timed pass.
    let reference: Vec<RecoveryResult> = problems
        .iter()
        .map(|p| solve_pdhg(p, &opts, &mut NoopObserver, &mut ws))
        .collect::<Result<_, _>>()?;

    if !simd_available() {
        println!("decode bench: host lacks AVX2+FMA — sweeping the scalar tier only");
    }
    let mut best_batched_simd: Option<(usize, Tier, f64)> = None;
    for tier in available_tiers() {
        set_override(Some(tier));
        let name = tier.name();
        for k in BATCH_WIDTHS {
            batched_pass(&problems, k, &opts, &mut ws, Some((&reference, name)))?;
            let started = Instant::now();
            batched_pass(&problems, k, &opts, &mut ws, Some((&reference, name)))?;
            let secs = started.elapsed().as_secs_f64();
            let batch_throughput = windows as f64 / secs;
            println!(
                "decode bench: batched k = {k:2} {name:6} {batch_throughput:8.1} windows/s \
                 (one pass)"
            );
            registry
                .gauge(
                    "decode_bench_batch_windows_per_s",
                    &[("k", &format!("{k}")), ("tier", name)],
                )
                .set(batch_throughput);
            if tier != Tier::Scalar && k > 1 && best_batched_simd.is_none_or(|(_, _, s)| secs < s) {
                best_batched_simd = Some((k, tier, secs));
            }
        }
    }
    set_override(None);
    println!(
        "decode bench: all {} batched configurations bit-identical to the serial decode",
        available_tiers().count() * BATCH_WIDTHS.len()
    );

    // --- phase 4: speed gates, interleaved -----------------------------
    // Host speed drifts for seconds at a time, so a configuration timed
    // once, minutes after its reference, gates the drift as much as the
    // code. Every pass decodes the corpus once per path (order reversed
    // on odd passes), so each gated configuration alternates with its
    // reference; the gates compare medians over the passes.
    let mut paths = vec![Path::Baseline, Path::Serial];
    paths.extend(best_batched_simd.map(|(k, tier, _)| Path::Batched { k, tier }));
    let h_base = registry.histogram("decode_window_seconds", &[("path", "baseline")]);
    let h_opt = registry.histogram("decode_window_seconds", &[("path", "optimized")]);
    let mut pass_seconds: Vec<Vec<f64>> = vec![Vec::with_capacity(GATE_PASSES); paths.len()];
    for pass in 0..GATE_PASSES {
        let mut order: Vec<usize> = (0..paths.len()).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        for slot in order {
            let started = Instant::now();
            match paths[slot] {
                Path::Baseline => {
                    for w in &encoded {
                        let t = Instant::now();
                        std::hint::black_box(decode_baseline(w)?);
                        h_base.record(t.elapsed().as_secs_f64());
                    }
                }
                Path::Serial => {
                    for w in &encoded {
                        let t = Instant::now();
                        std::hint::black_box(decoder.decode_workspace(
                            w,
                            true,
                            &mut NoopObserver,
                            &mut ws,
                        )?);
                        h_opt.record(t.elapsed().as_secs_f64());
                    }
                }
                Path::Batched { k, tier } => {
                    set_override(Some(tier));
                    let decoded = batched_pass(&problems, k, &opts, &mut ws, None);
                    set_override(None);
                    decoded?;
                }
            }
            pass_seconds[slot].push(started.elapsed().as_secs_f64());
        }
    }
    let median_s = |path: Path| {
        let slot = paths
            .iter()
            .position(|&p| p == path)
            .expect("path was timed");
        median(&pass_seconds[slot])
    };
    let base_s = median_s(Path::Baseline);
    let opt_s = median_s(Path::Serial);
    let speedup = base_s / opt_s;
    let throughput = windows as f64 / opt_s;
    println!(
        "decode bench: baseline {:.1} windows/s, optimized {throughput:.1} windows/s \
         ({speedup:.2}x; medians of {GATE_PASSES} interleaved passes)",
        windows as f64 / base_s
    );
    let snapshot = registry.snapshot();
    for name in ["baseline", "optimized"] {
        if let Some(p) = snapshot
            .histogram_snapshot("decode_window_seconds", &[("path", name)])
            .and_then(hybridcs::obs::HistogramSnapshot::percentiles)
        {
            println!(
                "decode bench: {name} latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms",
                p.p50 * 1e3,
                p.p90 * 1e3,
                p.p99 * 1e3
            );
        }
    }
    let batched_speedup = best_batched_simd.map(|(k, tier, _)| {
        let s = base_s / median_s(Path::Batched { k, tier });
        println!(
            "decode bench: gate batched k = {k} {} {s:.2}x vs baseline",
            tier.name()
        );
        registry
            .gauge("decode_bench_batched_speedup", &[("k", &format!("{k}"))])
            .set(s);
        s
    });

    // --- report + gates -----------------------------------------------
    registry
        .gauge("decode_bench_windows", &[])
        .set(windows as f64);
    registry
        .gauge("decode_bench_baseline_seconds", &[])
        .set(base_s);
    registry
        .gauge("decode_bench_optimized_seconds", &[])
        .set(opt_s);
    registry
        .gauge("decode_bench_throughput_windows_per_s", &[])
        .set(throughput);
    registry.gauge("decode_bench_speedup", &[]).set(speedup);
    registry
        .gauge("decode_bench_allocations_per_window", &[])
        .set(allocs_per_window);
    let path = std::path::PathBuf::from(bench_path);
    hybridcs::obs::export::write_jsonl(&path, "decode_throughput", &registry.snapshot(), &[])?;
    println!("decode bench: report written to {}", path.display());

    if allocations != 0 {
        eprintln!(
            "error: solver hot path allocated {allocations} times after warm-up (expected 0)"
        );
        std::process::exit(1);
    }
    for &(k, counted) in &batch_allocations {
        if counted != 0 {
            eprintln!(
                "error: batched solver hot path (k = {k}) allocated {counted} times after \
                 warm-up (expected 0)"
            );
            std::process::exit(1);
        }
    }
    if speedup < SPEEDUP_FLOOR {
        eprintln!(
            "error: optimized decode speedup {speedup:.2}x below the {SPEEDUP_FLOOR:.1}x floor"
        );
        std::process::exit(1);
    }
    match batched_speedup {
        Some(s) if s < BATCHED_SPEEDUP_FLOOR => {
            eprintln!(
                "error: batched+SIMD decode speedup {s:.2}x below the \
                 {BATCHED_SPEEDUP_FLOOR:.1}x floor"
            );
            std::process::exit(1);
        }
        Some(s) => println!(
            "decode bench: OK ({speedup:.2}x serial, {s:.2}x batched+SIMD, \
             0 allocations/window)"
        ),
        None => println!("decode bench: OK ({speedup:.2}x, 0 allocations/window)"),
    }
    Ok(())
}
