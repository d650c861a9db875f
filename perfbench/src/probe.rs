//! Layer probe for the traced run: times the public kernels and ladder
//! entry points at panel widths K = 1 and K = 16 on the workload's own
//! m = 96 windows, and derives the per-iteration solve cost and how much
//! of it the kernel model covers.
//!
//! Kernel figures are ns per window-lane (one call ÷ K) at the active
//! SIMD tier. One PDHG iteration per window runs one sensing forward and
//! one adjoint, one DWT analysis and one synthesis, and one prox, so
//! `model_cover = iterations × Σ those kernels ÷ measured solve time`;
//! the uncovered share is element-wise updates and lockstep bookkeeping.

use std::hint::black_box;
use std::time::Instant;

use hybridcs_core::{
    DecodeLadder, EncodedWindow, HybridDecoder, LadderJob, LadderOutcome, ParsedSections,
};
use hybridcs_dsp::Dwt;
use hybridcs_frontend::SensingMatrix;
use hybridcs_solver::{NoopObserver, SolverWorkspace, WatchdogConfig};

use crate::gen::{BoxError, Shape};
use crate::report::ProbeInput;
use crate::stats::{median, ratio, Metrics};

/// The wide panel width (the gateway's default `max_decode_batch`).
pub const PANEL: usize = 16;
/// Samples per kernel timing, and the wall budget each sample aims for.
const SAMPLES: usize = 7;
const SAMPLE_S: f64 = 0.01;

/// Median ns per call of `f`: the call count is doubled until one
/// batch takes `SAMPLE_S`, then `SAMPLES` batches of that size are timed.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    while calls < 1 << 20 {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t0.elapsed().as_secs_f64() >= SAMPLE_S {
            break;
        }
        calls *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .collect();
    median(&samples)
}

fn job(p: &ParsedSections, skip_solvers: bool) -> LadderJob<'_> {
    LadderJob {
        measurements: p.measurements.as_deref(),
        lowres: p.lowres.as_ref(),
        skip_solvers,
        context: None,
    }
}

/// Lane iterations summed over the solver-backed outcomes.
fn iterations(outcomes: &[LadderOutcome]) -> f64 {
    outcomes
        .iter()
        .filter_map(|o| o.chosen.as_ref())
        .filter_map(|(_, _, decoded)| decoded.as_ref())
        .map(|d| d.recovery.iterations as f64)
        .sum()
}

pub fn run(shape: &Shape, input: &ProbeInput, layer: &mut Metrics) -> Result<(), BoxError> {
    if input.frames.len() < PANEL {
        return Err(format!(
            "probe needs {PANEL} m = 96 windows, run offered {}",
            input.frames.len()
        )
        .into());
    }
    let system = &shape.system;
    let (n, m) = (system.window, system.measurements);
    let ladder = DecodeLadder::new(system, shape.codec.clone(), WatchdogConfig::default())?;
    let decoder = HybridDecoder::new(system, shape.codec.clone())?;
    let mut ws = SolverWorkspace::new();

    // coding: frame parsing (CRC sections, header).
    let mut i = 0;
    let parse_ns = time_ns(|| {
        black_box(ladder.parse(Some(&input.frames[i % PANEL])));
        i += 1;
    });
    layer.set("coding.parse_us", parse_ns / 1e3, "us");
    let parsed: Vec<ParsedSections> = input.frames.iter().map(|f| ladder.parse(Some(f))).collect();
    if parsed
        .iter()
        .any(|p| p.measurements.is_none() || p.lowres.is_none())
    {
        return Err("probe frame lost a section".into());
    }

    // core: a shed window through the ladder (low-res rung only).
    let mut i = 0;
    let lowres_ns = time_ns(|| {
        let p = &parsed[i % PANEL];
        black_box(ladder.solve_with(p.measurements.as_deref(), p.lowres.as_ref(), true, &mut ws));
        i += 1;
    });
    layer.set("ladder.lowres_us", lowres_ns / 1e3, "us");

    // core/solver: serial decode, K = 1 and K = 16 ladder solves.
    let mut serial = Vec::new();
    for p in parsed.iter().take(3) {
        let encoded = EncodedWindow {
            measurements: p.measurements.clone().unwrap_or_default(),
            lowres: p.lowres.clone().ok_or("no low-res section")?,
            window_len: n,
            measurement_bits: system.measurement_bits,
        };
        let t0 = Instant::now();
        let decoded = decoder.decode_workspace(&encoded, true, &mut NoopObserver, &mut ws)?;
        serial.push(t0.elapsed().as_secs_f64());
        ws.release(decoded.recovery.signal);
    }
    layer.set("decoder.serial_ms", median(&serial) * 1e3, "ms");

    let mut k1 = Vec::new();
    let mut k1_iters = 0.0;
    for p in parsed.iter().take(2) {
        let t0 = Instant::now();
        let outcomes = ladder.solve_batch_with(&[job(p, false)], &mut ws);
        k1.push(t0.elapsed().as_secs_f64());
        k1_iters = iterations(&outcomes);
    }
    let k1_s = median(&k1);
    let jobs: Vec<LadderJob<'_>> = parsed.iter().map(|p| job(p, false)).collect();
    let t0 = Instant::now();
    let outcomes = ladder.solve_batch_with(&jobs, &mut ws);
    let k16_s = t0.elapsed().as_secs_f64();
    let k16_iters = iterations(&outcomes);
    layer.set("ladder.solve_ms.k1", k1_s * 1e3, "ms");
    layer.set("ladder.solve_ms.k16", k16_s * 1e3 / PANEL as f64, "ms");
    layer.set("solver.us_per_iter.k1", ratio(k1_s * 1e6, k1_iters), "us");
    layer.set(
        "solver.us_per_iter.k16",
        ratio(k16_s * 1e6, k16_iters),
        "us",
    );

    // frontend/dsp/linalg/solver kernels on panels of this run's windows.
    let sensing = SensingMatrix::bernoulli(m, n, system.seed)?;
    let dwt: Dwt = system.dwt()?;
    let mut model = [0.0f64; 2];
    for (slot, k) in [1usize, PANEL].into_iter().enumerate() {
        let mut x_panel = vec![0.0; n * k];
        let mut y_panel = vec![0.0; m * k];
        for lane in 0..k {
            for (j, v) in input.clean[lane].iter().enumerate() {
                x_panel[j * k + lane] = *v;
            }
            for (j, v) in parsed[lane]
                .measurements
                .as_deref()
                .unwrap_or_default()
                .iter()
                .enumerate()
            {
                y_panel[j * k + lane] = *v;
            }
        }
        let mut out_n = vec![0.0; n * k];
        let mut out_m = vec![0.0; m * k];
        let mut sense_scratch = vec![0.0; sensing.batch_scratch_len(k)];
        let mut dwt_scratch = vec![0.0; Dwt::panel_scratch_len(n, k)];
        let lanes = k as f64;
        let fwd = time_ns(|| {
            sensing.apply_batch_into_scratch(black_box(&x_panel), k, &mut out_m, &mut sense_scratch)
        }) / lanes;
        let adj = time_ns(|| {
            sensing.apply_adjoint_batch_into_scratch(
                black_box(&y_panel),
                k,
                &mut out_n,
                &mut sense_scratch,
            )
        }) / lanes;
        let dwt_fwd = time_ns(|| {
            black_box(dwt.forward_panel_into(black_box(&x_panel), k, &mut out_n, &mut dwt_scratch))
                .ok();
        }) / lanes;
        let dwt_inv = time_ns(|| {
            black_box(dwt.inverse_panel_into(black_box(&x_panel), k, &mut out_n, &mut dwt_scratch))
                .ok();
        }) / lanes;
        // Thresholds small enough that repeated calls barely move the panel.
        let thresholds = vec![1e-12; k];
        let mut panel = x_panel.clone();
        let prox = time_ns(|| {
            hybridcs_solver::simd::soft_threshold_lanes(black_box(&mut panel), &thresholds, k)
        }) / lanes;
        let tag = if k == 1 { "k1" } else { "k16" };
        layer.set(&format!("frontend.sense_fwd_ns.{tag}"), fwd, "ns");
        layer.set(&format!("frontend.sense_adj_ns.{tag}"), adj, "ns");
        layer.set(&format!("dsp.dwt_fwd_ns.{tag}"), dwt_fwd, "ns");
        layer.set(&format!("dsp.dwt_inv_ns.{tag}"), dwt_inv, "ns");
        if k == PANEL {
            layer.set("solver.prox_ns.k16", prox, "ns");
            let axpy =
                time_ns(|| hybridcs_linalg::simd::axpy(black_box(1e-9), &x_panel, &mut out_n))
                    / lanes;
            layer.set("linalg.axpy_ns.k16", axpy, "ns");
        }
        model[slot] = fwd + adj + dwt_fwd + dwt_inv + prox;
    }
    layer.set(
        "solver.model_cover.k1",
        ratio(k1_iters * model[0], k1_s * 1e9),
        "ratio",
    );
    layer.set(
        "solver.model_cover.k16",
        ratio(k16_iters * model[1], k16_s * 1e9),
        "ratio",
    );
    Ok(())
}
