//! The repository benchmark: end-to-end and per-layer costs of the
//! hybrid-CS gateway on three workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload capacity --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `METRICS.md` beside this package for why each exists):
//! `capacity` (closed loop, wide K = 16 panels), `ward` (open loop at a
//! fixed offered rate, journal, loss and repair, crash and recover) and
//! `link` (closed loop by credit over loopback sockets).
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the workload twice (untraced, then traced with
//! in-memory spans around every call it makes), probes the layers'
//! public kernels on the run's own windows, writes the spans to
//! `perfbench/traces/`, and reports the per-layer metrics. Every line
//! before the last is for people; the last line is one JSON object.
//! The process exits 1 when any output fails its correctness check and
//! 2 when the run cannot be made at all.

mod capacity;
mod check;
mod gen;
mod link;
mod probe;
mod report;
mod stats;
mod timeline;
mod trace;
mod ward;

use std::time::Instant;

use gen::{BoxError, Generator};
use report::Measured;
use trace::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// Ward sessions when the command line names none.
const DEFAULT_WARD_SESSIONS: usize = 8;

/// The end-to-end metrics every untraced run reports (the `end_to_end`
/// list of `BENCHMARK.json`).
const END_TO_END: &[&str] = &[
    "realtime_sessions",
    "windows_per_s",
    "commit_p50_ms",
    "commit_p90_ms",
    "snr_median_db",
    "peak_rss_mb",
    "setup_s",
];

/// The per-layer metrics every traced run reports (the `per_layer` list
/// of `BENCHMARK.json`), with their units. A layer a workload does not
/// exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("solver.iterations.p50", "iterations"),
    ("solver.iterations.p99", "iterations"),
    ("solver.converged_frac", "ratio"),
    ("solver.us_per_iter.k1", "us"),
    ("solver.us_per_iter.k16", "us"),
    ("ladder.solve_ms.k1", "ms"),
    ("ladder.solve_ms.k16", "ms"),
    ("decoder.serial_ms", "ms"),
    ("solver.model_cover.k1", "ratio"),
    ("solver.model_cover.k16", "ratio"),
    ("frontend.sense_fwd_ns.k1", "ns"),
    ("frontend.sense_fwd_ns.k16", "ns"),
    ("frontend.sense_adj_ns.k1", "ns"),
    ("frontend.sense_adj_ns.k16", "ns"),
    ("dsp.dwt_fwd_ns.k1", "ns"),
    ("dsp.dwt_fwd_ns.k16", "ns"),
    ("dsp.dwt_inv_ns.k1", "ns"),
    ("dsp.dwt_inv_ns.k16", "ns"),
    ("linalg.axpy_ns.k16", "ns"),
    ("solver.prox_ns.k16", "ns"),
    ("coding.parse_us", "us"),
    ("ladder.lowres_us", "us"),
    ("gateway.push_us.p50", "us"),
    ("gateway.push_us.p99", "us"),
    ("gateway.await_flush_ms.p50", "ms"),
    ("gateway.await_flush_ms.p99", "ms"),
    ("gateway.flush_ms.p50", "ms"),
    ("gateway.flush_ms.p99", "ms"),
    ("gateway.flush_windows.mean", "windows"),
    ("gateway.busy_frac", "ratio"),
    ("gateway.backlog_slope", "windows/s"),
    ("gateway.nacks", "count"),
    ("gateway.declared_lost", "count"),
    ("gateway.shed_frac", "ratio"),
    ("ladder.rung_frac.hybrid", "ratio"),
    ("ladder.rung_frac.cs_only", "ratio"),
    ("ladder.rung_frac.lowres_only", "ratio"),
    ("ladder.rung_frac.concealed", "ratio"),
    ("journal.bytes_per_window", "bytes"),
    ("net.poll_us.p50", "us"),
    ("net.poll_ms.p99", "ms"),
    ("net.poll_busy_frac", "ratio"),
    ("net.polls_per_window", "polls"),
    ("net.retransmits", "count"),
    ("net.overloads", "count"),
    ("net.resyncs", "count"),
    ("gen.late_ms.p99", "ms"),
    ("gen.tick_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["capacity", "ward", "link"];

pub struct RunConfig {
    pub seconds: f64,
    pub nproc: usize,
    pub ward_sessions: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ward_sessions: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut ward_sessions = DEFAULT_WARD_SESSIONS;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} ({value:?})");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of capacity, ward, link")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--ward-sessions" => {
                ward_sessions = value.parse().map_err(|_| bad("a positive integer"))?;
                if ward_sessions == 0 {
                    return Err(bad("a positive integer"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        ward_sessions,
    })
}

fn run_workload(
    name: &str,
    cfg: &RunConfig,
    gen: &Generator,
    tracer: &mut Tracer,
) -> Result<Measured, BoxError> {
    match name {
        "capacity" => capacity::run(cfg, gen, tracer),
        "ward" => ward::run(cfg, gen, tracer),
        _ => link::run(cfg, gen, tracer),
    }
}

fn host_facts(args: &Args, nproc: usize) -> String {
    use hybridcs_linalg::simd::{simd_available, simd_enabled, FORCE_SCALAR_ENV};
    let forced = std::env::var(FORCE_SCALAR_ENV).unwrap_or_else(|_| "unset".to_string());
    format!(
        "host: nproc={nproc} simd_available={} simd_enabled={} {FORCE_SCALAR_ENV}={forced} \
         workload={} seed={} seconds={} trace={} ward_sessions={}",
        simd_available(),
        simd_enabled(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.ward_sessions
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload capacity|ward|link --seed N --seconds S --trace 0|1 \
                 [--ward-sessions N]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the benchmark and prints its report; `Ok(false)` when an output
/// failed its correctness check.
fn run(args: &Args) -> Result<bool, BoxError> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("{}", host_facts(args, nproc));
    let shapes: &[usize] = if args.workload == "ward" {
        &[96, 64]
    } else {
        &[96]
    };
    let gen = Generator::new(shapes, args.seed)?;
    let cfg = RunConfig {
        seconds: args.seconds,
        nproc,
        ward_sessions: args.ward_sessions,
    };

    let (measured, metrics) = if args.trace {
        traced(args, &cfg, &gen)?
    } else {
        let mut tracer = Tracer::new(false, Instant::now());
        let mut m = run_workload(&args.workload, &cfg, &gen, &mut tracer)?;
        m.e2e.set("peak_rss_mb", stats::peak_rss_mib(), "MiB");
        let json = m.e2e.json_subset(END_TO_END)?;
        (m, json)
    };
    for line in &measured.info {
        println!("{line}");
    }
    measured.e2e.print_lines(&args.workload);
    measured.layer.print_lines(&args.workload);
    let audit = &measured.audit;
    println!(
        "digest {} seed={} windows={} {:016x}",
        args.workload,
        args.seed,
        audit.committed(),
        audit.digest()
    );
    for v in audit.violations() {
        println!("violation: {v}");
    }
    let correct = audit.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        audit.attempted(),
        audit.failed
    );
    Ok(correct)
}

/// The traced run: an untraced pass of the same length for the overhead
/// baseline, the traced pass, the layer probe, and the span file.
fn traced(args: &Args, cfg: &RunConfig, gen: &Generator) -> Result<(Measured, String), BoxError> {
    let mut off = Tracer::new(false, Instant::now());
    let baseline = run_workload(&args.workload, cfg, gen, &mut off)?;
    let mut tracer = Tracer::new(true, Instant::now());
    let mut m = run_workload(&args.workload, cfg, gen, &mut tracer)?;
    if baseline.audit.failed > 0 {
        m.audit.fail(format!(
            "untraced pass: {} failed windows",
            baseline.audit.failed
        ));
    }
    report::ladder_layer(&mut m);
    probe::run(&gen.shapes[0], &m.probe, &mut m.layer)?;
    m.layer.set(
        "trace.overhead_frac",
        stats::ratio(m.cost_per_window, baseline.cost_per_window) - 1.0,
        "ratio",
    );
    for (name, unit) in PER_LAYER {
        if m.layer.get(name).is_none() {
            m.layer.set(name, 0.0, unit);
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path)?;
    println!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    for (name, (count, total, own)) in tracer.self_times() {
        println!(
            "span {name}: count {count}, total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let json = m.layer.json_subset(&names)?;
    Ok((m, json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::{json_number, Metrics};

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics in the same order.
    #[test]
    fn benchmark_json_lists_match() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names_in = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        assert_eq!(names_in("end_to_end"), END_TO_END);
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in("per_layer"), layer);
    }

    #[test]
    fn json_number_is_plain() {
        assert_eq!(json_number(1.5), "1.5");
        let mut m = Metrics::default();
        m.set("a", 1.0, "s");
        assert_eq!(
            m.json_subset(&["a"]).unwrap(),
            "{\"a\": {\"value\": 1, \"unit\": \"s\"}}"
        );
        assert!(m.json_subset(&["b"]).is_err());
    }
}
