//! Golden end-to-end regression test: one fixed-seed window through the
//! full hybrid pipeline (RMPI measurements + low-res channel →
//! box-constrained convex recovery), with the resulting quality pinned.
//!
//! Unlike the threshold tests in `end_to_end.rs` ("SNR > 15 dB"), this
//! pins the *exact operating point*: every stage — the in-repo PRNG
//! stream, the sensing matrix, quantizers, entropy coder, and the PDHG
//! iterate sequence — is deterministic, so PRD/SNR are reproducible to
//! floating-point noise. Any drift beyond the tolerance means an
//! algorithmic change, which must be reviewed and re-pinned deliberately.

use hybridcs::codec::{HybridCodec, SystemConfig};
use hybridcs::ecg::{Corpus, CorpusConfig};
use hybridcs::metrics::{prd, snr_db};
use hybridcs::solver::{NoopObserver, PdhgOptions, SolverWorkspace};

/// Golden values measured at pin time (see assertions for tolerance).
const GOLDEN_PRD_PERCENT: f64 = 7.485311355642;
const GOLDEN_SNR_DB: f64 = 22.515802604548;

/// Absolute drift budget. The pipeline is bit-deterministic on one
/// platform; the slack only covers libm (`sin`/`exp`/`ln`) differences
/// across targets. Anything past 1e-6 is an algorithmic change.
const TOLERANCE: f64 = 1e-6;

#[test]
fn golden_hybrid_operating_point_is_pinned() {
    let config = SystemConfig {
        measurements: 96, // CR 81.25%, the paper's headline point
        pdhg: PdhgOptions {
            max_iterations: 800,
            tolerance: 1e-4,
            ..PdhgOptions::default()
        },
        ..SystemConfig::default()
    };
    let corpus = Corpus::generate(&CorpusConfig {
        records: 1,
        duration_s: 2.0,
        seed: 0x601D,
    });
    let window: Vec<f64> = corpus.records()[0].samples_mv()[..512].to_vec();

    let codec = HybridCodec::with_default_training(&config).unwrap();
    let encoded = codec.encode(&window).unwrap();
    let decoded = codec.decode(&encoded).unwrap();

    let got_prd = prd(&window, &decoded.signal);
    let got_snr = snr_db(&window, &decoded.signal);
    assert!(
        (got_prd - GOLDEN_PRD_PERCENT).abs() < TOLERANCE,
        "PRD drifted from the golden operating point: got {got_prd:.12}%, \
         pinned {GOLDEN_PRD_PERCENT}% — if the change is intentional, re-pin"
    );
    assert!(
        (got_snr - GOLDEN_SNR_DB).abs() < TOLERANCE,
        "SNR drifted from the golden operating point: got {got_snr:.12} dB, \
         pinned {GOLDEN_SNR_DB} dB — if the change is intentional, re-pin"
    );
    // Sanity: the pinned point itself must sit in the paper's quality
    // band for CR ≈ 81% ("good" reconstruction is PRD < 9%).
    const { assert!(GOLDEN_PRD_PERCENT < 9.0) };
    const { assert!(GOLDEN_SNR_DB > 15.0) };
}

/// The zero-allocation hot path must sit on the *same* golden operating
/// point: `decode_workspace` with a warm, reused arena is required to be
/// bit-identical to the convenience `decode` (which builds a fresh
/// workspace per call), so the PRD/SNR pins above cover it too. This test
/// makes that containment explicit — a fast-path-only regression (buffer
/// reuse leaking state between solves, a kernel drifting from the grouped
/// reference order) breaks here even if the fresh-workspace path still
/// matches the pins.
#[test]
fn golden_point_survives_the_workspace_hot_path() {
    let config = SystemConfig {
        measurements: 96,
        pdhg: PdhgOptions {
            max_iterations: 800,
            tolerance: 1e-4,
            ..PdhgOptions::default()
        },
        ..SystemConfig::default()
    };
    let corpus = Corpus::generate(&CorpusConfig {
        records: 1,
        duration_s: 2.0,
        seed: 0x601D,
    });
    let window: Vec<f64> = corpus.records()[0].samples_mv()[..512].to_vec();

    let codec = HybridCodec::with_default_training(&config).unwrap();
    let encoded = codec.encode(&window).unwrap();
    let fresh = codec.decode(&encoded).unwrap();

    // Decode twice through one arena: the second pass runs entirely on
    // recycled buffers (the steady state the allocation gate measures).
    let mut ws = SolverWorkspace::new();
    let decoder = codec.decoder();
    let _warm = decoder
        .decode_workspace(&encoded, true, &mut NoopObserver, &mut ws)
        .unwrap();
    let reused = decoder
        .decode_workspace(&encoded, true, &mut NoopObserver, &mut ws)
        .unwrap();

    for (i, (a, b)) in fresh.signal.iter().zip(&reused.signal).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "warm workspace decode diverged from fresh decode at sample {i}: {a} vs {b}"
        );
    }
    let got_prd = prd(&window, &reused.signal);
    let got_snr = snr_db(&window, &reused.signal);
    assert!(
        (got_prd - GOLDEN_PRD_PERCENT).abs() < TOLERANCE,
        "workspace-path PRD drifted: got {got_prd:.12}%, pinned {GOLDEN_PRD_PERCENT}%"
    );
    assert!(
        (got_snr - GOLDEN_SNR_DB).abs() < TOLERANCE,
        "workspace-path SNR drifted: got {got_snr:.12} dB, pinned {GOLDEN_SNR_DB} dB"
    );
}
