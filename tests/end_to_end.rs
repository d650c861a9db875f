//! End-to-end integration tests spanning the whole workspace: synthetic
//! corpus → hybrid front end → telemetry payload → convex decoder →
//! quality/rate metrics.

use hybridcs::codec::experiment::default_training_windows;
use hybridcs::codec::{train_lowres_codec, HybridCodec, SensingOperator, SystemConfig};
use hybridcs::ecg::{Corpus, CorpusConfig};
use hybridcs::frontend::{LowResChannel, LowResFrame, SensingMatrix};
use hybridcs::metrics::{prd, snr_db};
use hybridcs::solver::{
    solve_admm, AdmmOptions, BpdnProblem, NoopObserver, PdhgOptions, SolverWorkspace,
};

fn fast_config(measurements: usize) -> SystemConfig {
    SystemConfig {
        measurements,
        pdhg: PdhgOptions {
            max_iterations: 800,
            tolerance: 1e-4,
            ..PdhgOptions::default()
        },
        ..SystemConfig::default()
    }
}

fn one_window(seed: u64) -> Vec<f64> {
    let corpus = Corpus::generate(&CorpusConfig {
        records: 1,
        duration_s: 2.0,
        seed,
    });
    corpus.records()[0].samples_mv()[..512].to_vec()
}

#[test]
fn hybrid_pipeline_reaches_paper_quality_at_cr81() {
    let config = fast_config(96); // CR 81.25%, the paper's "good" point
    let codec = HybridCodec::with_default_training(&config).unwrap();
    let window = one_window(0xA11CE);
    let encoded = codec.encode(&window).unwrap();
    let decoded = codec.decode(&encoded).unwrap();
    let snr = snr_db(&window, &decoded.signal);
    assert!(snr > 15.0, "hybrid SNR {snr} dB at CR 81%");
}

#[test]
fn normal_cs_collapses_at_high_cr_but_hybrid_does_not() {
    // The paper's core claim (Fig. 7): at CR ≈ 97% normal CS fails while
    // hybrid CS stays useful.
    let config = fast_config(16);
    let codec = HybridCodec::with_default_training(&config).unwrap();
    let window = one_window(0xB0B);
    let encoded = codec.encode(&window).unwrap();
    let h = codec.decode(&encoded).unwrap();
    let n = codec.decode_normal(&encoded).unwrap();
    let snr_h = snr_db(&window, &h.signal);
    let snr_n = snr_db(&window, &n.signal);
    assert!(snr_h > 14.0, "hybrid must stay useful: {snr_h} dB");
    assert!(snr_n < 8.0, "normal CS should collapse: {snr_n} dB");
}

#[test]
fn decoded_signal_lies_in_every_quantization_cell() {
    let config = fast_config(64);
    let codec = HybridCodec::with_default_training(&config).unwrap();
    let window = one_window(0xCAFE);
    let encoded = codec.encode(&window).unwrap();
    let decoded = codec.decode(&encoded).unwrap();
    let channel = LowResChannel::new(config.lowres_bits).unwrap();
    let (lo, hi) = channel.acquire(&window).bounds();
    for (i, ((v, l), h)) in decoded.signal.iter().zip(&lo).zip(&hi).enumerate() {
        assert!(
            *l - 1e-9 <= *v && *v <= *h + 1e-9,
            "sample {i}: {v} outside [{l}, {h}]"
        );
    }
}

#[test]
fn hybrid_reconstruction_beats_raw_lowres_channel() {
    // The CS channel must add value over just dequantizing the 7-bit path;
    // otherwise the "super-resolution" claim is empty.
    let config = fast_config(96);
    let codec = HybridCodec::with_default_training(&config).unwrap();
    let window = one_window(0xD00D);
    let encoded = codec.encode(&window).unwrap();
    let decoded = codec.decode(&encoded).unwrap();

    let channel = LowResChannel::new(config.lowres_bits).unwrap();
    let frame = channel.acquire(&window);
    // Use cell midpoints for the fairest scalar reconstruction.
    let step = frame.step();
    let lowres_only: Vec<f64> = frame.samples().iter().map(|v| v + 0.5 * step).collect();

    let prd_hybrid = prd(&window, &decoded.signal);
    let prd_lowres = prd(&window, &lowres_only);
    assert!(
        prd_hybrid < prd_lowres,
        "hybrid PRD {prd_hybrid}% must beat raw low-res PRD {prd_lowres}%"
    );
}

#[test]
fn rate_accounting_matches_paper_structure() {
    let config = fast_config(96);
    let codec = HybridCodec::with_default_training(&config).unwrap();
    let window = one_window(0xFADE);
    let encoded = codec.encode(&window).unwrap();

    // CS payload: m × 12 bits exactly.
    assert_eq!(encoded.cs_payload_bits(), 96 * 12);
    // Low-res payload: far below raw n × 7 bits thanks to Huffman coding.
    assert!(encoded.lowres_payload_bits() < 512 * 7 / 2);
    // Net CR sits between "CS alone" and "CS minus a sane overhead".
    let net = encoded.net_compression_ratio(12);
    let cs_only = config.cs_compression_ratio();
    assert!(net < cs_only);
    assert!(net > cs_only - 20.0, "overhead should be modest: net {net}");
}

#[test]
fn admm_decoder_matches_pdhg_decoder_end_to_end() {
    // The decoder's own Eq. (1) instance for one window (its Φ, wavelet,
    // σ and the box of the transmitted low-res payload), solved by ADMM
    // beside the decoder's PDHG: the two convex decoders must agree.
    let window = one_window(0xE7E7);
    let config = fast_config(96);
    let lowres =
        train_lowres_codec(config.lowres_bits, &default_training_windows(config.window)).unwrap();
    let codec = HybridCodec::new(&config, lowres.clone()).unwrap();
    let encoded = codec.encode(&window).unwrap();
    let via_pdhg = codec.decode(&encoded).unwrap();

    let codes = lowres.decode(&encoded.lowres, config.window).unwrap();
    let channel = LowResChannel::new(config.lowres_bits).unwrap();
    let (lo, hi) = LowResFrame::from_codes(codes, &channel).unwrap().bounds();
    let sensing =
        SensingMatrix::bernoulli(config.measurements, config.window, config.seed).unwrap();
    let operator = SensingOperator::new(&sensing);
    let dwt = config.dwt().unwrap();
    let problem = BpdnProblem {
        sensing: &operator,
        dwt: &dwt,
        measurements: &encoded.measurements,
        sigma: codec.decoder().sigma(),
        box_bounds: Some((&lo, &hi)),
        coefficient_weights: None,
    };
    let options = AdmmOptions {
        max_iterations: 300,
        ..AdmmOptions::default()
    };
    let via_admm = solve_admm(
        &problem,
        &options,
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let snr_p = snr_db(&window, &via_pdhg.signal);
    let snr_a = snr_db(&window, &via_admm.signal);
    assert!(
        (snr_p - snr_a).abs() < 5.0,
        "solver disagreement: PDHG {snr_p} dB vs ADMM {snr_a} dB"
    );
}

#[test]
fn quality_improves_with_more_measurements() {
    let window = one_window(0xF00);
    let mut last_prd = f64::INFINITY;
    for m in [16usize, 64, 192] {
        let codec = HybridCodec::with_default_training(&fast_config(m)).unwrap();
        let encoded = codec.encode(&window).unwrap();
        let decoded = codec.decode(&encoded).unwrap();
        let p = prd(&window, &decoded.signal);
        assert!(
            p < last_prd * 1.15, // allow mild non-monotonicity from solver tolerance
            "PRD should broadly improve with m: m={m} gave {p}% after {last_prd}%"
        );
        last_prd = p;
    }
}

#[test]
fn ectopic_records_still_reconstruct() {
    // PVC-bearing records (every 4th in the corpus) are morphology
    // outliers; the codec must degrade gracefully, not fail.
    let corpus = Corpus::generate(&CorpusConfig {
        records: 4,
        duration_s: 3.0,
        seed: 0x9,
    });
    let record = &corpus.records()[3]; // k % 4 == 3 carries PVCs
    let config = fast_config(96);
    let codec = HybridCodec::with_default_training(&config).unwrap();
    let window: Vec<f64> = record.samples_mv()[..512].to_vec();
    let encoded = codec.encode(&window).unwrap();
    let decoded = codec.decode(&encoded).unwrap();
    let snr = snr_db(&window, &decoded.signal);
    assert!(snr > 12.0, "PVC window SNR {snr} dB");
}
