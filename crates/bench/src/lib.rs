//! Shared helpers for the paper-figure regenerators and micro-benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). Output is a plain text table on
//! stdout — the same rows/series the paper plots.
//!
//! Two environment variables trade fidelity for runtime:
//!
//! * `HYBRIDCS_RECORDS` — corpus size (default 48, the full MIT-BIH-like
//!   population; set e.g. 8 for a quick pass).
//! * `HYBRIDCS_WINDOWS` — evaluated windows per record (default 2).

// `deny` rather than `forbid`: the `alloc_counter` module needs a scoped
// `allow` for its `GlobalAlloc` impl (the one unsafe block in the workspace,
// required by the trait's signature).
#![deny(unsafe_code)]

pub mod alloc_counter;
pub mod micro;

use hybridcs_core::{DecoderAlgorithm, SystemConfig};
use hybridcs_ecg::{Corpus, CorpusConfig};
use hybridcs_solver::PdhgOptions;

/// Number of corpus records for evaluation (env-overridable).
#[must_use]
pub fn eval_records() -> usize {
    std::env::var("HYBRIDCS_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Windows evaluated per record (env-overridable).
#[must_use]
pub fn eval_windows_per_record() -> usize {
    std::env::var("HYBRIDCS_WINDOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The shared evaluation corpus: `eval_records()` records of 10 s each,
/// seeded identically across every regenerator so figures are mutually
/// consistent. Prints its size under the [`banner`], so only the
/// regenerators that evaluate the corpus name it.
#[must_use]
pub fn eval_corpus() -> Corpus {
    println!(
        "(corpus: {} records x {} windows; override with HYBRIDCS_RECORDS / HYBRIDCS_WINDOWS)",
        eval_records(),
        eval_windows_per_record()
    );
    println!();
    Corpus::generate(&CorpusConfig {
        records: eval_records(),
        duration_s: 10.0,
        seed: 0xEC6,
    })
}

/// The decoder configuration used by the quality sweeps: PDHG with a
/// budget suited to batch evaluation.
#[must_use]
pub fn sweep_base_config() -> SystemConfig {
    SystemConfig {
        algorithm: DecoderAlgorithm::Pdhg(PdhgOptions {
            max_iterations: 2000,
            tolerance: 5e-5,
            ..PdhgOptions::default()
        }),
        ..SystemConfig::default()
    }
}

/// Prints a standard header naming the paper artifact being regenerated.
pub fn banner(artifact: &str, description: &str) {
    println!("=== {artifact} — {description} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_builder_respects_defaults() {
        // Cannot assume env vars are unset under `cargo test`, so check
        // the parse-fallback logic directly.
        assert!(eval_records() >= 1);
        assert!(eval_windows_per_record() >= 1);
    }

    #[test]
    fn sweep_config_is_valid() {
        assert!(sweep_base_config().validate().is_ok());
    }
}
