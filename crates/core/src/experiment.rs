//! Corpus sweep runner: evaluates hybrid and normal CS across records and
//! compression ratios, producing the data behind Figs. 7–8.

use crate::{CoreError, HybridCodec, SystemConfig};
use hybridcs_ecg::Corpus;
use hybridcs_metrics::{prd_to_snr_db, SummaryStats};

/// The paper's Fig. 7 compression-ratio grid (percent).
pub const PAPER_CR_GRID: [f64; 9] = [50.0, 56.0, 62.0, 69.0, 75.0, 81.0, 88.0, 94.0, 97.0];

/// Re-export of the built-in offline training set used by
/// [`HybridCodec::with_default_training`], handy for building custom
/// codecs in examples and benches.
#[must_use]
pub fn default_training_windows(window: usize) -> Vec<Vec<f64>> {
    crate::training::default_training_windows(window)
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Compression-ratio grid in percent (e.g. [`PAPER_CR_GRID`]).
    pub cr_points: Vec<f64>,
    /// Windows evaluated per record (the reconstruction cost per window is
    /// what limits sweep size, not data availability).
    pub windows_per_record: usize,
    /// Base system configuration; `measurements` is overridden per CR
    /// point.
    pub base: SystemConfig,
    /// Worker threads (clamped to the record count).
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            cr_points: PAPER_CR_GRID.to_vec(),
            windows_per_record: 4,
            base: SystemConfig::default(),
            threads: 8,
        }
    }
}

/// Quality of one record at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordQuality {
    /// Record id.
    pub record_id: u32,
    /// Aggregate PRD (%) over the evaluated windows (energy-weighted).
    pub prd: f64,
    /// SNR in dB derived from the aggregate PRD.
    pub snr_db: f64,
}

/// One compression-ratio point of the sweep: per-record quality for both
/// decoders.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityPoint {
    /// Nominal CS-channel compression ratio (percent).
    pub cr_percent: f64,
    /// Measurements per window at this point.
    pub measurements: usize,
    /// Mean low-resolution overhead (percent of the original stream).
    pub overhead_percent: f64,
    /// Hybrid-CS per-record quality.
    pub hybrid: Vec<RecordQuality>,
    /// Normal-CS per-record quality.
    pub normal: Vec<RecordQuality>,
}

impl QualityPoint {
    /// Mean hybrid SNR over records, in dB.
    #[must_use]
    pub fn mean_hybrid_snr(&self) -> f64 {
        mean(self.hybrid.iter().map(|r| r.snr_db))
    }

    /// Mean normal-CS SNR over records, in dB.
    #[must_use]
    pub fn mean_normal_snr(&self) -> f64 {
        mean(self.normal.iter().map(|r| r.snr_db))
    }

    /// Mean hybrid PRD over records, in percent.
    #[must_use]
    pub fn mean_hybrid_prd(&self) -> f64 {
        mean(self.hybrid.iter().map(|r| r.prd))
    }

    /// Mean normal-CS PRD over records, in percent.
    #[must_use]
    pub fn mean_normal_prd(&self) -> f64 {
        mean(self.normal.iter().map(|r| r.prd))
    }

    /// Box-plot statistics of the hybrid per-record SNRs (Fig. 8 bottom).
    #[must_use]
    pub fn hybrid_snr_stats(&self) -> Option<SummaryStats> {
        SummaryStats::from_samples(&self.hybrid.iter().map(|r| r.snr_db).collect::<Vec<_>>())
    }

    /// Box-plot statistics of the normal per-record SNRs (Fig. 8 top).
    #[must_use]
    pub fn normal_snr_stats(&self) -> Option<SummaryStats> {
        SummaryStats::from_samples(&self.normal.iter().map(|r| r.snr_db).collect::<Vec<_>>())
    }

    /// Net hybrid compression ratio: the nominal CS ratio minus the
    /// measured low-resolution overhead.
    #[must_use]
    pub fn net_hybrid_cr(&self) -> f64 {
        hybridcs_metrics::net_compression_ratio(self.cr_percent, self.overhead_percent)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Runs the full quality sweep: every record × every CR point, decoding
/// each window with both the hybrid and the normal reconstruction.
/// Records are distributed over `threads` worker threads.
///
/// # Errors
///
/// Propagates the first configuration or codec error. Solver
/// non-convergence is *not* an error (the decoded quality simply reflects
/// it, exactly as in the paper where normal CS "fails to converge" at high
/// CR).
pub fn quality_sweep(corpus: &Corpus, sweep: &SweepConfig) -> Result<Vec<QualityPoint>, CoreError> {
    if sweep.cr_points.is_empty() || sweep.windows_per_record == 0 {
        return Err(CoreError::BadConfig {
            name: "sweep (cr_points/windows_per_record)",
            value: sweep.cr_points.len() as f64,
        });
    }

    // Build one codec per CR point up front (shared, read-only).
    let mut codecs = Vec::with_capacity(sweep.cr_points.len());
    for &cr in &sweep.cr_points {
        let m = ((sweep.base.window as f64) * (1.0 - cr / 100.0)).round() as usize;
        let config = SystemConfig {
            measurements: m.clamp(1, sweep.base.window),
            ..sweep.base.clone()
        };
        codecs.push(HybridCodec::with_default_training(&config)?);
    }

    let records = corpus.records();
    let threads = sweep.threads.clamp(1, records.len().max(1));
    // per-record results: results[record][cr] = (hybrid, normal, overhead)
    let mut per_record: Vec<Vec<(RecordQuality, RecordQuality, f64)>> =
        vec![Vec::new(); records.len()];

    std::thread::scope(|scope| {
        let chunks: Vec<_> = per_record
            .chunks_mut(records.len().div_ceil(threads))
            .collect();
        let mut start = 0usize;
        let mut handles = Vec::new();
        for chunk in chunks {
            let record_slice = &records[start..start + chunk.len()];
            start += chunk.len();
            let codecs = &codecs;
            let sweep = &sweep;
            handles.push(scope.spawn(move || {
                for (slot, record) in chunk.iter_mut().zip(record_slice) {
                    *slot = evaluate_record(record, codecs, sweep);
                }
            }));
        }
        for h in handles {
            h.join().expect("sweep worker panicked");
        }
    });

    // Transpose into per-CR points.
    let mut points = Vec::with_capacity(sweep.cr_points.len());
    for (ci, &cr) in sweep.cr_points.iter().enumerate() {
        let mut hybrid = Vec::with_capacity(records.len());
        let mut normal = Vec::with_capacity(records.len());
        let mut overheads = Vec::with_capacity(records.len());
        for rec_results in &per_record {
            let (h, n, ov) = rec_results[ci];
            hybrid.push(h);
            normal.push(n);
            overheads.push(ov);
        }
        points.push(QualityPoint {
            cr_percent: cr,
            measurements: codecs[ci].config().measurements,
            overhead_percent: mean(overheads.into_iter()),
            hybrid,
            normal,
        });
    }
    Ok(points)
}

/// Evaluates one record against every codec; aggregates PRD over windows
/// energy-weighted (equivalent to concatenating the evaluated windows).
fn evaluate_record(
    record: &hybridcs_ecg::EcgRecord,
    codecs: &[HybridCodec],
    sweep: &SweepConfig,
) -> Vec<(RecordQuality, RecordQuality, f64)> {
    let window = sweep.base.window;
    let windows: Vec<&[f64]> = record
        .windows(window)
        .take(sweep.windows_per_record)
        .collect();

    codecs
        .iter()
        .map(|codec| {
            let mut err_h = 0.0;
            let mut err_n = 0.0;
            let mut energy = 0.0;
            let mut lowres_bits = 0usize;
            for w in &windows {
                let encoded = codec.encode(w).expect("window length matches config");
                lowres_bits += encoded.lowres_payload_bits();
                let hybrid = codec.decode(&encoded).expect("decode cannot fail here");
                let normal = codec
                    .decode_normal(&encoded)
                    .expect("decode cannot fail here");
                for ((&x, xh), xn) in w.iter().zip(&hybrid.signal).zip(&normal.signal) {
                    err_h += (x - xh) * (x - xh);
                    err_n += (x - xn) * (x - xn);
                    energy += x * x;
                }
            }
            let prd_h = (err_h / energy.max(1e-30)).sqrt() * 100.0;
            let prd_n = (err_n / energy.max(1e-30)).sqrt() * 100.0;
            let raw_bits = windows.len() * window * sweep.base.original_bits as usize;
            let overhead = lowres_bits as f64 / raw_bits.max(1) as f64 * 100.0;
            (
                RecordQuality {
                    record_id: record.id(),
                    prd: prd_h,
                    snr_db: prd_to_snr_db(prd_h),
                },
                RecordQuality {
                    record_id: record.id(),
                    prd: prd_n,
                    snr_db: prd_to_snr_db(prd_n),
                },
                overhead,
            )
        })
        .collect()
}

/// A selected operating point: the cheapest configuration meeting a
/// quality target on a given corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The selected configuration (smallest `measurements` meeting the
    /// target).
    pub config: SystemConfig,
    /// Corpus-aggregate hybrid SNR measured at that configuration.
    pub measured_snr_db: f64,
}

/// Finds the smallest measurement count in `m_grid` whose **hybrid**
/// reconstruction meets `target_snr_db` on the corpus — the procedure
/// behind the paper's Section VI operating points, packaged as an API.
///
/// `m_grid` is evaluated in ascending order; the first success wins (the
/// SNR-vs-m curve is monotone up to solver noise). Returns `None` when no
/// grid point reaches the target.
///
/// # Errors
///
/// Returns [`CoreError`] on invalid configurations or an empty grid.
pub fn select_operating_point(
    corpus: &Corpus,
    base: &SystemConfig,
    target_snr_db: f64,
    m_grid: &[usize],
    windows_per_record: usize,
) -> Result<Option<OperatingPoint>, CoreError> {
    if m_grid.is_empty() || windows_per_record == 0 {
        return Err(CoreError::BadConfig {
            name: "m_grid/windows_per_record",
            value: m_grid.len() as f64,
        });
    }
    let mut grid = m_grid.to_vec();
    grid.sort_unstable();
    for m in grid {
        let config = SystemConfig {
            measurements: m,
            ..base.clone()
        };
        let codec = HybridCodec::with_default_training(&config)?;
        let mut err = 0.0f64;
        let mut energy = 0.0f64;
        for record in corpus.records() {
            for window in record.windows(config.window).take(windows_per_record) {
                let encoded = codec.encode(window)?;
                let decoded = codec.decode(&encoded)?;
                for (&x, xh) in window.iter().zip(&decoded.signal) {
                    err += (x - xh) * (x - xh);
                    energy += x * x;
                }
            }
        }
        let snr = prd_to_snr_db((err / energy.max(1e-30)).sqrt() * 100.0);
        if snr >= target_snr_db {
            return Ok(Some(OperatingPoint {
                config,
                measured_snr_db: snr,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_ecg::CorpusConfig;
    use hybridcs_solver::PdhgOptions;

    fn fast_base() -> SystemConfig {
        SystemConfig {
            pdhg: PdhgOptions {
                max_iterations: 400,
                tolerance: 1e-4,
                ..PdhgOptions::default()
            },
            ..SystemConfig::default()
        }
    }

    #[test]
    fn small_sweep_shows_hybrid_advantage_at_high_cr() {
        let corpus = Corpus::generate(&CorpusConfig {
            records: 3,
            duration_s: 3.0,
            seed: 5,
        });
        let sweep = SweepConfig {
            cr_points: vec![94.0],
            windows_per_record: 1,
            base: fast_base(),
            threads: 3,
        };
        let points = quality_sweep(&corpus, &sweep).unwrap();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.hybrid.len(), 3);
        assert!(
            p.mean_hybrid_snr() > p.mean_normal_snr(),
            "hybrid {} vs normal {}",
            p.mean_hybrid_snr(),
            p.mean_normal_snr()
        );
        assert!(p.overhead_percent > 0.0 && p.overhead_percent < 30.0);
        assert!(p.net_hybrid_cr() < p.cr_percent);
    }

    #[test]
    fn operating_point_selects_smallest_sufficient_m() {
        let corpus = Corpus::generate(&CorpusConfig {
            records: 2,
            duration_s: 2.0,
            seed: 11,
        });
        // A lenient 10 dB target: even tiny m reaches it with the box.
        let point = select_operating_point(&corpus, &fast_base(), 10.0, &[64, 16], 1)
            .unwrap()
            .expect("10 dB reachable");
        assert_eq!(point.config.measurements, 16, "ascending order respected");
        assert!(point.measured_snr_db >= 10.0);
        // An absurd 60 dB target is unreachable.
        assert!(
            select_operating_point(&corpus, &fast_base(), 60.0, &[16, 64], 1)
                .unwrap()
                .is_none()
        );
        // Degenerate inputs error.
        assert!(select_operating_point(&corpus, &fast_base(), 10.0, &[], 1).is_err());
    }

    #[test]
    fn sweep_rejects_empty_grid() {
        let corpus = Corpus::generate(&CorpusConfig {
            records: 1,
            duration_s: 2.0,
            seed: 1,
        });
        let sweep = SweepConfig {
            cr_points: vec![],
            ..SweepConfig::default()
        };
        assert!(quality_sweep(&corpus, &sweep).is_err());
    }

    #[test]
    fn stats_helpers_work() {
        let p = QualityPoint {
            cr_percent: 90.0,
            measurements: 51,
            overhead_percent: 7.9,
            hybrid: vec![
                RecordQuality {
                    record_id: 100,
                    prd: 5.0,
                    snr_db: 26.0,
                },
                RecordQuality {
                    record_id: 101,
                    prd: 7.0,
                    snr_db: 23.1,
                },
            ],
            normal: vec![
                RecordQuality {
                    record_id: 100,
                    prd: 50.0,
                    snr_db: 6.0,
                },
                RecordQuality {
                    record_id: 101,
                    prd: 70.0,
                    snr_db: 3.1,
                },
            ],
        };
        assert!((p.mean_hybrid_snr() - 24.55).abs() < 1e-9);
        assert!((p.mean_normal_prd() - 60.0).abs() < 1e-9);
        assert!((p.net_hybrid_cr() - 82.1).abs() < 1e-9);
        assert!(p.hybrid_snr_stats().is_some());
        assert!(p.normal_snr_stats().is_some());
    }
}
