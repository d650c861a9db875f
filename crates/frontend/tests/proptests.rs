//! Property-based tests for the acquisition front-end models, on the
//! in-repo `hybridcs_rand::check` harness (≥ 64 seeded cases each).

use hybridcs_frontend::{
    ChippingSequence, LowResChannel, MeasurementQuantizer, Quantizer, QuantizerKind, Rmpi,
    RmpiConfig, SensingMatrix,
};
use hybridcs_linalg::vector;
use hybridcs_rand::check::{check, f64_in, u32_in, u64_any, usize_in, vec_of, zip2, zip3};
use hybridcs_rand::{prop_assert, prop_assert_eq};

/// Floor quantizers certify their cell for every in-span input, at
/// every supported resolution and span.
#[test]
fn quantizer_cells_contain_inputs() {
    check(
        "quantizer_cells_contain_inputs",
        &zip2(u32_in(1, 17), vec_of(f64_in(-0.999, 0.999), 1, 64)),
        |(bits, x)| {
            let q = Quantizer::new(*bits, -1.0, 1.0, QuantizerKind::Floor).unwrap();
            for &v in x {
                let code = q.quantize(v);
                let (lo, hi) = q.cell_bounds(code);
                prop_assert!(
                    lo - 1e-12 <= v && v <= hi + 1e-12,
                    "{v} outside [{lo}, {hi}]"
                );
            }
            Ok(())
        },
    );
}

/// Quantize→dequantize error is below one step (floor) or half a step
/// (mid-tread).
#[test]
fn quantizer_error_bounds() {
    check(
        "quantizer_error_bounds",
        &zip2(u32_in(2, 15), f64_in(-0.999, 0.999)),
        |(bits, v)| {
            let floor = Quantizer::new(*bits, -1.0, 1.0, QuantizerKind::Floor).unwrap();
            prop_assert!((v - floor.dequantize(floor.quantize(*v))).abs() <= floor.step() + 1e-12);
            let mid = Quantizer::new(*bits, -1.0, 1.0, QuantizerKind::MidTread).unwrap();
            prop_assert!((v - mid.dequantize(mid.quantize(*v))).abs() <= mid.step() / 2.0 + 1e-12);
            Ok(())
        },
    );
}

/// Quantization is monotone: x <= y implies code(x) <= code(y).
#[test]
fn quantizer_is_monotone() {
    check(
        "quantizer_is_monotone",
        &zip3(u32_in(1, 13), f64_in(-2.0, 2.0), f64_in(-2.0, 2.0)),
        |(bits, a, b)| {
            let q = Quantizer::new(*bits, -1.0, 1.0, QuantizerKind::Floor).unwrap();
            let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
            prop_assert!(q.quantize(lo) <= q.quantize(hi));
            Ok(())
        },
    );
}

/// Chipping integration equals the dot product with the chip vector.
#[test]
fn chipping_integrate_is_dot() {
    check(
        "chipping_integrate_is_dot",
        &zip2(u64_any(), vec_of(f64_in(-5.0, 5.0), 32, 33)),
        |(seed, x)| {
            let seq = ChippingSequence::bernoulli(32, *seed);
            let direct = seq.integrate(x);
            let dot = vector::dot(&seq.chips(), x);
            prop_assert!((direct - dot).abs() < 1e-12, "{direct} vs {dot}");
            Ok(())
        },
    );
}

/// Unpacked ±1 Bernoulli reference: chips stored as one `f64` each (the
/// signs of [`SensingMatrix::to_matrix`]) and multiplied in explicitly
/// (`c·v`), in the same 4-wide grouped accumulation order as the bit-packed
/// kernels. `±1·v` is exactly `±v`, so sharing the order is what makes the
/// equivalence exact rather than approximate.
struct UnpackedBernoulli {
    rows: Vec<Vec<f64>>,
    scale: f64,
}

impl UnpackedBernoulli {
    fn of(phi: &SensingMatrix) -> Self {
        let dense = phi.to_matrix();
        UnpackedBernoulli {
            rows: (0..dense.nrows())
                .map(|i| dense.row(i).iter().map(|v| v.signum()).collect())
                .collect(),
            scale: dense.get(0, 0).abs(),
        }
    }

    /// `out = Φx`: each row folds its columns in groups of four, then the
    /// `n mod 4` tail one at a time.
    fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        let tail = x.len() - x.len() % 4;
        for (yi, row) in out.iter_mut().zip(&self.rows) {
            let mut acc = 0.0;
            for (c, v) in row.chunks_exact(4).zip(x.chunks_exact(4)) {
                acc += ((c[0] * v[0] + c[1] * v[1]) + c[2] * v[2]) + c[3] * v[3];
            }
            for (c, v) in row[tail..].iter().zip(&x[tail..]) {
                acc += c * v;
            }
            *yi = self.scale * acc;
        }
    }

    /// `out = Φᵀy`: rows accumulate in groups of four, then the `m mod 4`
    /// tail rows one at a time.
    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        let groups = self.rows.chunks_exact(4);
        let tail = groups.remainder();
        for (g, r) in groups.enumerate() {
            let w: [f64; 4] = std::array::from_fn(|k| self.scale * y[4 * g + k]);
            for (j, xj) in out.iter_mut().enumerate() {
                *xj += ((w[0] * r[0][j] + w[1] * r[1][j]) + w[2] * r[2][j]) + w[3] * r[3][j];
            }
        }
        for (i, row) in (y.len() - tail.len()..).zip(tail) {
            let w = self.scale * y[i];
            for (xj, c) in out.iter_mut().zip(row) {
                *xj += w * c;
            }
        }
    }
}

/// The bit-packed sensing kernels match the unpacked f64-chip reference
/// to 0 ULP — the sign-table forward kernel every encode and decode runs,
/// and the adjoint — across seeded chip sequences, and the adjoint
/// identity ⟨Φx, y⟩ ≈ ⟨x, Φᵀy⟩ still holds.
#[test]
fn packed_sensing_matches_unpacked_to_zero_ulp() {
    check(
        "packed_sensing_matches_unpacked_to_zero_ulp",
        &zip3(
            u64_any(),
            usize_in(1, 24),
            vec_of(f64_in(-5.0, 5.0), 130, 131),
        ),
        |(seed, m, x)| {
            // n = 130 crosses a u64 word boundary with a partial tail word.
            let n = x.len();
            let phi = SensingMatrix::bernoulli(*m, n, *seed).unwrap();
            let reference = UnpackedBernoulli::of(&phi);
            let mut slow = vec![0.0; *m];
            let mut table = vec![0.0; *m];
            let mut scratch = vec![0.0; phi.forward_scratch_len()];
            phi.apply_into_scratch(x, &mut table, &mut scratch);
            reference.apply_into(x, &mut slow);
            for (t, b) in table.iter().zip(&slow) {
                prop_assert_eq!(t.to_bits(), b.to_bits());
            }
            let y: Vec<f64> = (0..*m).map(|i| (i as f64 * 0.7).cos() * 2.0).collect();
            let mut fast_t = vec![0.0; n];
            let mut slow_t = vec![0.0; n];
            phi.apply_adjoint_into(&y, &mut fast_t);
            reference.apply_adjoint_into(&y, &mut slow_t);
            for (a, b) in fast_t.iter().zip(&slow_t) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let lhs = vector::dot(&table, &y);
            let rhs = vector::dot(x, &fast_t);
            prop_assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "adjoint identity broke: {lhs} vs {rhs}"
            );
            Ok(())
        },
    );
}

/// The RMPI's checked acquisition path agrees with the raw sensing
/// operator up to the digitizer's worst-case error.
#[test]
fn rmpi_acquire_matches_measure() {
    check(
        "rmpi_acquire_matches_measure",
        &zip2(u64_any(), vec_of(f64_in(-1.0, 1.0), 64, 65)),
        |(seed, x)| {
            let rmpi = Rmpi::new(RmpiConfig {
                channels: 16,
                window: 64,
                seed: *seed,
                amplifier_noise_rms: 0.0,
                ..RmpiConfig::default()
            })
            .unwrap();
            let clean = rmpi.measure(x);
            let acquired = rmpi.acquire(x, 0).unwrap();
            let step = rmpi.digitizer().step();
            for (c, a) in clean.iter().zip(&acquired) {
                prop_assert!((c - a).abs() <= step / 2.0 + 1e-12, "{c} vs {a}");
            }
            Ok(())
        },
    );
}

/// Sensing matrices regenerate identically from their seed, for both
/// families, under arbitrary shapes.
#[test]
fn sensing_regeneration() {
    check(
        "sensing_regeneration",
        &zip3(u64_any(), usize_in(1, 20), usize_in(0, 40)),
        |(seed, m, extra)| {
            let n = m + (*extra).max(1);
            let a = SensingMatrix::bernoulli(*m, n, *seed).unwrap();
            let b = SensingMatrix::bernoulli(*m, n, *seed).unwrap();
            prop_assert_eq!(&a, &b);
            let d = (*m).clamp(1, 4);
            let s1 = SensingMatrix::sparse_binary(*m, n, d, *seed).unwrap();
            let s2 = SensingMatrix::sparse_binary(*m, n, d, *seed).unwrap();
            prop_assert_eq!(s1, s2);
            Ok(())
        },
    );
}

/// Low-res frames survive the code round-trip for any in-span window.
#[test]
fn lowres_frame_code_roundtrip() {
    check(
        "lowres_frame_code_roundtrip",
        &zip2(u32_in(3, 11), vec_of(f64_in(-5.0, 5.0), 1, 128)),
        |(bits, x)| {
            let channel = LowResChannel::new(*bits).unwrap();
            let frame = channel.acquire(x);
            let rebuilt =
                hybridcs_frontend::LowResFrame::from_codes(frame.codes().to_vec(), &channel)
                    .unwrap();
            prop_assert_eq!(frame, rebuilt);
            Ok(())
        },
    );
}

/// The measurement digitizer's σ model upper-bounds the realized error
/// for in-scale vectors (up to the uniform-vs-worst-case √3 factor).
#[test]
fn measurement_sigma_bounds_error() {
    check(
        "measurement_sigma_bounds_error",
        &vec_of(f64_in(-2.0, 2.0), 1, 64),
        |y| {
            let mq = MeasurementQuantizer::new(12, 2.5).unwrap();
            let yq = mq.digitize(y);
            let err = vector::dist2(y, &yq);
            prop_assert!(
                err <= mq.noise_sigma(y.len()) * 3f64.sqrt() + 1e-12,
                "error {err} exceeds budget"
            );
            Ok(())
        },
    );
}
