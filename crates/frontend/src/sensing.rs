use crate::{ChippingSequence, FrontEndError};
use hybridcs_linalg::simd::{serial_lanes, vector_lanes, Tier};
use hybridcs_linalg::Matrix;
use hybridcs_rand::{Rng, SeedableRng};

/// A compressed-sensing measurement operator `Φ ∈ R^{m×n}` with fast
/// forward/adjoint application.
///
/// Two constructions are provided:
///
/// * [`SensingMatrix::bernoulli`] — dense `±1/√n` entries. This is the exact
///   behavioural model of the RMPI: row `i` is channel `i`'s chipping
///   sequence, normalized so rows have unit ℓ₂ norm.
/// * [`SensingMatrix::sparse_binary`] — each column carries `d` ones
///   (scaled `1/√d`) at random positions: the hardware-friendly digital-CS
///   matrix of the authors' earlier TBME 2011 work, used here in the
///   sensing-matrix ablation.
///
/// # Example
///
/// ```
/// use hybridcs_frontend::SensingMatrix;
///
/// # fn main() -> Result<(), hybridcs_frontend::FrontEndError> {
/// let phi = SensingMatrix::bernoulli(16, 64, 3)?;
/// let x = vec![1.0; 64];
/// let y = phi.apply(&x);
/// assert_eq!(y.len(), 16);
/// let xt = phi.apply_adjoint(&y);
/// assert_eq!(xt.len(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensingMatrix {
    m: usize,
    n: usize,
    kind: Kind,
}

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    /// Dense rows of ±scale.
    DenseBernoulli {
        /// Per-row chipping sequences (values ±1), scaled on application.
        rows: Vec<ChippingSequence>,
        /// Column-nibble planes for groups of four rows: in plane `g`,
        /// bit `4·(j mod 16) + r` of word `j / 16` is the sign bit of
        /// row `4g + r` at column `j`. Precomputed so the adjoint reads
        /// the four sign bits of a column in one nibble instead of
        /// gathering them from four row bitplanes.
        nibbles: Vec<Vec<u64>>,
        scale: f64,
    },
    /// Column-sparse binary: `cols[j]` lists the rows holding `scale`.
    SparseBinary { cols: Vec<Vec<u32>>, scale: f64 },
}

/// The 16 signed sums `((±w₀ ± w₁) ± w₂) ± w₃` indexed by sign nibble (bit
/// `r` set ⇔ term `r` negated). Negation of an f64 is exact, so entry
/// `idx` is bit-identical to evaluating the grouped expression with chips
/// `c_r = ±1` multiplied in (`±1·w` is exactly `±w`). Each entry folds its
/// own three adds: compiled for the baseline target, this form ran faster
/// than one that shares the pair and triple sums across entries (fewer
/// adds, but shuffles between them), which the panel fill's whole-vector
/// operations do share.
#[inline]
fn sign_table(w: [f64; 4]) -> [f64; 16] {
    let mut t = [0.0; 16];
    for (idx, slot) in t.iter_mut().enumerate() {
        let s0 = if idx & 1 == 0 { w[0] } else { -w[0] };
        let s1 = if idx & 2 == 0 { w[1] } else { -w[1] };
        let s2 = if idx & 4 == 0 { w[2] } else { -w[2] };
        let s3 = if idx & 8 == 0 { w[3] } else { -w[3] };
        *slot = ((s0 + s1) + s2) + s3;
    }
    t
}

/// Builds the column-nibble planes from the row sign bitplanes.
fn nibble_planes(rows: &[ChippingSequence], n: usize) -> Vec<Vec<u64>> {
    rows.chunks_exact(4)
        .map(|quad| {
            let mut words = vec![0u64; n.div_ceil(16)];
            for (r, row) in quad.iter().enumerate() {
                for (j, word) in words.iter_mut().enumerate() {
                    // 16 sign bits feeding word `j` of the plane.
                    let part = row.sign_words()[j / 4] >> (16 * (j % 4));
                    let mut spread = 0u64;
                    for b in 0..16 {
                        spread |= ((part >> b) & 1) << (4 * b);
                    }
                    *word |= spread << r;
                }
            }
            words
        })
        .collect()
}

impl SensingMatrix {
    /// Dense `±1/√n` Bernoulli matrix with `m` rows (RMPI channels) over a
    /// window of `n` samples. Row `i` uses the chipping seed `seed + i`, so
    /// the decoder can regenerate `Φ` from `(m, n, seed)` alone.
    ///
    /// # Errors
    ///
    /// Returns [`FrontEndError::BadParameter`] when `m == 0`, `n == 0` or
    /// `m > n`.
    pub fn bernoulli(m: usize, n: usize, seed: u64) -> Result<Self, FrontEndError> {
        check_shape(m, n)?;
        let rows: Vec<ChippingSequence> = (0..m)
            .map(|i| ChippingSequence::bernoulli(n, seed.wrapping_add(i as u64)))
            .collect();
        let nibbles = nibble_planes(&rows, n);
        Ok(SensingMatrix {
            m,
            n,
            kind: Kind::DenseBernoulli {
                rows,
                nibbles,
                scale: 1.0 / (n as f64).sqrt(),
            },
        })
    }

    /// Column-sparse binary matrix: every column holds exactly
    /// `ones_per_column` entries of `1/√d` at seeded random rows (without
    /// replacement within a column).
    ///
    /// # Errors
    ///
    /// Returns [`FrontEndError::BadParameter`] for degenerate shapes or when
    /// `ones_per_column` is 0 or exceeds `m`.
    pub fn sparse_binary(
        m: usize,
        n: usize,
        ones_per_column: usize,
        seed: u64,
    ) -> Result<Self, FrontEndError> {
        check_shape(m, n)?;
        if ones_per_column == 0 || ones_per_column > m {
            return Err(FrontEndError::BadParameter {
                name: "ones_per_column",
                value: ones_per_column as f64,
            });
        }
        let mut rng = hybridcs_rand::rngs::StdRng::seed_from_u64(seed);
        let cols = (0..n)
            .map(|_| sample_without_replacement(&mut rng, m, ones_per_column))
            .collect();
        Ok(SensingMatrix {
            m,
            n,
            kind: Kind::SparseBinary {
                cols,
                scale: 1.0 / (ones_per_column as f64).sqrt(),
            },
        })
    }

    /// Number of measurements (rows).
    #[must_use]
    pub fn measurements(&self) -> usize {
        self.m
    }

    /// Window length (columns).
    #[must_use]
    pub fn window(&self) -> usize {
        self.n
    }

    /// Forward application `y = Φx`, drawing the
    /// [`SensingMatrix::forward_scratch_len`] table for one
    /// [`SensingMatrix::apply_into_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.window()`.
    #[must_use]
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        let mut table = vec![0.0; self.forward_scratch_len()];
        self.apply_into_scratch(x, &mut y, &mut table);
        y
    }

    /// Scratch length (in `f64`s) for [`SensingMatrix::apply_into_scratch`]:
    /// room for the per-4-column sign-sum table shared by all rows. It
    /// also holds the `m/4` plane tables of
    /// [`SensingMatrix::apply_adjoint_into_scratch`] (16 entries each,
    /// and `m ≤ n`).
    #[must_use]
    pub fn forward_scratch_len(&self) -> usize {
        match self.kind {
            Kind::DenseBernoulli { .. } => (self.n / 4) * 16,
            Kind::SparseBinary { .. } => 0,
        }
    }

    /// Allocation-free forward application `out = Φx` using
    /// caller-provided scratch — the one forward kernel, serving encode
    /// and decode alike.
    ///
    /// Accumulation order (shared with the unpacked ±1 reference of the
    /// property tests, which is what makes their 0-ULP equivalence contract
    /// hold): each row folds columns in ascending groups of four,
    /// `acc += ((s₀+s₁)+s₂)+s₃` with `s_r = ±x[4g+r]`, then any `n mod 4`
    /// tail columns one at a time. For the dense Bernoulli kind the scratch
    /// holds, per group of four columns, the 16 signed sums
    /// `((±x₀±x₁)±x₂)±x₃` (built once, shared by every row); each row then
    /// folds one table lookup per sign nibble of its bitplane — 4 columns
    /// per lookup, no per-element sign application. The sparse kind needs
    /// no scratch.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or if `scratch.len() <
    /// self.forward_scratch_len()`.
    pub fn apply_into_scratch(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(x.len(), self.n, "sensing apply: length mismatch");
        assert_eq!(out.len(), self.m, "sensing apply: output length mismatch");
        let (rows, scale) = match &self.kind {
            Kind::DenseBernoulli { rows, scale, .. } => (rows, *scale),
            Kind::SparseBinary { cols, scale } => {
                out.fill(0.0);
                for (j, col) in cols.iter().enumerate() {
                    let v = scale * x[j];
                    for &i in col {
                        out[i as usize] += v;
                    }
                }
                return;
            }
        };
        let groups = self.n / 4;
        let table = &mut scratch[..groups * 16];
        for (tg, v) in table.chunks_exact_mut(16).zip(x.chunks_exact(4)) {
            tg.copy_from_slice(&sign_table([v[0], v[1], v[2], v[3]]));
        }
        let mut i = 0;
        // Four rows per pass: four independent accumulator chains hide the
        // add latency that a one-row fold would serialize on.
        while i + 4 <= rows.len() {
            let w = [
                rows[i].sign_words(),
                rows[i + 1].sign_words(),
                rows[i + 2].sign_words(),
                rows[i + 3].sign_words(),
            ];
            let mut acc = [0.0f64; 4];
            let mut g = 0;
            let mut ci = 0;
            while g < groups {
                let take = (groups - g).min(16);
                let mut q = [w[0][ci], w[1][ci], w[2][ci], w[3][ci]];
                for s in 0..take {
                    let tg = &table[(g + s) * 16..(g + s) * 16 + 16];
                    for r in 0..4 {
                        acc[r] += tg[(q[r] & 15) as usize];
                        q[r] >>= 4;
                    }
                }
                g += take;
                ci += 1;
            }
            for (j, &v) in x.iter().enumerate().skip(groups * 4) {
                for r in 0..4 {
                    acc[r] += if (w[r][j >> 6] >> (j & 63)) & 1 == 1 {
                        -v
                    } else {
                        v
                    };
                }
            }
            for r in 0..4 {
                out[i + r] = scale * acc[r];
            }
            i += 4;
        }
        while i < rows.len() {
            out[i] = scale * row_fold_table(rows[i].sign_words(), x, table, groups);
            i += 1;
        }
    }

    /// Scratch length (in `f64`s) for the batched kernels
    /// ([`SensingMatrix::apply_batch_into_scratch`] /
    /// [`SensingMatrix::apply_adjoint_batch_into_scratch`]) at batch
    /// width `k` and at every narrower width, so a solve whose lanes
    /// retire keeps the scratch it started with.
    #[must_use]
    pub fn batch_scratch_len(&self, k: usize) -> usize {
        // The panel kernels run first and hold one chunk of sign tables:
        // 16 entries per group (plane) per lane, `chunk_groups` groups at
        // a time. Lanes outside a 4-wide vector run next, through one
        // lane's gather/scatter buffers (`n + m`) and the serial kernel's
        // tables (`forward_scratch_len`, which also holds the adjoint's
        // planes since m ≤ n); at k = 1 the serial kernel runs in place on
        // the tables alone. The two never overlap in time, so they share
        // the scratch. A chunk of `l` lanes holds `16·l·min(n/4, ⌊128/l⌋)`
        // entries, at most `16·min(l·n/4, max(l, 128))`, which grows with
        // `l`; every narrower width has fewer vector lanes.
        let lanes = vector_lanes(k);
        let tables = match self.kind {
            Kind::DenseBernoulli { .. } => 16 * (lanes * (self.n / 4)).min(lanes.max(128)),
            Kind::SparseBinary { .. } => 0,
        };
        tables.max(self.n + self.m + self.forward_scratch_len())
    }

    /// Batched forward application over a column-major panel: lane `l` of
    /// `x_panel` (elements `x_panel[j*k + l]`) maps to lane `l` of
    /// `out_panel` exactly as [`SensingMatrix::apply_into_scratch`] maps a
    /// single window. The first `4⌊k/4⌋` lanes run the lane-parallel
    /// kernel — the per-4-column sign table is built once *per group for
    /// all of them* and shared across every row, which is where the batch
    /// amortization comes from, and the SIMD tier vectorizes across lanes
    /// only. Every remaining lane (all of them when `k < 4`) runs
    /// [`SensingMatrix::apply_into_scratch`] itself, in place at `k = 1`.
    /// Per lane the accumulation order is the serial kernel's either way,
    /// so each lane is bit-identical to a serial solve.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, panel shapes don't match `(n·k, m·k)`, or
    /// `scratch.len() < self.batch_scratch_len(k)`.
    pub fn apply_batch_into_scratch(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.apply_batch_tier(
            x_panel,
            k,
            out_panel,
            scratch,
            hybridcs_linalg::simd::active_tier(),
        );
    }

    fn apply_batch_tier(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        tier: Tier,
    ) {
        assert!(k > 0, "sensing batch apply: zero lanes");
        assert_eq!(x_panel.len(), self.n * k, "sensing batch apply: panel");
        assert_eq!(out_panel.len(), self.m * k, "sensing batch apply: output");
        assert!(
            scratch.len() >= self.batch_scratch_len(k),
            "sensing batch apply: scratch too short"
        );
        match &self.kind {
            Kind::DenseBernoulli { rows, scale, .. } => {
                let lanes = vector_lanes(k);
                if lanes > 0 {
                    batch_kernels::forward(
                        rows, *scale, x_panel, k, lanes, self.n, out_panel, scratch, tier,
                    );
                }
                serial_lanes(x_panel, k, lanes, out_panel, scratch, |x, y, s| {
                    self.apply_into_scratch(x, y, s);
                });
            }
            // Per-lane serial apply: trivially bit-identical; the sparse
            // kind is ablation-only.
            Kind::SparseBinary { .. } => {
                serial_lanes(x_panel, k, 0, out_panel, scratch, |x, y, s| {
                    self.apply_into_scratch(x, y, s);
                });
            }
        }
    }

    /// Batched adjoint application over a column-major panel — the lane-wise
    /// twin of [`SensingMatrix::apply_adjoint_into_scratch`], bit-identical per
    /// lane, with the same split as [`SensingMatrix::apply_batch_into_scratch`]:
    /// the lane-parallel kernel covers the first `4⌊k/4⌋` lanes and
    /// [`SensingMatrix::apply_adjoint_into_scratch`] runs the rest.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, panel shapes don't match `(m·k, n·k)`, or
    /// `scratch.len() < self.batch_scratch_len(k)`.
    pub fn apply_adjoint_batch_into_scratch(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.apply_adjoint_batch_tier(
            y_panel,
            k,
            out_panel,
            scratch,
            hybridcs_linalg::simd::active_tier(),
        );
    }

    fn apply_adjoint_batch_tier(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        tier: Tier,
    ) {
        assert!(k > 0, "sensing batch adjoint: zero lanes");
        assert_eq!(y_panel.len(), self.m * k, "sensing batch adjoint: panel");
        assert_eq!(out_panel.len(), self.n * k, "sensing batch adjoint: output");
        assert!(
            scratch.len() >= self.batch_scratch_len(k),
            "sensing batch adjoint: scratch too short"
        );
        match &self.kind {
            Kind::DenseBernoulli {
                rows,
                nibbles,
                scale,
            } => {
                let lanes = vector_lanes(k);
                if lanes > 0 {
                    batch_kernels::adjoint(
                        rows, nibbles, *scale, y_panel, k, lanes, self.n, out_panel, scratch, tier,
                    );
                }
                serial_lanes(y_panel, k, lanes, out_panel, scratch, |y, x, s| {
                    self.apply_adjoint_into_scratch(y, x, s);
                });
            }
            Kind::SparseBinary { .. } => {
                serial_lanes(y_panel, k, 0, out_panel, scratch, |y, x, s| {
                    self.apply_adjoint_into_scratch(y, x, s);
                });
            }
        }
    }

    /// Adjoint application `x = Φᵀy`, drawing the
    /// [`SensingMatrix::forward_scratch_len`] tables for one
    /// [`SensingMatrix::apply_adjoint_into_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.measurements()`.
    #[must_use]
    pub fn apply_adjoint(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        let mut tables = vec![0.0; self.forward_scratch_len()];
        self.apply_adjoint_into_scratch(y, &mut x, &mut tables);
        x
    }

    /// Allocation-free adjoint application `out = Φᵀy` using
    /// caller-provided scratch.
    ///
    /// Every element sums its rows in ascending groups of four (the order
    /// the property tests' unpacked ±1 reference shares): it starts at
    /// `0.0` and adds `((±w₀±w₁)±w₂)±w₃` with `w_r = scale·y[4g+r]` for
    /// `g = 0, 1, …`, then any `m mod 4` tail rows `±w_i` one at a time.
    /// The scratch holds the `m/4` 16-entry sign tables, one per group of
    /// four rows, built first; each element then looks its group sums up by
    /// its precomputed sign nibble — one lookup replaces four sign
    /// applications. Sixteen elements (one nibble word) fold side by side
    /// in sixteen independent accumulators and are stored once. The sparse
    /// kind needs no scratch.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.measurements()`, `out.len() !=
    /// self.window()` or `scratch.len() < self.forward_scratch_len()`.
    pub fn apply_adjoint_into_scratch(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(y.len(), self.m, "sensing adjoint: length mismatch");
        assert_eq!(out.len(), self.n, "sensing adjoint: output length mismatch");
        match &self.kind {
            Kind::DenseBernoulli {
                rows,
                nibbles,
                scale,
            } => {
                let quads = nibbles.len() * 4;
                let tables = &mut scratch[..quads * 4];
                for (t, w) in tables.chunks_exact_mut(16).zip(y.chunks_exact(4)) {
                    t.copy_from_slice(&sign_table([
                        scale * w[0],
                        scale * w[1],
                        scale * w[2],
                        scale * w[3],
                    ]));
                }
                for (c, chunk) in out.chunks_mut(16).enumerate() {
                    let mut acc = [0.0f64; 16];
                    for (t, plane) in tables.chunks_exact(16).zip(nibbles) {
                        let mut word = plane[c];
                        for a in &mut acc {
                            *a += t[(word & 15) as usize];
                            word >>= 4;
                        }
                    }
                    for (row, &yi) in rows[quads..].iter().zip(&y[quads..]) {
                        let w = scale * yi;
                        let sw = [w, -w];
                        let mut bits = row.sign_words()[c / 4] >> (16 * (c % 4));
                        for a in &mut acc {
                            *a += sw[(bits & 1) as usize];
                            bits >>= 1;
                        }
                    }
                    chunk.copy_from_slice(&acc[..chunk.len()]);
                }
            }
            Kind::SparseBinary { cols, scale } => {
                for (j, col) in cols.iter().enumerate() {
                    let mut acc = 0.0;
                    for &i in col {
                        acc += y[i as usize];
                    }
                    out[j] = scale * acc;
                }
            }
        }
    }

    /// Materializes `Φ` as a dense matrix (for the greedy solvers, which
    /// need explicit columns).
    #[must_use]
    pub fn to_matrix(&self) -> Matrix {
        match &self.kind {
            Kind::DenseBernoulli { rows, scale, .. } => {
                Matrix::from_fn(self.m, self.n, |i, j| scale * rows[i].chip(j))
            }
            Kind::SparseBinary { cols, scale } => {
                let mut mat = Matrix::zeros(self.m, self.n);
                for (j, col) in cols.iter().enumerate() {
                    for &i in col {
                        mat.set(i as usize, j, *scale);
                    }
                }
                mat
            }
        }
    }

    /// Short label for reports (`"bernoulli"` / `"sparse-binary"`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            Kind::DenseBernoulli { .. } => "bernoulli",
            Kind::SparseBinary { .. } => "sparse-binary",
        }
    }
}

/// One row's grouped fold `Σ_g ((±x₀±x₁)±x₂)±x₃` (plus the serial tail),
/// with the group sums looked up from the shared sign table.
fn row_fold_table(words: &[u64], x: &[f64], table: &[f64], groups: usize) -> f64 {
    let mut acc = 0.0;
    let mut g = 0;
    let mut ci = 0;
    while g < groups {
        let take = (groups - g).min(16);
        let mut q = words[ci];
        for s in 0..take {
            acc += table[(g + s) * 16 + (q & 15) as usize];
            q >>= 4;
        }
        g += take;
        ci += 1;
    }
    for (j, &v) in x.iter().enumerate().skip(groups * 4) {
        acc += if (words[j >> 6] >> (j & 63)) & 1 == 1 {
            -v
        } else {
            v
        };
    }
    acc
}

/// Lane-parallel forms of the packed-sign kernels over column-major
/// panels of stride `k`, covering the first `lanes` lanes (a multiple of
/// four, see [`hybridcs_linalg::simd::vector_lanes`]).
///
/// Both kernels work through their sign-sum tables a chunk at a time: the
/// forward's per 4-column group of `x`, the adjoint's per 4-row plane of
/// `scale·y`, [`chunk_groups`] groups (planes) per chunk, about 16 KiB of
/// tables whatever the lane count, so a chunk is built and then read back
/// from L1 by every output. Each output lane folds in a register: it
/// starts at `0.0`, adds its table entry for group (plane) `0, 1, 2, …`
/// in ascending order, then its `n mod 4` tail columns (`m mod 4` tail
/// rows) in ascending order, and is stored once, the forward's multiplied
/// by `scale`. Between chunks its partial sum waits in the output panel;
/// storing and reloading an `f64` is exact. That is the per-element order
/// of the serial kernels ([`SensingMatrix::apply_into_scratch`],
/// `apply_adjoint_into_scratch`), so every lane is bit-identical to a
/// serial application; the sign flips are exact negations (sign-bit xor)
/// and every table entry is the same `((s₀+s₁)+s₂)+s₃` as
/// [`super::sign_table`]'s, so the tiers cannot diverge either.
///
/// Each kernel (the table fill, the forward and the adjoint) is one
/// `#[inline(always)]` body, generic over [`F64Vector`], that
/// [`lane_blocks`] instantiates per tier: `[f64; 4]` on the scalar tier,
/// `__m256d` on AVX2 and `__m512d` on AVX-512. The blocking changes only
/// which independent folds run side by side: two outputs (rows for the
/// forward, columns for the adjoint) × sixteen lanes on the scalar and
/// AVX2 tiers, eight 4-lane chains in AVX2's sixteen registers, and four
/// outputs × two `__m512d` on AVX-512, eight 8-lane chains. A fold of one
/// 4-lane chain per output waits on add latency at every table entry,
/// and an adjoint that adds into the output panel plane by plane pays a
/// read-modify-write sweep per plane. Against those, a K = 16 panel
/// (n = 512, m = 96, 2-vCPU AVX2 host, medians of six interleaved
/// `kernels_batch` pairs) fell from 146.7 to 66.6 µs forward and from
/// 81.8 to 45.6 µs adjoint on the AVX2 tier, before the chunked tables
/// (DESIGN §14 has the rows since).
#[allow(unsafe_code)]
mod batch_kernels {
    use crate::ChippingSequence;
    use hybridcs_linalg::simd::{lane_blocks, F64Vector, LaneBlock, Tier};

    /// Groups (planes) of sign tables built and folded per chunk: 16
    /// entries per lane each, so a chunk of `lanes` lanes holds about 2048
    /// `f64`s (16 KiB), half a typical L1d, for every lane count up to 128.
    pub const fn chunk_groups(lanes: usize) -> usize {
        if lanes >= 128 {
            1
        } else {
            128 / lanes
        }
    }

    /// Nibble `g` of a bitplane: the signs of group `g` in a row's sign
    /// words, or of column `g` in a column-nibble plane.
    #[inline]
    fn nibble(words: &[u64], g: usize) -> usize {
        ((words[g / 16] >> (4 * (g % 16))) & 15) as usize
    }

    /// Sign bit of column/row `j` in a bitplane.
    #[inline]
    fn sign_bit(words: &[u64], j: usize) -> bool {
        (words[j >> 6] >> (j & 63)) & 1 == 1
    }

    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        rows: &[ChippingSequence],
        scale: f64,
        x_panel: &[f64],
        k: usize,
        lanes: usize,
        n: usize,
        out_panel: &mut [f64],
        table: &mut [f64],
        tier: Tier,
    ) {
        // With the block bounds checked in `block`, these keep every
        // access of every instantiation inside the panels and the table.
        assert!(lanes > 0 && lanes.is_multiple_of(4) && lanes <= k);
        assert_eq!(x_panel.len(), n * k);
        assert_eq!(out_panel.len(), rows.len() * k);
        let groups = n / 4;
        let chunk = chunk_groups(lanes);
        let mut g0 = 0;
        loop {
            let g1 = groups.min(g0 + chunk);
            let table = &mut table[..(g1 - g0) * 16 * lanes];
            fill_tables(x_panel, k, lanes, g0, None, table, tier);
            let mut fold = Forward {
                rows,
                scale,
                x: x_panel,
                k,
                lanes,
                n,
                groups: g0..g1,
                table,
                out: out_panel,
            };
            match tier {
                Tier::Avx512 => lane_blocks::<4>(&mut fold, tier, rows.len(), lanes),
                _ => lane_blocks::<2>(&mut fold, tier, rows.len(), lanes),
            }
            if g1 == groups {
                break;
            }
            g0 = g1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn adjoint(
        rows: &[ChippingSequence],
        nibbles: &[Vec<u64>],
        scale: f64,
        y_panel: &[f64],
        k: usize,
        lanes: usize,
        n: usize,
        out_panel: &mut [f64],
        table: &mut [f64],
        tier: Tier,
    ) {
        // With the block bounds checked in `block`, these keep every
        // access of every instantiation inside the panels and the tables.
        assert!(lanes > 0 && lanes.is_multiple_of(4) && lanes <= k);
        assert_eq!(y_panel.len(), rows.len() * k);
        assert_eq!(out_panel.len(), n * k);
        assert!(nibbles.iter().all(|plane| plane.len() == n.div_ceil(16)));
        let planes = nibbles.len();
        let chunk = chunk_groups(lanes);
        let mut p0 = 0;
        loop {
            let p1 = planes.min(p0 + chunk);
            let table = &mut table[..(p1 - p0) * 16 * lanes];
            // w_r = scale · y-row, scaled before the sign tree exactly
            // like the serial adjoint's `sign_table([scale*y, ...])`.
            fill_tables(y_panel, k, lanes, p0, Some(scale), table, tier);
            let mut fold = Adjoint {
                rows,
                nibbles,
                scale,
                y: y_panel,
                k,
                lanes,
                planes: p0..p1,
                table,
                out: out_panel,
            };
            match tier {
                Tier::Avx512 => lane_blocks::<4>(&mut fold, tier, n, lanes),
                _ => lane_blocks::<2>(&mut fold, tier, n, lanes),
            }
            if p1 == planes {
                break;
            }
            p0 = p1;
        }
    }

    /// Fills `table` with the sign-sum tables of the row quads `first,
    /// first + 1, …` of the stride-`k` panel `src`: entry
    /// `(g·16 + idx)·lanes + lane` is `((s₀ + s₁) + s₂) + s₃`, where
    /// `s_r = ±q_r` (negated ⇔ bit `r` of `idx`) and
    /// `q_r = src[(4(first + g) + r)·k + lane]`, times `scale` if given —
    /// `sign_table` per lane.
    fn fill_tables(
        src: &[f64],
        k: usize,
        lanes: usize,
        first: usize,
        scale: Option<f64>,
        table: &mut [f64],
        tier: Tier,
    ) {
        let groups = table.len() / (16 * lanes);
        assert!(4 * (first + groups) * k <= src.len());
        let mut fill = Tables {
            src,
            k,
            lanes,
            first,
            scale,
            table,
        };
        lane_blocks::<1>(&mut fill, tier, groups, lanes);
    }

    /// The table fill: block `(g, lane)` builds the tables of chunk groups
    /// `g..g + R`.
    struct Tables<'a> {
        src: &'a [f64],
        k: usize,
        lanes: usize,
        first: usize,
        scale: Option<f64>,
        table: &'a mut [f64],
    }

    impl LaneBlock for Tables<'_> {
        #[inline(always)]
        unsafe fn block<T: F64Vector, const R: usize, const V: usize>(
            &mut self,
            g: usize,
            lane: usize,
        ) {
            assert!((g + R) * 16 * self.lanes <= self.table.len());
            assert!(lane + V * T::LANES <= self.lanes);
            for r in 0..R {
                let src = self
                    .src
                    .as_ptr()
                    .add(4 * (self.first + g + r) * self.k + lane);
                let out = self
                    .table
                    .as_mut_ptr()
                    .add((g + r) * 16 * self.lanes + lane);
                for v in 0..V {
                    let q: [T; 4] = std::array::from_fn(|s| {
                        let x = T::load(src.add(s * self.k + v * T::LANES));
                        self.scale.map_or(x, |c| T::splat(c).mul(x))
                    });
                    for (idx, t) in sign_tree(q).into_iter().enumerate() {
                        t.store(out.add(idx * self.lanes + v * T::LANES));
                    }
                }
            }
        }
    }

    /// [`super::sign_table`] across the lanes of one vector, sharing its
    /// partial sums: the four pair sums `s₀ + s₁`, the eight triple sums
    /// `(s₀ + s₁) + s₂`, then the sixteen entries, 28 adds instead of 48,
    /// every entry adding the same operands in the same order.
    #[inline(always)]
    unsafe fn sign_tree<T: F64Vector>(q: [T; 4]) -> [T; 16] {
        let neg = q.map(|v| v.neg());
        let s = |r: usize, idx: usize| if (idx >> r) & 1 == 0 { q[r] } else { neg[r] };
        let pair: [T; 4] = std::array::from_fn(|i| s(0, i).add(s(1, i)));
        let triple: [T; 8] = std::array::from_fn(|i| pair[i & 3].add(s(2, i)));
        std::array::from_fn(|i| triple[i & 7].add(s(3, i)))
    }

    /// The forward fold over one chunk: block `(i, lane)` adds rows
    /// `i..i + R` of `Φx`'s entries for `groups`, finishing the rows on
    /// the last chunk.
    struct Forward<'a> {
        rows: &'a [ChippingSequence],
        scale: f64,
        x: &'a [f64],
        k: usize,
        lanes: usize,
        n: usize,
        groups: std::ops::Range<usize>,
        table: &'a [f64],
        out: &'a mut [f64],
    }

    impl LaneBlock for Forward<'_> {
        #[inline(always)]
        unsafe fn block<T: F64Vector, const R: usize, const V: usize>(
            &mut self,
            i: usize,
            lane: usize,
        ) {
            assert!(i + R <= self.rows.len() && lane + V * T::LANES <= self.lanes);
            let words: [&[u64]; R] = std::array::from_fn(|r| self.rows[i + r].sign_words());
            let out = self.out.as_mut_ptr().add(i * self.k + lane);
            let mut acc = [[T::zero(); V]; R];
            if self.groups.start > 0 {
                for (r, acc) in acc.iter_mut().enumerate() {
                    for (v, a) in acc.iter_mut().enumerate() {
                        *a = T::load(out.add(r * self.k + v * T::LANES));
                    }
                }
            }
            let table = self.table.as_ptr().add(lane);
            for (c, g) in self.groups.clone().enumerate() {
                for (acc, words) in acc.iter_mut().zip(words) {
                    let t = table.add((c * 16 + nibble(words, g)) * self.lanes);
                    for (v, a) in acc.iter_mut().enumerate() {
                        *a = a.add(T::load(t.add(v * T::LANES)));
                    }
                }
            }
            let finish = self.groups.end == self.n / 4;
            if finish {
                for j in self.n / 4 * 4..self.n {
                    let x = self.x.as_ptr().add(j * self.k + lane);
                    for (acc, words) in acc.iter_mut().zip(words) {
                        let neg = sign_bit(words, j);
                        for (v, a) in acc.iter_mut().enumerate() {
                            let xv = T::load(x.add(v * T::LANES));
                            *a = a.add(if neg { xv.neg() } else { xv });
                        }
                    }
                }
            }
            let sv = T::splat(self.scale);
            for (r, acc) in acc.iter().enumerate() {
                for (v, &a) in acc.iter().enumerate() {
                    let a = if finish { a.mul(sv) } else { a };
                    a.store(out.add(r * self.k + v * T::LANES));
                }
            }
        }
    }

    /// The adjoint fold over one chunk: block `(j, lane)` adds columns
    /// `j..j + R` of `Φᵀy`'s entries for `planes`, finishing the columns on
    /// the last chunk.
    struct Adjoint<'a> {
        rows: &'a [ChippingSequence],
        nibbles: &'a [Vec<u64>],
        scale: f64,
        y: &'a [f64],
        k: usize,
        lanes: usize,
        planes: std::ops::Range<usize>,
        table: &'a [f64],
        out: &'a mut [f64],
    }

    impl LaneBlock for Adjoint<'_> {
        #[inline(always)]
        unsafe fn block<T: F64Vector, const R: usize, const V: usize>(
            &mut self,
            j: usize,
            lane: usize,
        ) {
            assert!((j + R) * self.k <= self.out.len() && lane + V * T::LANES <= self.lanes);
            let out = self.out.as_mut_ptr().add(j * self.k + lane);
            let mut acc = [[T::zero(); V]; R];
            if self.planes.start > 0 {
                for (r, acc) in acc.iter_mut().enumerate() {
                    for (v, a) in acc.iter_mut().enumerate() {
                        *a = T::load(out.add(r * self.k + v * T::LANES));
                    }
                }
            }
            let table = self.table.as_ptr().add(lane);
            for (c, plane) in self.nibbles[self.planes.clone()].iter().enumerate() {
                for (r, acc) in acc.iter_mut().enumerate() {
                    let t = table.add((c * 16 + nibble(plane, j + r)) * self.lanes);
                    for (v, a) in acc.iter_mut().enumerate() {
                        *a = a.add(T::load(t.add(v * T::LANES)));
                    }
                }
            }
            if self.planes.end == self.nibbles.len() {
                let sv = T::splat(self.scale);
                for (i, row) in self.rows.iter().enumerate().skip(4 * self.nibbles.len()) {
                    let y = self.y.as_ptr().add(i * self.k + lane);
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let neg = sign_bit(row.sign_words(), j + r);
                        for (v, a) in acc.iter_mut().enumerate() {
                            let w = sv.mul(T::load(y.add(v * T::LANES)));
                            *a = a.add(if neg { w.neg() } else { w });
                        }
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                for (v, a) in acc.iter().enumerate() {
                    a.store(out.add(r * self.k + v * T::LANES));
                }
            }
        }
    }
}

fn check_shape(m: usize, n: usize) -> Result<(), FrontEndError> {
    if m == 0 {
        return Err(FrontEndError::BadParameter {
            name: "measurements",
            value: 0.0,
        });
    }
    if n == 0 || m > n {
        return Err(FrontEndError::BadParameter {
            name: "window (need measurements <= window)",
            value: n as f64,
        });
    }
    Ok(())
}

/// Draws `k` distinct values from `0..m` (partial Fisher–Yates).
fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, m: usize, k: usize) -> Vec<u32> {
    use hybridcs_rand::RngExt;
    let mut pool: Vec<u32> = (0..m as u32).collect();
    for i in 0..k {
        let j = rng.random_range(i..m);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_linalg::vector;

    #[test]
    fn bernoulli_shape_and_determinism() {
        let a = SensingMatrix::bernoulli(8, 32, 5).unwrap();
        let b = SensingMatrix::bernoulli(8, 32, 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.measurements(), 8);
        assert_eq!(a.window(), 32);
        assert_eq!(a.kind_name(), "bernoulli");
    }

    #[test]
    fn bernoulli_rows_have_unit_norm() {
        let phi = SensingMatrix::bernoulli(4, 64, 1).unwrap();
        let mat = phi.to_matrix();
        for i in 0..4 {
            let norm = vector::norm2(mat.row(i));
            assert!((norm - 1.0).abs() < 1e-12, "row {i} norm {norm}");
        }
    }

    #[test]
    fn apply_matches_materialized_matrix() {
        for phi in [
            SensingMatrix::bernoulli(8, 32, 7).unwrap(),
            SensingMatrix::sparse_binary(8, 32, 3, 7).unwrap(),
        ] {
            let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
            let fast = phi.apply(&x);
            let dense = phi.to_matrix().matvec(&x);
            for (a, b) in fast.iter().zip(&dense) {
                assert!((a - b).abs() < 1e-12, "{}", phi.kind_name());
            }
        }
    }

    #[test]
    fn adjoint_identity() {
        for phi in [
            SensingMatrix::bernoulli(6, 24, 2).unwrap(),
            SensingMatrix::sparse_binary(6, 24, 2, 2).unwrap(),
        ] {
            let x: Vec<f64> = (0..24).map(|i| i as f64 - 12.0).collect();
            let y: Vec<f64> = (0..6).map(|i| (i as f64).cos()).collect();
            let lhs = vector::dot(&phi.apply(&x), &y);
            let rhs = vector::dot(&x, &phi.apply_adjoint(&y));
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "{}",
                phi.kind_name()
            );
        }
    }

    #[test]
    fn sparse_binary_columns_have_exact_weight() {
        let phi = SensingMatrix::sparse_binary(16, 40, 4, 11).unwrap();
        let mat = phi.to_matrix();
        for j in 0..40 {
            let col = mat.col(j);
            let nonzeros = col.iter().filter(|v| **v != 0.0).count();
            assert_eq!(nonzeros, 4, "column {j}");
            let norm = vector::norm2(&col);
            assert!((norm - 1.0).abs() < 1e-12, "column {j} norm {norm}");
        }
    }

    #[test]
    fn sparse_binary_rows_are_distinct_within_column() {
        let phi = SensingMatrix::sparse_binary(8, 100, 8, 3).unwrap();
        // ones_per_column == m: every column must be all rows exactly once.
        let mat = phi.to_matrix();
        for j in 0..100 {
            assert!(mat.col(j).iter().all(|v| *v != 0.0));
        }
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(SensingMatrix::bernoulli(0, 10, 0).is_err());
        assert!(SensingMatrix::bernoulli(10, 0, 0).is_err());
        assert!(SensingMatrix::bernoulli(20, 10, 0).is_err());
        assert!(SensingMatrix::sparse_binary(8, 32, 0, 0).is_err());
        assert!(SensingMatrix::sparse_binary(8, 32, 9, 0).is_err());
    }

    #[test]
    fn batch_kernels_bit_identical_to_serial_per_lane() {
        // Shapes chosen to exercise the 4-column group tail (n % 4 != 0),
        // the 4-row quad tail (m % 4 != 0), the 4-wide vector lanes, the
        // lanes outside them that run the serial kernel (a lone lane, a
        // pair, a triple, one lane past a vector), the widths where an
        // AVX-512 panel mixes two-`__m512d`, one-`__m512d` and `__m256d`
        // blocks (24, 28, 32), and tables of several chunks (n = 150 at
        // k = 16 builds 37 groups eight at a time; m = 78 folds 19 planes
        // in three chunks; k = 4 chunks every 32 groups) — on every tier
        // the host has.
        let tiers: Vec<Tier> = hybridcs_linalg::simd::available_tiers().collect();
        let mats = [
            SensingMatrix::bernoulli(8, 32, 3).unwrap(),
            SensingMatrix::bernoulli(6, 37, 11).unwrap(),
            SensingMatrix::bernoulli(7, 37, 5).unwrap(),
            SensingMatrix::bernoulli(78, 150, 13).unwrap(),
            SensingMatrix::bernoulli(3, 3, 2).unwrap(),
            SensingMatrix::sparse_binary(8, 32, 3, 7).unwrap(),
        ];
        for phi in &mats {
            let (m, n) = (phi.measurements(), phi.window());
            for &k in &[1usize, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 20, 24, 28, 32, 33] {
                let mut x_panel = vec![0.0; n * k];
                let mut y_panel = vec![0.0; m * k];
                let mut lanes_x: Vec<Vec<f64>> = Vec::new();
                let mut lanes_y: Vec<Vec<f64>> = Vec::new();
                for lane in 0..k {
                    let sx: Vec<f64> = (0..n)
                        .map(|i| {
                            ((i * 13 + lane * 7) as f64 * 0.37).sin()
                                * 1e3_f64.powi(lane as i32 % 3 - 1)
                        })
                        .collect();
                    let sy: Vec<f64> = (0..m)
                        .map(|i| ((i * 5 + lane * 3) as f64 * 0.71).cos())
                        .collect();
                    for (i, &v) in sx.iter().enumerate() {
                        x_panel[i * k + lane] = v;
                    }
                    for (i, &v) in sy.iter().enumerate() {
                        y_panel[i * k + lane] = v;
                    }
                    lanes_x.push(sx);
                    lanes_y.push(sy);
                }
                let mut serial_scratch = vec![0.0; phi.forward_scratch_len()];
                for &tier in &tiers {
                    let mut scratch = vec![f64::NAN; phi.batch_scratch_len(k)];
                    let mut fwd = vec![f64::NAN; m * k];
                    phi.apply_batch_tier(&x_panel, k, &mut fwd, &mut scratch, tier);
                    for (lane, sx) in lanes_x.iter().enumerate() {
                        let mut want = vec![0.0; m];
                        phi.apply_into_scratch(sx, &mut want, &mut serial_scratch);
                        for (i, w) in want.iter().enumerate() {
                            assert_eq!(
                                fwd[i * k + lane].to_bits(),
                                w.to_bits(),
                                "{} fwd k{k} lane{lane} {}",
                                phi.kind_name(),
                                tier.name()
                            );
                        }
                    }
                    let mut adj = vec![f64::NAN; n * k];
                    phi.apply_adjoint_batch_tier(&y_panel, k, &mut adj, &mut scratch, tier);
                    for (lane, sy) in lanes_y.iter().enumerate() {
                        let mut want = vec![0.0; n];
                        phi.apply_adjoint_into_scratch(sy, &mut want, &mut serial_scratch);
                        for (i, w) in want.iter().enumerate() {
                            assert_eq!(
                                adj[i * k + lane].to_bits(),
                                w.to_bits(),
                                "{} adj k{k} lane{lane} {}",
                                phi.kind_name(),
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// A scratch sized for a width serves every narrower width, which is
    /// what a solve whose lanes retire relies on.
    #[test]
    fn batch_scratch_covers_every_narrower_width() {
        for phi in [
            SensingMatrix::bernoulli(96, 512, 1).unwrap(),
            SensingMatrix::bernoulli(7, 37, 5).unwrap(),
            SensingMatrix::sparse_binary(8, 32, 3, 7).unwrap(),
        ] {
            for k in 2..=300 {
                assert!(
                    phi.batch_scratch_len(k - 1) <= phi.batch_scratch_len(k),
                    "{} k{k}",
                    phi.kind_name()
                );
            }
        }
    }

    #[test]
    fn operator_norm_is_modest() {
        // A normalized Bernoulli matrix should have ‖Φ‖ near √(m/n)·√n/√n…
        // empirically below ~2.2 for these shapes; guard against scaling bugs.
        let phi = SensingMatrix::bernoulli(32, 128, 9).unwrap();
        let (norm, _) = hybridcs_linalg::operator_norm_est(
            128,
            32,
            |x, out| out.copy_from_slice(&phi.apply(x)),
            |y, out| out.copy_from_slice(&phi.apply_adjoint(y)),
            hybridcs_linalg::PowerIterationOptions::default(),
        );
        assert!(norm > 0.5 && norm < 2.5, "‖Φ‖ = {norm}");
    }
}
