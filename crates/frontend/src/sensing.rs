use crate::{ChippingSequence, FrontEndError};
use hybridcs_linalg::simd::{serial_lanes, vector_lanes};
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
/// `c_r = ±1` multiplied in (`±1·w` is exactly `±w`).
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
    /// room for the per-4-column sign-sum table shared by all rows.
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
    /// width `k`.
    #[must_use]
    pub fn batch_scratch_len(&self, k: usize) -> usize {
        // Panel tables for the vector lanes (forward: groups·16 per lane,
        // adjoint: 16 per lane), then one lane's gather/scatter buffers
        // and, for the forward, the serial kernel's table: a panel with
        // lanes outside a 4-wide vector covers at most `k − 1` with
        // tables, which leaves room for the serial one.
        self.forward_scratch_len() * k + 16 * k + self.n + self.m
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
            hybridcs_linalg::simd::simd_enabled(),
        );
    }

    fn apply_batch_tier(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        simd: bool,
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
                let (table, rest) = scratch.split_at_mut(self.forward_scratch_len() * lanes);
                if lanes > 0 {
                    batch_kernels::forward(
                        rows, *scale, x_panel, k, lanes, self.n, out_panel, table, simd,
                    );
                }
                serial_lanes(x_panel, k, lanes, out_panel, rest, |x, y, s| {
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
    /// twin of [`SensingMatrix::apply_adjoint_into`], bit-identical per
    /// lane, with the same split as [`SensingMatrix::apply_batch_into_scratch`]:
    /// the lane-parallel kernel covers the first `4⌊k/4⌋` lanes and
    /// [`SensingMatrix::apply_adjoint_into`] runs the rest.
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
            hybridcs_linalg::simd::simd_enabled(),
        );
    }

    fn apply_adjoint_batch_tier(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        simd: bool,
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
                let (table16, rest) = scratch.split_at_mut(16 * lanes);
                if lanes > 0 {
                    batch_kernels::adjoint(
                        rows, nibbles, *scale, y_panel, k, lanes, self.n, out_panel, table16, simd,
                    );
                }
                serial_lanes(y_panel, k, lanes, out_panel, rest, |y, x, _| {
                    self.apply_adjoint_into(y, x);
                });
            }
            Kind::SparseBinary { .. } => {
                serial_lanes(y_panel, k, 0, out_panel, scratch, |y, x, _| {
                    self.apply_adjoint_into(y, x);
                });
            }
        }
    }

    /// Adjoint application `x = Φᵀy`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.measurements()`.
    #[must_use]
    pub fn apply_adjoint(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.apply_adjoint_into(y, &mut x);
        x
    }

    /// Allocation-free adjoint application `out = Φᵀy`.
    ///
    /// Rows accumulate into `out` in ascending groups of four (the order
    /// the property tests' unpacked ±1 reference shares): each element
    /// receives `((±w₀±w₁)±w₂)±w₃` with `w_r = scale·y[4g+r]`, looked up
    /// from a 16-entry sign table by the column's precomputed sign nibble —
    /// one lookup replaces four sign applications. Any `m mod 4` tail rows
    /// accumulate one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.measurements()` or `out.len() !=
    /// self.window()`.
    pub fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.m, "sensing adjoint: length mismatch");
        assert_eq!(out.len(), self.n, "sensing adjoint: output length mismatch");
        match &self.kind {
            Kind::DenseBernoulli {
                rows,
                nibbles,
                scale,
            } => {
                out.fill(0.0);
                for (g, plane) in nibbles.iter().enumerate() {
                    let t = sign_table([
                        scale * y[4 * g],
                        scale * y[4 * g + 1],
                        scale * y[4 * g + 2],
                        scale * y[4 * g + 3],
                    ]);
                    for (chunk, &word0) in out.chunks_mut(16).zip(plane) {
                        let mut word = word0;
                        for xj in chunk {
                            *xj += t[(word & 15) as usize];
                            word >>= 4;
                        }
                    }
                }
                for i in nibbles.len() * 4..rows.len() {
                    let w = scale * y[i];
                    let sw = [w, -w];
                    for (chunk, &word0) in out.chunks_mut(64).zip(rows[i].sign_words()) {
                        let mut word = word0;
                        for xj in chunk {
                            *xj += sw[(word & 1) as usize];
                            word >>= 1;
                        }
                    }
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

/// Lane-parallel twins of the packed-sign kernels over column-major
/// panels of stride `k`, covering the first `lanes` lanes (a multiple of
/// four, see [`hybridcs_linalg::simd::vector_lanes`]). Per lane the
/// group/tail accumulation order is identical to
/// [`SensingMatrix::apply_into_scratch`] / `apply_adjoint_into`, so every
/// lane is bit-identical to a serial application; the sign flips are exact
/// negations (sign-bit xor) and the group sums use the same
/// `((s₀+s₁)+s₂)+s₃` tree, so the SIMD tier cannot diverge either.
///
/// Unlike the element-wise kernels of [`hybridcs_linalg::simd`], these
/// keep a hand-written AVX2 tier. Compiled from the scalar source inside
/// [`on_tier`](hybridcs_linalg::simd::on_tier)'s AVX2 frame they ran
/// 2–41 % slower in two interleaved `kernels_batch` pairs on a 2-vCPU AVX2
/// host: LLVM keeps each row's per-lane accumulators in memory, while the
/// intrinsics hold one 4-lane accumulator in a register across the whole
/// fold.
#[allow(unsafe_code)]
mod batch_kernels {
    use crate::ChippingSequence;

    /// Sign nibble of group `g` in a row's sign bitplane.
    #[inline]
    fn group_nibble(words: &[u64], g: usize) -> usize {
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
        simd: bool,
    ) {
        // Every 4-wide access below stays inside the first `lanes` lanes.
        assert!(lanes > 0 && lanes.is_multiple_of(4) && lanes <= k);
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` comes from `simd_enabled`, which requires
            // runtime AVX2 support; the assert above bounds every access.
            unsafe { forward_avx(rows, scale, x_panel, k, lanes, n, out_panel, table) };
            return;
        }
        let _ = simd;
        forward_scalar(rows, scale, x_panel, k, lanes, n, out_panel, table);
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
        table16: &mut [f64],
        simd: bool,
    ) {
        // Every 4-wide access below stays inside the first `lanes` lanes.
        assert!(lanes > 0 && lanes.is_multiple_of(4) && lanes <= k);
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` comes from `simd_enabled`, which requires
            // runtime AVX2 support; the assert above bounds every access.
            unsafe {
                adjoint_avx(
                    rows, nibbles, scale, y_panel, k, lanes, n, out_panel, table16,
                )
            };
            return;
        }
        let _ = simd;
        adjoint_scalar(
            rows, nibbles, scale, y_panel, k, lanes, n, out_panel, table16,
        );
    }

    /// Builds the lane-wide sign-sum table rows for one 4-column group:
    /// `table[idx*lanes + lane] = ((±q₀ ± q₁) ± q₂) ± q₃` over the four
    /// quad rows, matching `sign_table` per lane.
    #[inline]
    fn fill_group_table(quad: [&[f64]; 4], table: &mut [f64]) {
        let lanes = quad[0].len();
        for (idx, row) in table.chunks_exact_mut(lanes).enumerate() {
            for (lane, slot) in row.iter_mut().enumerate() {
                let s0 = if idx & 1 == 0 {
                    quad[0][lane]
                } else {
                    -quad[0][lane]
                };
                let s1 = if idx & 2 == 0 {
                    quad[1][lane]
                } else {
                    -quad[1][lane]
                };
                let s2 = if idx & 4 == 0 {
                    quad[2][lane]
                } else {
                    -quad[2][lane]
                };
                let s3 = if idx & 8 == 0 {
                    quad[3][lane]
                } else {
                    -quad[3][lane]
                };
                *slot = ((s0 + s1) + s2) + s3;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_scalar(
        rows: &[ChippingSequence],
        scale: f64,
        x_panel: &[f64],
        k: usize,
        lanes: usize,
        n: usize,
        out_panel: &mut [f64],
        table: &mut [f64],
    ) {
        let groups = n / 4;
        for g in 0..groups {
            let base = g * 4 * k;
            fill_group_table(
                [
                    &x_panel[base..base + lanes],
                    &x_panel[base + k..base + k + lanes],
                    &x_panel[base + 2 * k..base + 2 * k + lanes],
                    &x_panel[base + 3 * k..base + 3 * k + lanes],
                ],
                &mut table[g * 16 * lanes..(g + 1) * 16 * lanes],
            );
        }
        for (i, row) in rows.iter().enumerate() {
            let words = row.sign_words();
            let out_row = &mut out_panel[i * k..i * k + lanes];
            out_row.fill(0.0);
            for g in 0..groups {
                let at = (g * 16 + group_nibble(words, g)) * lanes;
                for (o, &t) in out_row.iter_mut().zip(&table[at..at + lanes]) {
                    *o += t;
                }
            }
            for j in groups * 4..n {
                let xr = &x_panel[j * k..j * k + lanes];
                if sign_bit(words, j) {
                    for (o, &v) in out_row.iter_mut().zip(xr) {
                        *o += -v;
                    }
                } else {
                    for (o, &v) in out_row.iter_mut().zip(xr) {
                        *o += v;
                    }
                }
            }
            for o in out_row.iter_mut() {
                *o *= scale;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn adjoint_scalar(
        rows: &[ChippingSequence],
        nibbles: &[Vec<u64>],
        scale: f64,
        y_panel: &[f64],
        k: usize,
        lanes: usize,
        n: usize,
        out_panel: &mut [f64],
        table16: &mut [f64],
    ) {
        out_panel.fill(0.0);
        for (g, plane) in nibbles.iter().enumerate() {
            // w_r = scale · y-row — scaled before the sign tree, exactly
            // like the serial adjoint's `sign_table([scale*y, ...])`.
            let base = 4 * g * k;
            for (idx, row) in table16[..16 * lanes].chunks_exact_mut(lanes).enumerate() {
                for (lane, slot) in row.iter_mut().enumerate() {
                    let w0 = scale * y_panel[base + lane];
                    let w1 = scale * y_panel[base + k + lane];
                    let w2 = scale * y_panel[base + 2 * k + lane];
                    let w3 = scale * y_panel[base + 3 * k + lane];
                    let s0 = if idx & 1 == 0 { w0 } else { -w0 };
                    let s1 = if idx & 2 == 0 { w1 } else { -w1 };
                    let s2 = if idx & 4 == 0 { w2 } else { -w2 };
                    let s3 = if idx & 8 == 0 { w3 } else { -w3 };
                    *slot = ((s0 + s1) + s2) + s3;
                }
            }
            for j in 0..n {
                let nib = ((plane[j / 16] >> (4 * (j % 16))) & 15) as usize;
                let trow = &table16[nib * lanes..(nib + 1) * lanes];
                let or = &mut out_panel[j * k..j * k + lanes];
                for (o, &t) in or.iter_mut().zip(trow) {
                    *o += t;
                }
            }
        }
        for (i, row) in rows.iter().enumerate().skip(nibbles.len() * 4) {
            let words = row.sign_words();
            let wrow = &mut table16[..lanes];
            for (w, y) in wrow.iter_mut().zip(&y_panel[i * k..i * k + lanes]) {
                *w = scale * y;
            }
            for j in 0..n {
                let or = &mut out_panel[j * k..j * k + lanes];
                if sign_bit(words, j) {
                    for (o, &w) in or.iter_mut().zip(wrow.iter()) {
                        *o += -w;
                    }
                } else {
                    for (o, &w) in or.iter_mut().zip(wrow.iter()) {
                        *o += w;
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm256_xor_pd,
    };

    /// Exact 4-lane negation (sign-bit xor — identical bits to scalar `-x`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn neg4(v: __m256d) -> __m256d {
        _mm256_xor_pd(v, _mm256_set1_pd(-0.0))
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_group_table_avx(quad: [*const f64; 4], lanes: usize, table: &mut [f64]) {
        for lane in (0..lanes).step_by(4) {
            let q = [
                _mm256_loadu_pd(quad[0].add(lane)),
                _mm256_loadu_pd(quad[1].add(lane)),
                _mm256_loadu_pd(quad[2].add(lane)),
                _mm256_loadu_pd(quad[3].add(lane)),
            ];
            for idx in 0..16usize {
                let s0 = if idx & 1 == 0 { q[0] } else { neg4(q[0]) };
                let s1 = if idx & 2 == 0 { q[1] } else { neg4(q[1]) };
                let s2 = if idx & 4 == 0 { q[2] } else { neg4(q[2]) };
                let s3 = if idx & 8 == 0 { q[3] } else { neg4(q[3]) };
                let sum = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(s0, s1), s2), s3);
                _mm256_storeu_pd(table.as_mut_ptr().add(idx * lanes + lane), sum);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_avx(
        rows: &[ChippingSequence],
        scale: f64,
        x_panel: &[f64],
        k: usize,
        lanes: usize,
        n: usize,
        out_panel: &mut [f64],
        table: &mut [f64],
    ) {
        let groups = n / 4;
        for g in 0..groups {
            let base = g * 4 * k;
            fill_group_table_avx(
                [
                    x_panel.as_ptr().add(base),
                    x_panel.as_ptr().add(base + k),
                    x_panel.as_ptr().add(base + 2 * k),
                    x_panel.as_ptr().add(base + 3 * k),
                ],
                lanes,
                &mut table[g * 16 * lanes..(g + 1) * 16 * lanes],
            );
        }
        let sv = _mm256_set1_pd(scale);
        for (i, row) in rows.iter().enumerate() {
            let words = row.sign_words();
            for lane in (0..lanes).step_by(4) {
                let mut acc = std::arch::x86_64::_mm256_setzero_pd();
                for g in 0..groups {
                    let nib = group_nibble(words, g);
                    let t = _mm256_loadu_pd(table.as_ptr().add((g * 16 + nib) * lanes + lane));
                    acc = _mm256_add_pd(acc, t);
                }
                for j in groups * 4..n {
                    let xv = _mm256_loadu_pd(x_panel.as_ptr().add(j * k + lane));
                    acc = if sign_bit(words, j) {
                        _mm256_sub_pd(acc, xv)
                    } else {
                        _mm256_add_pd(acc, xv)
                    };
                }
                _mm256_storeu_pd(
                    out_panel.as_mut_ptr().add(i * k + lane),
                    _mm256_mul_pd(acc, sv),
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn adjoint_avx(
        rows: &[ChippingSequence],
        nibbles: &[Vec<u64>],
        scale: f64,
        y_panel: &[f64],
        k: usize,
        lanes: usize,
        n: usize,
        out_panel: &mut [f64],
        table16: &mut [f64],
    ) {
        out_panel.fill(0.0);
        let sv = _mm256_set1_pd(scale);
        for (g, plane) in nibbles.iter().enumerate() {
            let base = 4 * g * k;
            // Scaled quad rows: the serial adjoint scales before the sign
            // tree, so multiply each load by `scale` before the tree.
            for lane in (0..lanes).step_by(4) {
                let q = [
                    _mm256_mul_pd(sv, _mm256_loadu_pd(y_panel.as_ptr().add(base + lane))),
                    _mm256_mul_pd(sv, _mm256_loadu_pd(y_panel.as_ptr().add(base + k + lane))),
                    _mm256_mul_pd(
                        sv,
                        _mm256_loadu_pd(y_panel.as_ptr().add(base + 2 * k + lane)),
                    ),
                    _mm256_mul_pd(
                        sv,
                        _mm256_loadu_pd(y_panel.as_ptr().add(base + 3 * k + lane)),
                    ),
                ];
                for idx in 0..16usize {
                    let s0 = if idx & 1 == 0 { q[0] } else { neg4(q[0]) };
                    let s1 = if idx & 2 == 0 { q[1] } else { neg4(q[1]) };
                    let s2 = if idx & 4 == 0 { q[2] } else { neg4(q[2]) };
                    let s3 = if idx & 8 == 0 { q[3] } else { neg4(q[3]) };
                    let sum = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(s0, s1), s2), s3);
                    _mm256_storeu_pd(table16.as_mut_ptr().add(idx * lanes + lane), sum);
                }
            }
            for j in 0..n {
                let nib = ((plane[j / 16] >> (4 * (j % 16))) & 15) as usize;
                for lane in (0..lanes).step_by(4) {
                    let t = _mm256_loadu_pd(table16.as_ptr().add(nib * lanes + lane));
                    let o = _mm256_loadu_pd(out_panel.as_ptr().add(j * k + lane));
                    _mm256_storeu_pd(
                        out_panel.as_mut_ptr().add(j * k + lane),
                        _mm256_add_pd(o, t),
                    );
                }
            }
        }
        for (i, row) in rows.iter().enumerate().skip(nibbles.len() * 4) {
            let words = row.sign_words();
            for (w, y) in table16[..lanes]
                .iter_mut()
                .zip(&y_panel[i * k..i * k + lanes])
            {
                *w = scale * y;
            }
            for j in 0..n {
                let neg = sign_bit(words, j);
                for lane in (0..lanes).step_by(4) {
                    let wv = _mm256_loadu_pd(table16.as_ptr().add(lane));
                    let o = _mm256_loadu_pd(out_panel.as_ptr().add(j * k + lane));
                    let r = if neg {
                        _mm256_sub_pd(o, wv)
                    } else {
                        _mm256_add_pd(o, wv)
                    };
                    _mm256_storeu_pd(out_panel.as_mut_ptr().add(j * k + lane), r);
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
        // the 4-row quad tail (m % 4 != 0), the 4-wide vector lanes and
        // the lanes outside them that run the serial kernel (a lone lane,
        // a pair, a triple, one lane past a vector) — under both tiers.
        let tiers: &[bool] = if hybridcs_linalg::simd::simd_available() {
            &[false, true]
        } else {
            &[false]
        };
        let mats = [
            SensingMatrix::bernoulli(8, 32, 3).unwrap(),
            SensingMatrix::bernoulli(6, 37, 11).unwrap(),
            SensingMatrix::sparse_binary(8, 32, 3, 7).unwrap(),
        ];
        for phi in &mats {
            let (m, n) = (phi.measurements(), phi.window());
            for &k in &[1usize, 2, 3, 4, 5, 7, 8] {
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
                for &simd in tiers {
                    let mut scratch = vec![0.0; phi.batch_scratch_len(k)];
                    let mut fwd = vec![f64::NAN; m * k];
                    phi.apply_batch_tier(&x_panel, k, &mut fwd, &mut scratch, simd);
                    for (lane, sx) in lanes_x.iter().enumerate() {
                        let mut want = vec![0.0; m];
                        phi.apply_into_scratch(sx, &mut want, &mut serial_scratch);
                        for (i, w) in want.iter().enumerate() {
                            assert_eq!(
                                fwd[i * k + lane].to_bits(),
                                w.to_bits(),
                                "{} fwd k{k} lane{lane} simd={simd}",
                                phi.kind_name()
                            );
                        }
                    }
                    let mut adj = vec![f64::NAN; n * k];
                    phi.apply_adjoint_batch_tier(&y_panel, k, &mut adj, &mut scratch, simd);
                    for (lane, sy) in lanes_y.iter().enumerate() {
                        let mut want = vec![0.0; n];
                        phi.apply_adjoint_into(sy, &mut want);
                        for (i, w) in want.iter().enumerate() {
                            assert_eq!(
                                adj[i * k + lane].to_bits(),
                                w.to_bits(),
                                "{} adj k{k} lane{lane} simd={simd}",
                                phi.kind_name()
                            );
                        }
                    }
                }
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
