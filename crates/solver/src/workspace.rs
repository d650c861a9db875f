//! Reusable buffer arena for the decode hot path.
//!
//! Every solver in this crate except OMP and CoSaMP borrows a
//! [`SolverWorkspace`] for all per-iteration vectors (residuals, gradients,
//! DWT scratch, dual variables, …) and for the signal it returns. Buffers are acquired at solve entry and
//! released back to the pool on exit, so a workspace that is reused across
//! windows reaches a steady state where the solver inner loop performs **zero
//! heap allocations** — the invariant enforced by the counting-allocator gate
//! in `examples/decode_throughput.rs` / `scripts/ci.sh`.
//!
//! The pool is deliberately simple: a flat list of `Vec<f64>` buffers with
//! best-fit-by-capacity reuse. Solvers acquire a handful of buffers with a
//! small set of distinct lengths, so the pool stays tiny (≈ a dozen entries)
//! and lookup cost is negligible next to one operator application.

/// A pool of reusable `f64` buffers shared by the solver entry points.
///
/// Not thread-safe by design — the gateway keeps one workspace per shard and
/// each shard is owned by exactly one worker per flush, so no synchronization
/// is needed on the hot path.
///
/// # Example
///
/// ```
/// use hybridcs_solver::SolverWorkspace;
///
/// let mut ws = SolverWorkspace::new();
/// let buf = ws.acquire(512);
/// assert!(buf.iter().all(|&v| v == 0.0));
/// ws.release(buf);
/// // The next acquire of any length ≤ 512 reuses that capacity.
/// let again = ws.acquire(96);
/// assert_eq!(again.len(), 96);
/// assert!(again.capacity() >= 512);
/// ```
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    pool: Vec<Vec<f64>>,
    idx_pool: Vec<Vec<usize>>,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are pooled as solvers release
    /// them.
    #[must_use]
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Takes a zeroed buffer of exactly `len` elements.
    ///
    /// Reuses the pooled buffer with the smallest sufficient capacity when
    /// one exists; otherwise allocates (this is the warm-up cost — once every
    /// length a solver needs has been released back, acquire never
    /// allocates).
    #[must_use]
    pub fn acquire(&mut self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let mut best: Option<usize> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|j: usize| self.pool[j].capacity() > buf.capacity())
            {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse. Contents are discarded;
    /// only the capacity matters.
    pub fn release(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Takes a zeroed `rows × cols` panel (column-major over lanes: element
    /// `i` of lane `l` lives at `i * cols + l`) for the batched PDHG solver.
    ///
    /// This is [`acquire`](SolverWorkspace::acquire)`(rows * cols)` — panels
    /// share the same capacity classes as plain vectors, so a pool warmed by
    /// K-wide batch solves also serves serial solves of compatible sizes and
    /// vice versa, keeping the zero-allocation steady state across mixed
    /// batch sizes.
    #[must_use]
    pub fn acquire_panel(&mut self, rows: usize, cols: usize) -> Vec<f64> {
        self.acquire(rows * cols)
    }

    /// Takes an **empty** index buffer with capacity at least `cap` (used by
    /// the greedy solvers for support selection). Mirrors
    /// [`acquire`](SolverWorkspace::acquire) but for `Vec<usize>`.
    #[must_use]
    pub fn acquire_indices(&mut self, cap: usize) -> Vec<usize> {
        if cap == 0 {
            return Vec::new();
        }
        let mut best: Option<usize> = None;
        for (i, buf) in self.idx_pool.iter().enumerate() {
            if buf.capacity() >= cap
                && best.is_none_or(|j: usize| self.idx_pool[j].capacity() > buf.capacity())
            {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => self.idx_pool.swap_remove(i),
            None => Vec::with_capacity(cap),
        };
        buf.clear();
        buf
    }

    /// Returns an index buffer to the pool for later reuse.
    pub fn release_indices(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.idx_pool.push(buf);
        }
    }

    /// Number of buffers currently pooled (diagnostic; used by tests and the
    /// throughput bench to verify steady state).
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.pool.len() + self.idx_pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_zeroes_and_reuses_capacity() {
        let mut ws = SolverWorkspace::new();
        let mut buf = ws.acquire(100);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let ptr = buf.as_ptr();
        ws.release(buf);
        let again = ws.acquire(64);
        assert_eq!(again.len(), 64);
        assert!(again.iter().all(|&v| v == 0.0), "buffer not re-zeroed");
        assert_eq!(again.as_ptr(), ptr, "capacity was not reused");
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = SolverWorkspace::new();
        let small = ws.acquire(10);
        let big = ws.acquire(1000);
        let small_ptr = small.as_ptr();
        ws.release(big);
        ws.release(small);
        // A 10-element request must take the 10-capacity buffer, not the
        // 1000-capacity one.
        let got = ws.acquire(10);
        assert_eq!(got.as_ptr(), small_ptr);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn zero_len_and_empty_release() {
        let mut ws = SolverWorkspace::new();
        let empty = ws.acquire(0);
        assert!(empty.is_empty());
        ws.release(empty);
        assert_eq!(ws.pooled(), 0, "zero-capacity buffers are not pooled");
    }
}
