//! Gateway policy knobs.

use crate::GatewayError;
use hybridcs_core::SupervisorConfig;
use hybridcs_faults::ArqConfig;

/// Policy for the multi-session gateway.
///
/// The determinism contract (see the [crate docs](crate)) hinges on two of
/// these fields: `shards` fixes the session→shard mapping independently of
/// how many workers run, and `admit_quota`/`admit_window` make admission
/// shedding a function of the session's own stream position only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Number of shards sessions are hashed onto. Fixed by config — NOT
    /// derived from `workers` — so shard assignment (and therefore
    /// queue-full shedding) does not move when the pool is resized.
    pub shards: usize,
    /// Worker threads per flush. Purely a throughput knob; outputs are
    /// bit-identical for any value ≥ 1.
    pub workers: usize,
    /// Largest group of same-shape windows a worker solves as one batched
    /// (lockstep, K-wide-panel) decode. Like `workers`, purely a
    /// throughput knob: every window of a batched solve is bit-identical
    /// to solving it alone, so outputs do not depend on this value. The
    /// panel kernels vectorize the first `4⌊K/4⌋` lanes and run every
    /// other lane through the contiguous serial sensing and wavelet
    /// kernels. `1` solves one window per panel, which is exactly the
    /// one-window decode.
    pub max_decode_batch: usize,
    /// Bounded per-shard solver queue: at most this many *full* (solver
    /// admitted) windows may be queued per shard within one batch; excess
    /// windows are shed to the low-resolution rung.
    pub max_shard_queue: usize,
    /// Auto-flush threshold: when this many windows are queued across all
    /// shards, `push` flushes the batch itself. It also bounds gap
    /// repair: a header more than this many sequences past the highest
    /// frame seen resyncs the session ([`push`](crate::Gateway::push)).
    pub batch_capacity: usize,
    /// Per-session admission quota: at most this many solver-admitted
    /// windows per `admit_window` consecutive windows of that session's
    /// stream. Windows over quota are shed (ladder reason `"shed"`).
    pub admit_quota: u32,
    /// Epoch length (in released windows of one session) over which
    /// `admit_quota` applies. With `admit_quota >= admit_window` admission
    /// shedding never fires.
    pub admit_window: u32,
    /// Per-session ARQ limits for gap repair.
    pub arq: ArqConfig,
    /// Watchdog and concealment policy handed to every session's decode
    /// ladder and ledger.
    pub supervisor: SupervisorConfig,
    /// Group-commit threshold for the write-ahead journal: encoded records
    /// accumulate in memory and are forced to the store once this many
    /// bytes are buffered (the delivery points — `flush`, `take_nacks`,
    /// `take_outputs`, `close`, checkpoints — always sync regardless).
    /// `0` syncs every record — maximal durability, maximal overhead.
    /// Ignored when the gateway runs without a journal.
    pub journal_group_bytes: usize,
    /// A snapshot checkpoint is appended to the journal once this many
    /// journaled events have accumulated since the previous checkpoint
    /// (bounding replay work at recovery). Checked at batch boundaries so
    /// checkpoints always capture a quiescent (empty-batch) state.
    pub checkpoint_every: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 8,
            workers: 1,
            max_decode_batch: 16,
            max_shard_queue: 64,
            batch_capacity: 256,
            admit_quota: 4,
            admit_window: 4,
            arq: ArqConfig::default(),
            supervisor: SupervisorConfig::default(),
            journal_group_bytes: 16 * 1024,
            checkpoint_every: 1024,
        }
    }
}

impl GatewayConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::Config`] naming the first bad field.
    pub fn validate(&self) -> Result<(), GatewayError> {
        if self.shards == 0 {
            return Err(GatewayError::Config("shards must be >= 1"));
        }
        if self.workers == 0 {
            return Err(GatewayError::Config("workers must be >= 1"));
        }
        if self.max_decode_batch == 0 {
            return Err(GatewayError::Config("max_decode_batch must be >= 1"));
        }
        if self.max_shard_queue == 0 {
            return Err(GatewayError::Config("max_shard_queue must be >= 1"));
        }
        if self.batch_capacity == 0 {
            return Err(GatewayError::Config("batch_capacity must be >= 1"));
        }
        if self.admit_window == 0 {
            return Err(GatewayError::Config("admit_window must be >= 1"));
        }
        if self.checkpoint_every == 0 {
            return Err(GatewayError::Config("checkpoint_every must be >= 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(GatewayConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        for bad in [
            GatewayConfig {
                shards: 0,
                ..GatewayConfig::default()
            },
            GatewayConfig {
                workers: 0,
                ..GatewayConfig::default()
            },
            GatewayConfig {
                max_decode_batch: 0,
                ..GatewayConfig::default()
            },
            GatewayConfig {
                max_shard_queue: 0,
                ..GatewayConfig::default()
            },
            GatewayConfig {
                batch_capacity: 0,
                ..GatewayConfig::default()
            },
            GatewayConfig {
                admit_window: 0,
                ..GatewayConfig::default()
            },
            GatewayConfig {
                checkpoint_every: 0,
                ..GatewayConfig::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(GatewayError::Config(_))));
        }
    }
}
