//! Output correctness: every offered window commits exactly once, in
//! sequence order, finite and of window length; full-hybrid windows clear
//! an SNR floor. Every violation counts as one failed window.

use std::collections::BTreeMap;

use hybridcs_core::{LadderRung, SupervisedWindow};

/// SNR (dB) every full-hybrid window must reach against the clean window.
/// The paper's operating point reconstructs the synthetic corpus at
/// roughly 15–25 dB; a broken solve lands far below this.
pub const HYBRID_SNR_FLOOR_DB: f64 = 8.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

#[derive(Default)]
struct SessionAudit {
    offered: u32,
    committed: u32,
    digest: u64,
}

/// Per-run audit of committed windows plus the quality and ladder tallies
/// derived from them.
pub struct Audit {
    window: usize,
    /// Windows with `seq < digest_depth` of sessions with `id < digest_ids`
    /// enter the digest — a set that does not depend on run length.
    digest_depth: u32,
    digest_ids: u64,
    sessions: BTreeMap<u64, SessionAudit>,
    pub failed: u64,
    first_violations: Vec<String>,
    pub snr_db: Vec<f64>,
    pub rungs: [u64; 4],
    pub shed: u64,
    pub iterations: Vec<f64>,
    pub converged: u64,
}

impl Audit {
    pub fn new(window: usize, digest_depth: u32, digest_ids: u64) -> Self {
        Audit {
            window,
            digest_depth,
            digest_ids,
            sessions: BTreeMap::new(),
            failed: 0,
            first_violations: Vec::new(),
            snr_db: Vec::new(),
            rungs: [0; 4],
            shed: 0,
            iterations: Vec::new(),
            converged: 0,
        }
    }

    /// Records that `id` offered one more window.
    pub fn offered(&mut self, id: u64) {
        self.sessions.entry(id).or_default().offered += 1;
    }

    /// The sequence number `id`'s next committed window must carry.
    pub fn next_seq(&self, id: u64) -> u32 {
        self.sessions.get(&id).map_or(0, |s| s.committed)
    }

    pub fn attempted(&self) -> u64 {
        self.sessions.values().map(|s| u64::from(s.offered)).sum()
    }

    pub fn committed(&self) -> u64 {
        self.sessions.values().map(|s| u64::from(s.committed)).sum()
    }

    /// Counts one violation (API error, failed device, mismatch, …).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_violations.len() < 8 {
            self.first_violations.push(what);
        }
    }

    /// Checks one committed window of session `id` against the clean
    /// window its sensor digitized (`clean(seq)`).
    pub fn commit<'a>(
        &mut self,
        id: u64,
        window: &SupervisedWindow,
        clean: impl Fn(u32) -> &'a [f64],
    ) {
        let session = self.sessions.entry(id).or_default();
        let seq = session.committed;
        session.committed += 1;
        let mut problems = Vec::new();
        if seq >= session.offered {
            problems.push("committed more windows than offered".to_string());
        }
        match window.sequence {
            Some(s) if s == seq => {}
            None if window.rung == LadderRung::Concealed => {}
            other => problems.push(format!("sequence {other:?} at position {seq}")),
        }
        if window.signal.len() != self.window {
            problems.push(format!("length {}", window.signal.len()));
        } else if window.signal.iter().any(|v| !v.is_finite()) {
            problems.push("non-finite sample".to_string());
        }
        if seq < self.digest_depth && id < self.digest_ids {
            if session.digest == 0 {
                session.digest = FNV_OFFSET;
            }
            fnv(&mut session.digest, &seq.to_le_bytes());
            fnv(&mut session.digest, &[window.rung.code()]);
            for v in &window.signal {
                fnv(&mut session.digest, &v.to_bits().to_le_bytes());
            }
        }
        self.rungs[usize::from(window.rung.code())] += 1;
        if window.demotions.iter().any(|(_, reason)| *reason == "shed") {
            self.shed += 1;
        }
        if let Some(decoded) = &window.decoded {
            self.iterations.push(decoded.recovery.iterations as f64);
            if decoded.recovery.converged {
                self.converged += 1;
            }
        }
        if window.signal.len() == self.window {
            let snr = hybridcs_metrics::snr_db(clean(seq), &window.signal);
            if snr.is_finite() {
                self.snr_db.push(snr);
            }
            if window.rung == LadderRung::Hybrid && (snr.is_nan() || snr < HYBRID_SNR_FLOOR_DB) {
                problems.push(format!("hybrid SNR {snr:.2} dB below the floor"));
            }
        }
        for problem in problems {
            self.fail(format!("session {id} window {seq}: {problem}"));
        }
    }

    /// Counts every offered window that never committed.
    pub fn finish(&mut self) {
        let missing: Vec<(u64, u32)> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.committed < s.offered)
            .map(|(id, s)| (*id, s.offered - s.committed))
            .collect();
        for (id, count) in missing {
            for _ in 0..count {
                self.fail(format!("session {id}: window never committed"));
            }
        }
    }

    /// Digest of the committed signals in the run-length-independent set.
    pub fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for (id, session) in &self.sessions {
            if session.digest != 0 {
                fnv(&mut hash, &id.to_le_bytes());
                fnv(&mut hash, &session.digest.to_le_bytes());
            }
        }
        hash
    }

    pub fn violations(&self) -> &[String] {
        &self.first_violations
    }

    /// Share of committed windows on each rung (hybrid, cs_only,
    /// lowres_only, concealed).
    pub fn rung_fracs(&self) -> [f64; 4] {
        let total = self.committed() as f64;
        self.rungs.map(|n| crate::stats::ratio(n as f64, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(sequence: Option<u32>, rung: LadderRung, value: f64) -> SupervisedWindow {
        SupervisedWindow {
            sequence,
            rung,
            signal: vec![value; 4],
            demotions: Vec::new(),
            decoded: None,
        }
    }

    #[test]
    fn in_order_windows_pass_and_violations_count() {
        let clean = vec![1.0; 4];
        let mut audit = Audit::new(4, u32::MAX, u64::MAX);
        for _ in 0..4 {
            audit.offered(9);
        }
        audit.commit(9, &window(Some(0), LadderRung::LowResOnly, 1.0), |_| &clean);
        audit.commit(9, &window(None, LadderRung::Concealed, 1.0), |_| &clean);
        assert_eq!(audit.failed, 0);
        // Out of order, then a full-hybrid window far below the SNR floor.
        audit.commit(9, &window(Some(3), LadderRung::LowResOnly, 1.0), |_| &clean);
        audit.commit(9, &window(Some(3), LadderRung::Hybrid, -5.0), |_| &clean);
        assert_eq!(audit.failed, 2);
        audit.offered(9);
        audit.finish();
        assert_eq!(audit.failed, 3, "the fifth window never committed");
    }

    #[test]
    fn digest_covers_only_the_fixed_set() {
        let clean = vec![1.0; 4];
        let run = |extra: bool| {
            let mut audit = Audit::new(4, 1, u64::MAX);
            audit.offered(1);
            audit.commit(1, &window(Some(0), LadderRung::LowResOnly, 0.5), |_| &clean);
            if extra {
                audit.offered(1);
                audit.commit(1, &window(Some(1), LadderRung::LowResOnly, 0.7), |_| &clean);
            }
            audit.digest()
        };
        assert_eq!(run(false), run(true));
    }
}
