//! Socket-layer fault injection: a seeded byte-stream wrapper for
//! transports.
//!
//! [`GilbertElliott`] mangles *frames* — it decides whether one logical
//! packet survives. A real ingest tier talks to the kernel in *byte
//! chunks*, and the failure modes live at that layer: a message never
//! makes it out of a dying radio (loss), arrives with flipped bits
//! (corruption the CRC must catch), gets swapped with its neighbour by a
//! retrying link layer (reorder), or is split across several `write`
//! calls (partial writes that exercise every incremental-decode path).
//!
//! [`FaultyTransport`] wraps an outbound message stream with all four,
//! behind one seed, so a loopback soak can inject socket-layer faults
//! deterministically: offer each framed message to
//! [`send`](FaultyTransport::send) and write whatever chunks come back,
//! in order, to the real socket. The burst structure of loss and bit
//! errors comes from the same two-state [`GilbertElliott`] channel the
//! frame layer uses; reorder and splitting are independent Bernoulli
//! draws from a second seeded stream.
//!
//! Injected faults are counted in the [global metrics
//! registry](hybridcs_obs::global) under `faults_transport_*` names.

use hybridcs_rand::rngs::StdRng;
use hybridcs_rand::{Rng, RngExt, SeedableRng};

use crate::channel::{GilbertElliott, GilbertElliottConfig};

/// Policy for one [`FaultyTransport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaultConfig {
    /// The two-state burst channel deciding message loss and bit flips
    /// (state advances once per offered message).
    pub channel: GilbertElliottConfig,
    /// Probability that a surviving message is held back and emitted
    /// *after* the next surviving message (adjacent reorder).
    pub reorder: f64,
    /// Probability that an emitted chunk is split into two partial
    /// writes (content-preserving; stresses incremental decoders).
    pub split: f64,
}

impl TransportFaultConfig {
    /// A clean transport: no loss, no corruption, no reorder, no splits.
    #[must_use]
    pub fn clean() -> Self {
        TransportFaultConfig {
            channel: GilbertElliottConfig::burst_loss(0.0, 1.0),
            reorder: 0.0,
            split: 0.0,
        }
    }

    fn validate(&self) {
        for (name, p) in [("reorder", self.reorder), ("split", self.split)] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} = {p} is not a probability"
            );
        }
    }
}

/// The seeded socket-layer fault wrapper: loss, bit corruption, adjacent
/// reorder and partial writes on an outbound message stream, all behind one
/// seed, at the rates a [`TransportFaultConfig`] sets.
#[derive(Debug, Clone)]
pub struct FaultyTransport {
    config: TransportFaultConfig,
    channel: GilbertElliott,
    rng: StdRng,
    /// A message held back for adjacent reorder, released by the next
    /// surviving message (or [`flush`](FaultyTransport::flush)).
    held: Option<Vec<u8>>,
}

impl FaultyTransport {
    /// A transport whose fault schedule derives entirely from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any probability in `config` is outside `[0, 1]`.
    #[must_use]
    pub fn new(config: TransportFaultConfig, seed: u64) -> Self {
        config.validate();
        FaultyTransport {
            config,
            channel: GilbertElliott::new(config.channel, seed),
            rng: StdRng::seed_from_u64(seed ^ 0x7A05_F0A7_5EED_5EED),
            held: None,
        }
    }

    /// The transport's policy.
    #[must_use]
    pub fn config(&self) -> &TransportFaultConfig {
        &self.config
    }

    /// Offers one outbound message; returns the byte chunks to actually
    /// write, in order. An empty result means the message was dropped (or
    /// is being held for reorder — [`flush`](FaultyTransport::flush)
    /// releases it).
    pub fn send(&mut self, message: &[u8]) -> Vec<Vec<u8>> {
        let registry = hybridcs_obs::global();
        let Some(survived) = self.channel.transmit(message) else {
            registry
                .counter("faults_transport_dropped_total", &[])
                .inc();
            return Vec::new();
        };
        if survived != message {
            registry
                .counter("faults_transport_corrupted_total", &[])
                .inc();
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(2);
        if let Some(earlier) = self.held.take() {
            // The held message trades places with this one: the newer
            // message goes out first, the older follows it.
            out.push(survived);
            out.push(earlier);
            registry
                .counter("faults_transport_reordered_total", &[])
                .inc();
        } else if self.rng.random_bool(self.config.reorder) {
            self.held = Some(survived);
            return Vec::new();
        } else {
            out.push(survived);
        }
        self.split_chunks(out)
    }

    /// Whether a message is currently held back for reorder. Callers can
    /// compare this across a [`send`](FaultyTransport::send) that
    /// returned no chunks to tell a drop (held state unchanged) from a
    /// reorder hold (newly held).
    #[must_use]
    pub fn held(&self) -> bool {
        self.held.is_some()
    }

    /// Releases any message held back for reorder (call at end of stream
    /// so the last message is not silently swallowed).
    pub fn flush(&mut self) -> Vec<Vec<u8>> {
        match self.held.take() {
            None => Vec::new(),
            Some(chunk) => self.split_chunks(vec![chunk]),
        }
    }

    /// Applies the partial-write fault to each chunk independently.
    fn split_chunks(&mut self, chunks: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            if chunk.len() >= 2 && self.rng.random_bool(self.config.split) {
                let cut = 1 + (self.rng.next_u64() % (chunk.len() as u64 - 1)) as usize;
                hybridcs_obs::global()
                    .counter("faults_transport_split_total", &[])
                    .inc();
                out.push(chunk[..cut].to_vec());
                out.push(chunk[cut..].to_vec());
            } else {
                out.push(chunk);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64, reorder: f64, split: f64) -> TransportFaultConfig {
        TransportFaultConfig {
            channel: GilbertElliottConfig::burst_loss(loss, 2.0),
            reorder,
            split,
        }
    }

    fn messages(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 16]).collect()
    }

    fn drain(transport: &mut FaultyTransport, msgs: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for m in msgs {
            for chunk in transport.send(m) {
                stream.extend_from_slice(&chunk);
            }
        }
        for chunk in transport.flush() {
            stream.extend_from_slice(&chunk);
        }
        stream
    }

    #[test]
    fn clean_transport_is_the_identity() {
        let mut t = FaultyTransport::new(TransportFaultConfig::clean(), 1);
        let msgs = messages(50);
        let stream = drain(&mut t, &msgs);
        assert_eq!(stream, msgs.concat());
    }

    #[test]
    fn same_seed_same_chunk_sequence() {
        let config = lossy(0.2, 0.3, 0.5);
        let mut a = FaultyTransport::new(config, 99);
        let mut b = FaultyTransport::new(config, 99);
        for m in messages(200) {
            assert_eq!(a.send(&m), b.send(&m));
        }
        assert_eq!(a.flush(), b.flush());
    }

    #[test]
    fn splits_preserve_content() {
        let config = lossy(0.0, 0.0, 1.0);
        let mut t = FaultyTransport::new(config, 7);
        let msgs = messages(40);
        let stream = drain(&mut t, &msgs);
        assert_eq!(stream, msgs.concat(), "splitting must not change bytes");
    }

    #[test]
    fn reorder_swaps_adjacent_messages_without_losing_any() {
        let config = lossy(0.0, 0.5, 0.0);
        let mut t = FaultyTransport::new(config, 21);
        let msgs = messages(100);
        let mut seen = Vec::new();
        for m in &msgs {
            for chunk in t.send(m) {
                seen.push(chunk);
            }
        }
        seen.extend(t.flush());
        assert_eq!(seen.len(), msgs.len(), "reorder must not drop messages");
        let mut sorted_seen = seen.clone();
        sorted_seen.sort();
        let mut sorted_msgs = msgs.clone();
        sorted_msgs.sort();
        assert_eq!(sorted_seen, sorted_msgs, "same multiset of messages");
        assert_ne!(seen, msgs, "at 50% reorder some pair must have swapped");
        // Adjacent reorder displaces a message by at most one slot.
        for (i, m) in seen.iter().enumerate() {
            let original = msgs.iter().position(|x| x == m).unwrap();
            assert!(
                original.abs_diff(i) <= 1,
                "message {original} landed at {i}"
            );
        }
    }

    #[test]
    fn lossy_transport_drops_roughly_the_stationary_rate() {
        let config = lossy(0.25, 0.0, 0.0);
        let mut t = FaultyTransport::new(config, 5);
        let msgs = messages(255);
        let mut delivered = 0usize;
        for m in &msgs {
            delivered += t.send(m).len();
        }
        delivered += t.flush().len();
        let rate = 1.0 - delivered as f64 / msgs.len() as f64;
        assert!((0.10..0.40).contains(&rate), "loss rate {rate}");
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn rejects_non_probability_reorder() {
        let _ = FaultyTransport::new(lossy(0.0, 1.5, 0.0), 0);
    }
}
