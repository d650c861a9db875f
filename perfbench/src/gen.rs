//! The load generator: synthetic MIT-BIH-like records, the sensor-side
//! encoder, and the wire framing. Its cost (corpus synthesis, codec
//! training, encoding) is never part of a timed figure.

use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{train_lowres_codec, HybridFrontEnd, SystemConfig};
use hybridcs_ecg::Corpus;
use hybridcs_rand::{RngExt, SeedableRng, SplitMix64};

pub type BoxError = Box<dyn std::error::Error>;

/// Seconds of signal per synthesized record.
const RECORD_SECONDS: f64 = 60.0;

/// One operator shape: the configuration both sides share, the trained
/// low-resolution codec, and the sensor-side encoder and framer.
pub struct Shape {
    pub system: SystemConfig,
    pub codec: LowResCodec,
    frontend: HybridFrontEnd,
    wire: FrameCodec,
}

impl Shape {
    /// The paper's operating point (n = 512, B = 7, PDHG) with `m`
    /// measurements per window.
    pub fn build(measurements: usize) -> Result<Self, BoxError> {
        let system = SystemConfig {
            measurements,
            ..SystemConfig::default()
        };
        let codec =
            train_lowres_codec(system.lowres_bits, &default_training_windows(system.window))?;
        let frontend = HybridFrontEnd::new(&system, codec.clone())?;
        let wire = FrameCodec::new(&system)?;
        Ok(Shape {
            system,
            codec,
            frontend,
            wire,
        })
    }

    pub fn fingerprint(&self) -> u64 {
        hybridcs_gateway::shape_fingerprint(&self.system, &self.codec)
    }
}

/// One simulated patient: a session id, its shape, and where in which
/// record its stream starts.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub id: u64,
    pub shape: usize,
    record: usize,
    offset: usize,
}

pub struct Generator {
    corpus: Corpus,
    pub shapes: Vec<Shape>,
    window: usize,
    windows_per_record: usize,
    seed: u64,
}

impl Generator {
    /// Builds the corpus and one shape per entry of `measurements`; every
    /// later draw comes from `seed`.
    pub fn new(measurements: &[usize], seed: u64) -> Result<Self, BoxError> {
        let shapes = measurements
            .iter()
            .map(|&m| Shape::build(m))
            .collect::<Result<Vec<_>, _>>()?;
        let window = shapes[0].system.window;
        let corpus = Corpus::mit_bih_like(RECORD_SECONDS);
        let windows_per_record = corpus
            .records()
            .iter()
            .map(|r| r.samples_mv().len() / window)
            .min()
            .unwrap_or(0);
        if windows_per_record == 0 {
            return Err("corpus records are shorter than one window".into());
        }
        Ok(Generator {
            corpus,
            shapes,
            window,
            windows_per_record,
            seed,
        })
    }

    /// Streams for `ids`, shapes assigned round-robin. Records are
    /// stratified: consecutive sessions take consecutive records from a
    /// drawn starting record, so every draw covers the corpus's rhythm
    /// and noise mix evenly. The seed and `draw` pick the rotation and
    /// each stream's starting window.
    pub fn streams(&self, ids: &[u64], draw: u64) -> Vec<Stream> {
        let mut rng =
            SplitMix64::seed_from_u64(hybridcs_rand::mix(self.seed ^ hybridcs_rand::mix(draw)));
        let records = self.corpus.records().len();
        let first = rng.random_range(0..records);
        ids.iter()
            .enumerate()
            .map(|(i, &id)| Stream {
                id,
                shape: i % self.shapes.len(),
                record: (first + i) % records,
                offset: rng.random_range(0..self.windows_per_record),
            })
            .collect()
    }

    /// The clean window the stream's sensor digitizes at `seq` (streams
    /// run through their record cyclically).
    pub fn window(&self, stream: &Stream, seq: u32) -> &[f64] {
        let index = (stream.offset + seq as usize) % self.windows_per_record;
        let samples = self.corpus.records()[stream.record].samples_mv();
        &samples[index * self.window..(index + 1) * self.window]
    }

    /// The wire frame the stream's sensor sends at `seq`.
    pub fn frame(&self, stream: &Stream, seq: u32) -> Result<Vec<u8>, BoxError> {
        let shape = &self.shapes[stream.shape];
        let encoded = shape.frontend.encode(self.window(stream, seq))?;
        Ok(shape.wire.serialize(seq, &encoded)?)
    }

    /// `count` session ids, starting at `base`, whose shard assignments
    /// (SplitMix64 of the id, as the gateway pins sessions) cover
    /// `shards` evenly.
    pub fn balanced_ids(count: usize, shards: usize, base: u64) -> Vec<u64> {
        let mut per_shard = vec![0usize; shards];
        let target = count.div_ceil(shards);
        let mut ids = Vec::with_capacity(count);
        let mut candidate = base;
        while ids.len() < count {
            let shard = (hybridcs_rand::mix(candidate) % shards as u64) as usize;
            if per_shard[shard] < target {
                per_shard[shard] += 1;
                ids.push(candidate);
            }
            candidate += 1;
        }
        ids
    }
}
