//! Lossy-link scenario: stream ECG over a radio that drops whole packets
//! and flips bits, and watch the decode ladder degrade gracefully — the
//! two payload sections fail independently, so a damaged frame usually
//! still yields a usable trace, and a dropped one is concealed.
//!
//! ```sh
//! cargo run --release --example lossy_link
//! ```

use hybridcs::codec::{
    experiment::default_training_windows, train_lowres_codec, HybridFrontEnd, LadderRung,
    RecoverySupervisor, SupervisorConfig, SystemConfig,
};
use hybridcs::ecg::{EcgGenerator, GeneratorConfig, NoiseModel};
use hybridcs::metrics::snr_db;
use hybridcs_rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let lowres_codec =
        train_lowres_codec(config.lowres_bits, &default_training_windows(config.window))?;
    let sensor = HybridFrontEnd::new(&config, lowres_codec.clone())?;
    let mut receiver = RecoverySupervisor::new(&config, lowres_codec, SupervisorConfig::default())?;

    let mut gen_config = GeneratorConfig::normal_sinus();
    gen_config.noise = NoiseModel::ambulatory();
    let generator = EcgGenerator::new(gen_config)?;
    let strip = generator.generate(30.0, 0x10_55);

    // A hostile link: 10% packet loss, 15% CS-section corruption, 10%
    // low-res-section corruption.
    let mut link = hybridcs_rand::rngs::StdRng::seed_from_u64(0x000B_AD11);
    let mut counts = [0usize; 4]; // windows per rung, indexed by `LadderRung::code`
    let mut snr_sum = [0.0f64; 3];

    for (seq, window) in strip.chunks_exact(config.window).enumerate() {
        let encoded = sensor.encode(window)?;
        let mut bytes = receiver.frame_codec().serialize(seq as u32, &encoded)?;

        let roll: f64 = link.random();
        let packet = if roll < 0.10 {
            None // dropped outright
        } else {
            if roll < 0.25 {
                bytes[24] ^= 0x40; // damage the CS section
            } else if roll < 0.35 {
                let idx = bytes.len() - 6;
                bytes[idx] ^= 0x04; // damage the low-res section
            }
            Some(bytes)
        };

        let out = receiver.receive(packet.as_deref());
        let rung = usize::from(out.rung.code());
        counts[rung] += 1;
        if out.rung != LadderRung::Concealed {
            snr_sum[rung] += snr_db(window, &out.signal);
        }
    }

    let total: usize = counts.iter().sum();
    println!("{total} windows over a link with 10% drop / 15% CS hit / 10% low-res hit:");
    let labels = ["hybrid (both sections)", "CS only", "low-res only"];
    for i in 0..3 {
        if counts[i] > 0 {
            println!(
                "  {:<24} {:>3} windows, mean SNR {:.1} dB",
                labels[i],
                counts[i],
                snr_sum[i] / counts[i] as f64
            );
        }
    }
    println!("  {:<24} {:>3} windows", "concealed", counts[3]);

    // The ladder also accounts every window in the global metrics
    // registry, including the per-section CRC verdicts that the rung
    // table above collapses.
    let snapshot = hybridcs::obs::global().snapshot();
    let count =
        |name: &str, labels: &[(&str, &str)]| snapshot.counter_value(name, labels).unwrap_or(0);
    println!();
    println!("ladder counters (from the metrics registry):");
    let by_rung: Vec<String> = (0..4)
        .filter_map(LadderRung::from_code)
        .map(|r| {
            let n = count("supervisor_rung_total", &[("rung", r.name())]);
            format!("{} {n}", r.name())
        })
        .collect();
    println!(
        "  windows committed        {:>3}  ({})",
        count("supervisor_windows_total", &[]),
        by_rung.join(", ")
    );
    println!(
        "  sections lost to CRC     cs {}, lowres {}",
        count("supervisor_section_lost_total", &[("section", "cs")]),
        count("supervisor_section_lost_total", &[("section", "lowres")]),
    );
    println!(
        "  unusable headers         {:>3}",
        count("supervisor_header_unusable_total", &[]),
    );
    println!(
        "  frames missing           {:>3}  (in {} sequence gaps)",
        count("supervisor_missing_frames_total", &[]),
        count("supervisor_sequence_gap_events_total", &[]),
    );
    if let Some(path) = hybridcs::obs::export::export_global_if_enabled("lossy_link", &[])? {
        println!("  JSONL report written to {}", path.display());
    }

    println!();
    println!("the point: every window still yields a trace. A partial corruption");
    println!("decodes from the surviving section, because the hybrid design's two");
    println!("payloads are independently decodable; a dropped packet is concealed");
    println!("by repeating the last good window.");
    Ok(())
}
