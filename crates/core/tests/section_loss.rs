//! The decode ladder's per-section loss counter. It lives in its own test
//! binary, hence its own process, so the global registry sees no other
//! test's frames and every counter delta below is exact.

use hybridcs_core::{train_lowres_codec, DecodeLadder, HybridFrontEnd, SystemConfig};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_solver::WatchdogConfig;

fn section_lost(section: &str) -> u64 {
    hybridcs_obs::global()
        .snapshot()
        .counter_value("supervisor_section_lost_total", &[("section", section)])
        .unwrap_or(0)
}

#[test]
fn each_corrupted_section_is_counted_once_and_nothing_else_is() {
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec = train_lowres_codec(
        system.lowres_bits,
        &hybridcs_core::experiment::default_training_windows(system.window),
    )
    .unwrap();
    let frontend = HybridFrontEnd::new(&system, codec.clone()).unwrap();
    let ladder = DecodeLadder::new(&system, codec, WatchdogConfig::default()).unwrap();
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
    let window = generator.generate(2.0, 0x5EC7)[..system.window].to_vec();
    let clean = ladder
        .frame_codec()
        .serialize(0, &frontend.encode(&window).unwrap())
        .unwrap();
    let flipped = |index: usize, mask: u8| {
        let mut bytes = clean.clone();
        bytes[index] ^= mask;
        bytes
    };
    // Header and its CRC take the first 20 bytes, the CS section follows,
    // and the low-res section ends 4 bytes (its CRC) before the frame does.
    let cs_hit = flipped(25, 0x10);
    let lowres_hit = flipped(clean.len() - 6, 0x01);
    let bad_header = flipped(3, 0xFF);

    let cases: [(&str, Option<&[u8]>, u64, u64); 5] = [
        ("clean frame", Some(&clean), 0, 0),
        ("CS bit flipped", Some(&cs_hit), 1, 0),
        ("low-res bit flipped", Some(&lowres_hit), 0, 1),
        ("bad header", Some(&bad_header), 0, 0),
        ("dropped packet", None, 0, 0),
    ];
    for (label, packet, cs_delta, lowres_delta) in cases {
        let (cs_before, lowres_before) = (section_lost("cs"), section_lost("lowres"));
        let _ = ladder.parse(packet);
        assert_eq!(
            section_lost("cs") - cs_before,
            cs_delta,
            "{label}: cs section count"
        );
        assert_eq!(
            section_lost("lowres") - lowres_before,
            lowres_delta,
            "{label}: lowres section count"
        );
    }
}
