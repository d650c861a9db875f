//! Journal robustness properties: no byte sequence — truncated, bit
//! flipped, or outright random — may panic the scanner or the recovery
//! path; whenever recovery *does* accept an image, the rebuilt gateway
//! must agree with the durable-prefix oracle; and an intact record the
//! build cannot decode refuses recovery instead of being cut off as a
//! torn tail.

mod common;
use common::*;

use hybridcs_coding::crc32;
use hybridcs_rand::check::{check, u32_in, u64_in, u8_any, usize_in, vec_of, zip2, zip3};

/// A full scripted run's journal image — the corpus the mutations gnaw
/// on.
fn base_image() -> Vec<u8> {
    let rig = rig();
    let config = sweep_config();
    let store = MemStore::new();
    let mut gateway = Gateway::with_journal(config, Box::new(store.clone())).unwrap();
    let mut sink = BTreeMap::new();
    for op in script() {
        drive(&mut gateway, &rig, op, &mut sink).unwrap();
    }
    store.snapshot()
}

#[test]
fn truncated_and_bit_flipped_journals_never_panic_and_recover_consistently() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();
    let base = base_image();
    let bits = (base.len() * 8) as u64;

    check(
        "mutated journal recovers to the durable prefix",
        &zip2(usize_in(0, base.len() + 2), vec_of(u64_in(0, bits), 0, 9)),
        |(truncate, flips)| {
            let mut bytes = base[..(*truncate).min(base.len())].to_vec();
            for flip in flips {
                if bytes.is_empty() {
                    break;
                }
                let bit = flip % (bytes.len() as u64 * 8);
                bytes[usize::try_from(bit / 8).unwrap()] ^= 1 << (bit % 8);
            }
            // Neither the scanner nor recovery may panic, however mangled
            // the image (a panic fails this property via the harness).
            let durable = scan(&bytes);
            match Gateway::recover(config, Box::new(MemStore::from_bytes(bytes)), &shapes) {
                // Rejected images (bad genesis, undecodable checkpoint)
                // are a legitimate outcome — the property is "no panic,
                // no inconsistent acceptance".
                Err(_) => Ok(()),
                Ok((mut recovered, report)) => {
                    let commands = durable.records.iter().filter(|r| r.is_command()).count() as u64;
                    if report.replayed_events > commands {
                        return Err(format!(
                            "replayed {} events from a {} command prefix",
                            report.replayed_events, commands
                        ));
                    }
                    let (mut oracle, _) =
                        Gateway::from_records(config, &shapes, &durable.records).unwrap();
                    assert_equivalent(&mut recovered, &mut oracle, "mutated image");
                    Ok(())
                }
            }
        },
    );
}

#[test]
fn arbitrary_bytes_never_panic_the_scanner_or_recovery() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();

    check(
        "random bytes scan and recover without panicking",
        &vec_of(u8_any(), 0, 512),
        |bytes| {
            let durable = scan(bytes);
            if durable.valid_bytes > bytes.len() as u64 {
                return Err("scanner claimed more bytes than exist".to_owned());
            }
            let _ = Gateway::recover(
                config,
                Box::new(MemStore::from_bytes(bytes.clone())),
                &shapes,
            );
            Ok(())
        },
    );
}

#[test]
fn an_intact_undecodable_record_refuses_recovery_and_leaves_the_store_alone() {
    let shapes = rig().shapes();
    let config = sweep_config();
    let base = base_image();
    // Every record boundary of the base image, from before genesis to
    // after the last record.
    let mut boundaries = vec![0usize];
    while let Some(&at) = boundaries.last().filter(|&&at| at < base.len()) {
        let len = u32::from_le_bytes(base[at..at + 4].try_into().unwrap()) as usize;
        boundaries.push(at + 8 + len);
    }

    check(
        "an unknown record kind stops recovery without truncating",
        &zip3(
            usize_in(0, boundaries.len()),
            u32_in(9, 256),
            vec_of(u8_any(), 0, 16),
        ),
        |(at, tag, body)| {
            // A well-framed record with a tag no build writes.
            let mut payload = vec![u8::try_from(*tag).unwrap()];
            payload.extend_from_slice(body);
            let cut = boundaries[*at];
            let mut bytes = base[..cut].to_vec();
            bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&base[cut..]);

            let scanned = scan(&bytes);
            if !scanned.undecodable || scanned.torn || scanned.valid_bytes != cut as u64 {
                return Err(format!(
                    "scan: undecodable {} torn {} valid {} (record at {cut})",
                    scanned.undecodable, scanned.torn, scanned.valid_bytes
                ));
            }
            let store = MemStore::from_bytes(bytes.clone());
            let image = store.clone();
            match Gateway::recover(config, Box::new(store), &shapes) {
                Err(GatewayError::Recovery(_)) => {}
                Err(e) => return Err(format!("wrong refusal: {e}")),
                Ok((_, report)) => return Err(format!("recovered anyway: {report:?}")),
            }
            if image.snapshot() != bytes {
                return Err(format!(
                    "the store changed: {} bytes became {}",
                    bytes.len(),
                    image.snapshot().len()
                ));
            }
            Ok(())
        },
    );
}
