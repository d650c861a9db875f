//! Crash/recovery equivalence: kill the journal store at every record
//! boundary under every tail fault, recover, and demand the rebuilt
//! gateway be indistinguishable from one that executed the durable
//! command prefix directly. This is the determinism contract doing
//! double duty: replay *is* re-execution, so recovered outputs must be
//! bit-identical.

mod common;
use common::*;

#[test]
fn kill_point_sweep_recovers_the_durable_prefix_bit_identically() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();

    // Uninterrupted reference run, to size the sweep.
    let reference_store = MemStore::new();
    let mut reference = Gateway::with_journal(config, Box::new(reference_store.clone())).unwrap();
    let mut reference_sink = BTreeMap::new();
    for op in script() {
        drive(&mut reference, &rig, op, &mut reference_sink).unwrap();
    }
    let total_records = scan(&reference_store.snapshot()).records.len() as u64;
    assert!(total_records > 20, "script should journal a real log");

    let faults = [
        TailFault::Clean,
        TailFault::TornWrite(3),
        TailFault::FlipBit(41),
        TailFault::Garbage(9),
    ];
    let mut checkpoints_restored = 0usize;
    for kill_at in 0..total_records {
        for fault in faults {
            let context = format!("kill_at={kill_at} fault={}", fault.name());
            let store = CrashingStore::new(
                MemStore::new(),
                CrashPlan {
                    kill_at_record: kill_at,
                    tail: fault,
                },
            );
            let image = store.image();
            // Drive until the crash surfaces as a journal error. Killing
            // record 0 fails construction itself.
            let mut sink = BTreeMap::new();
            let mut crashed = false;
            match Gateway::with_journal(config, Box::new(store)) {
                Err(GatewayError::Journal(_)) => crashed = true,
                Err(e) => panic!("unexpected construction error ({context}): {e}"),
                Ok(mut gateway) => {
                    for op in script() {
                        match drive(&mut gateway, &rig, op, &mut sink) {
                            Ok(()) => {}
                            Err(GatewayError::Journal(_)) => {
                                crashed = true;
                                break;
                            }
                            Err(e) => panic!("unexpected script error ({context}): {e}"),
                        }
                    }
                }
            }
            assert!(crashed, "the plan must fire within the script ({context})");

            let surviving = image.snapshot();
            let durable = scan(&surviving);
            let (mut recovered, report) =
                Gateway::recover(config, Box::new(MemStore::from_bytes(surviving)), &shapes)
                    .unwrap_or_else(|e| panic!("recovery failed ({context}): {e}"));
            // Corrupt tails are CRC-detected and reported; a clean kill
            // leaves no wreckage behind.
            match fault {
                TailFault::Clean => assert!(!report.torn_tail, "clean kill torn ({context})"),
                _ => assert!(report.torn_tail, "corrupt tail undetected ({context})"),
            }
            if report.checkpoint_restored {
                checkpoints_restored += 1;
            }
            let (mut oracle, _) = Gateway::from_records(config, &shapes, &durable.records).unwrap();
            assert_equivalent(&mut recovered, &mut oracle, &context);
        }
    }
    assert!(
        checkpoints_restored > 0,
        "the sweep should exercise checkpoint restore, not just replay"
    );
}

#[test]
fn from_records_reproduces_the_live_run_it_journaled() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();
    let store = MemStore::new();
    let mut live = Gateway::with_journal(config, Box::new(store.clone())).unwrap();
    let mut delivered = BTreeMap::new();
    // `journal_group_bytes: 0` makes every record durable as it is
    // appended, so after each call the journal holds the whole run.
    for (step, op) in script().into_iter().enumerate() {
        drive(&mut live, &rig, op, &mut delivered).unwrap();
        let records = scan(&store.snapshot()).records;
        let (oracle, replayed) = Gateway::from_records(config, &shapes, &records).unwrap();
        let context = format!("after step {step}");
        for id in SESSION_IDS {
            assert_eq!(
                oracle.phase(id),
                live.phase(id),
                "phase of session {id}: {context}"
            );
        }
        assert_eq!(
            replayed.keys().collect::<Vec<_>>(),
            delivered.keys().collect::<Vec<_>>(),
            "sessions with deliveries: {context}"
        );
        for (id, windows) in &delivered {
            assert_windows_eq(&replayed[id], windows, &format!("session {id}: {context}"));
        }
    }
    // Session 1's six windows (one concealed) and session 2's three.
    assert_eq!(delivered.values().map(Vec::len).sum::<usize>(), 9);
    let records = scan(&store.snapshot()).records;
    assert!(
        matches!(
            Gateway::from_records(config, &[], &records),
            Err(GatewayError::Recovery(_))
        ),
        "a handshake naming a shape missing from the table is refused"
    );
}

#[test]
fn recovery_reproduces_full_solver_outputs_bit_identically() {
    let rig = rig();
    let shapes = rig.shapes();
    // Real solves this time: recovery must re-run the solver and land on
    // the same bits.
    let config = GatewayConfig {
        journal_group_bytes: 0,
        checkpoint_every: 4,
        ..GatewayConfig::default()
    };
    let store = CrashingStore::new(
        MemStore::new(),
        CrashPlan {
            kill_at_record: 9,
            tail: TailFault::TornWrite(5),
        },
    );
    let image = store.image();
    let mut gateway = Gateway::with_journal(config, Box::new(store)).unwrap();
    let mut sink = BTreeMap::new();
    let mut crashed = false;
    for op in script() {
        if let Err(GatewayError::Journal(_)) = drive(&mut gateway, &rig, op, &mut sink) {
            crashed = true;
            break;
        }
    }
    assert!(crashed);

    let surviving = image.snapshot();
    let durable = scan(&surviving);
    let (mut recovered, _) =
        Gateway::recover(config, Box::new(MemStore::from_bytes(surviving)), &shapes).unwrap();
    let (mut oracle, _) = Gateway::from_records(config, &shapes, &durable.records).unwrap();
    let a = recovered.close(1).unwrap();
    let b = oracle.close(1).unwrap();
    assert!(
        a.iter().any(|w| w.rung == LadderRung::Hybrid),
        "the crashed prefix should contain at least one full solve"
    );
    assert_windows_eq(&a, &b, "full-solver session 1");
}

#[test]
fn recovered_gateway_resumes_journaling_and_survives_a_second_crashless_run() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();
    let store = CrashingStore::new(
        MemStore::new(),
        CrashPlan {
            kill_at_record: 12,
            tail: TailFault::Garbage(17),
        },
    );
    let image = store.image();
    let mut gateway = Gateway::with_journal(config, Box::new(store)).unwrap();
    let mut sink = BTreeMap::new();
    for op in script() {
        if drive(&mut gateway, &rig, op, &mut sink).is_err() {
            break;
        }
    }

    // Recover onto a store we keep a shared handle to: the garbage tail
    // is CRC-detected, truncated, and appends resume after it.
    let recovered_store = MemStore::from_bytes(image.snapshot());
    let shared = recovered_store.clone();
    let (mut resumed, report) =
        Gateway::recover(config, Box::new(recovered_store), &shapes).unwrap();
    assert!(report.torn_tail);
    assert!(report.truncated_bytes > 0);

    // Post-recovery traffic journals into the truncated image...
    resumed.push(1, &rig.frame(6)).unwrap();
    resumed.flush().unwrap();
    resumed.close(1).unwrap();

    // ...and a second recovery of that image reproduces it bit-for-bit.
    let final_image = shared.snapshot();
    let durable = scan(&final_image);
    assert!(!durable.torn, "the truncated-and-resumed image is clean");
    let (mut second, _) =
        Gateway::recover(config, Box::new(MemStore::from_bytes(final_image)), &shapes).unwrap();
    assert_eq!(second.phase(1), Some(SessionPhase::Closed));
    let (mut oracle, _) = Gateway::from_records(config, &shapes, &durable.records).unwrap();
    assert_equivalent(&mut second, &mut oracle, "post-recovery journaling");
}

#[test]
fn file_store_round_trips_recovery_across_process_death() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();
    let path = std::env::temp_dir().join(format!("hybridcs-journal-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    {
        let store = FileStore::open(&path).unwrap();
        let mut gateway = Gateway::with_journal(config, Box::new(store)).unwrap();
        let mut sink = BTreeMap::new();
        for op in script().into_iter().take(12) {
            drive(&mut gateway, &rig, op, &mut sink).unwrap();
        }
    } // the "process" dies here; journal_group_bytes 0 synced every record

    let store = FileStore::open(&path).unwrap();
    let (mut recovered, report) = Gateway::recover(config, Box::new(store), &shapes).unwrap();
    assert!(!report.torn_tail);
    assert!(report.replayed_events > 0 || report.checkpoint_restored);

    // Finish the script on the recovered gateway, journaling to the file.
    let mut sink = BTreeMap::new();
    for op in script().into_iter().skip(12) {
        drive(&mut recovered, &rig, op, &mut sink).unwrap();
    }
    assert_eq!(recovered.phase(1), Some(SessionPhase::Closed));
    assert_eq!(recovered.phase(2), Some(SessionPhase::Closed));
    drop(recovered);

    // The file now holds the stitched run; recovering it once more agrees
    // with an oracle over every durable record.
    let bytes = std::fs::read(&path).unwrap();
    let (mut oracle, _) = Gateway::from_records(config, &shapes, &scan(&bytes).records).unwrap();
    let (mut third, _) =
        Gateway::recover(config, Box::new(FileStore::open(&path).unwrap()), &shapes).unwrap();
    assert_equivalent(&mut third, &mut oracle, "file store");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recover_rejects_a_journal_from_a_different_config() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();
    let store = MemStore::new();
    let mut gateway = Gateway::with_journal(config, Box::new(store.clone())).unwrap();
    gateway
        .handshake(1, &rig.system, rig.codec.clone())
        .unwrap();
    drop(gateway);

    let other = GatewayConfig {
        shards: 4,
        ..config
    };
    let result = Gateway::recover(other, Box::new(store), &shapes);
    assert!(
        matches!(result, Err(GatewayError::Recovery(_))),
        "config fingerprint mismatch must refuse recovery: {:?}",
        result.err()
    );
}

#[test]
fn recover_requires_the_session_shape_in_the_table() {
    let rig = rig();
    let config = sweep_config();
    let store = MemStore::new();
    let mut gateway = Gateway::with_journal(config, Box::new(store.clone())).unwrap();
    gateway
        .handshake(1, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(1, &rig.frame(0)).unwrap();
    drop(gateway);

    let result = Gateway::recover(config, Box::new(store), &[]);
    assert!(
        matches!(result, Err(GatewayError::Recovery(_))),
        "a missing shape must refuse recovery: {:?}",
        result.err()
    );
}

#[test]
fn empty_store_recovers_to_a_fresh_journaling_gateway() {
    let rig = rig();
    let shapes = rig.shapes();
    let config = sweep_config();
    let store = MemStore::new();
    let shared = store.clone();
    let (mut gateway, report) = Gateway::recover(config, Box::new(store), &shapes).unwrap();
    assert_eq!(report.replayed_events, 0);
    assert!(!report.checkpoint_restored);
    gateway
        .handshake(3, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(3, &rig.frame(0)).unwrap();
    let outputs = gateway.close(3).unwrap();
    assert_eq!(outputs.len(), 1);
    // The genesis record was installed, so the image is recoverable.
    let (third, _) = Gateway::recover(
        config,
        Box::new(MemStore::from_bytes(shared.snapshot())),
        &shapes,
    )
    .unwrap();
    assert_eq!(third.phase(3), Some(SessionPhase::Closed));
}
