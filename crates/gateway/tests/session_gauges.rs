//! The process-wide `gateway_sessions{phase}` gauges with two gateways
//! alive at once: each gateway adds its own sessions' phase moves, so the
//! gauges read the sum of both gateways' sessions, and a dropped gateway
//! takes its sessions out. This suite is its own test binary, so no other
//! test's gateway shares its process and its gauges.

mod common;

use common::{rig, Gateway, GatewayConfig, SessionPhase};

/// Asserts that each `gateway_sessions{phase}` gauge equals the number of
/// sessions in that phase summed over `live` (each gateway with the ids
/// it has seen).
fn assert_gauges(live: &[(&Gateway, &[u64])], step: &str) {
    for phase in SessionPhase::ALL {
        let recount: usize = live
            .iter()
            .map(|(gateway, ids)| {
                ids.iter()
                    .filter(|&&id| gateway.phase(id) == Some(phase))
                    .count()
            })
            .sum();
        let gauge = hybridcs_obs::global()
            .gauge("gateway_sessions", &[("phase", phase.name())])
            .value();
        assert_eq!(gauge, recount as f64, "{step}: {} sessions", phase.name());
    }
}

#[test]
fn session_gauges_sum_over_every_live_gateway() {
    let rig = rig();
    let config = GatewayConfig::default();
    let (ids_a, ids_b): (&[u64], &[u64]) = (&[1, 2, 3], &[1, 7]);
    let mut a = Gateway::new(config).unwrap();
    let mut b = Gateway::new(config).unwrap();
    for &id in ids_a {
        a.handshake(id, &rig.system, rig.codec.clone()).unwrap();
        assert_gauges(&[(&a, ids_a), (&b, ids_b)], &format!("a handshake {id}"));
    }
    for &id in ids_b {
        b.handshake(id, &rig.system, rig.codec.clone()).unwrap();
        assert_gauges(&[(&a, ids_a), (&b, ids_b)], &format!("b handshake {id}"));
    }

    a.push(1, &rig.frame(0)).unwrap();
    b.push(7, &rig.frame(0)).unwrap();
    assert_gauges(&[(&a, ids_a), (&b, ids_b)], "in-order pushes");

    // A first push past a gap (handshake → streaming → repairing), and a
    // gap after an in-order frame (streaming → repairing).
    a.push(2, &rig.frame(1)).unwrap();
    b.push(1, &rig.frame(0)).unwrap();
    b.push(1, &rig.frame(2)).unwrap();
    assert_eq!(a.phase(2), Some(SessionPhase::Repairing));
    assert_eq!(b.phase(1), Some(SessionPhase::Repairing));
    assert_gauges(&[(&a, ids_a), (&b, ids_b)], "gap pushes");
    for seq in b.take_nacks(1).unwrap() {
        b.push(1, &rig.frame(seq)).unwrap();
    }
    assert_eq!(b.phase(1), Some(SessionPhase::Streaming));
    assert_gauges(&[(&a, ids_a), (&b, ids_b)], "repaired gap");

    a.close(1).unwrap();
    assert_gauges(&[(&a, ids_a), (&b, ids_b)], "a close");
    b.close(7).unwrap();
    assert_gauges(&[(&a, ids_a), (&b, ids_b)], "b close");

    drop(a);
    assert_gauges(&[(&b, ids_b)], "a dropped");
    drop(b);
    assert_gauges(&[], "both dropped");
}
