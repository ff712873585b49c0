//! Snapshot/restore equivalence at the device level: a device checkpointed
//! mid-flight and overlaid onto a fresh instance of the same spec must
//! behave bit-identically to the original from that point on.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use powadapt_device::{
    catalog, FaultInjector, FaultPlan, IoId, IoKind, IoRequest, StorageDevice, KIB, MIB,
};
use powadapt_sim::SimDuration;
use powadapt_snap::{SnapError, SnapReader, SnapWriter};

/// Submits a mixed workload, advances partway, snapshots, restores into a
/// fresh device from `make`, and asserts the two runs are indistinguishable
/// to the bit from the checkpoint onward.
fn assert_roundtrip_equiv(make: &dyn Fn() -> Box<dyn StorageDevice>) {
    let mut orig = make();
    for i in 0..24u64 {
        let kind = if i % 3 == 0 {
            IoKind::Write
        } else {
            IoKind::Read
        };
        // Injected IO errors are part of some workloads; rejected
        // submissions simply don't join the in-flight set.
        let _ = orig.submit(IoRequest::new(IoId(i), kind, i * 4 * MIB, 256 * KIB));
    }
    // Advance through a prefix of the event stream so the checkpoint lands
    // with commands queued, dies busy, and completions pending.
    for _ in 0..10 {
        if let Some(t) = orig.next_event() {
            orig.advance_to(t);
        }
    }

    let mut w = SnapWriter::new();
    orig.write_state(&mut w).unwrap();
    let payload = w.into_payload();

    let mut restored = make();
    let mut r = SnapReader::new(&payload);
    restored.read_state(&mut r).unwrap();
    r.finish().unwrap();

    assert_eq!(orig.now(), restored.now());
    assert_eq!(orig.inflight(), restored.inflight());
    assert_eq!(orig.power_w().to_bits(), restored.power_w().to_bits());

    loop {
        let (a, b) = (orig.next_event(), restored.next_event());
        assert_eq!(a, b, "event streams diverged after restore");
        let Some(t) = a else { break };
        assert_eq!(
            orig.advance_to(t),
            restored.advance_to(t),
            "completions diverged after restore"
        );
        assert_eq!(
            orig.power_w().to_bits(),
            restored.power_w().to_bits(),
            "power draw diverged after restore"
        );
    }
    assert_eq!(orig.inflight(), 0);
    assert_eq!(restored.inflight(), 0);
}

#[test]
fn ssd_roundtrip_is_bit_exact() {
    for seed in [1u64, 7, 42] {
        assert_roundtrip_equiv(&move || Box::new(catalog::ssd2_d7_p5510(seed)));
        assert_roundtrip_equiv(&move || Box::new(catalog::ssd1_pm9a3(seed)));
    }
}

#[test]
fn hdd_roundtrip_is_bit_exact() {
    for seed in [1u64, 42] {
        assert_roundtrip_equiv(&move || Box::new(catalog::hdd_exos_7e2000(seed)));
    }
}

#[test]
fn fault_injector_roundtrip_is_bit_exact() {
    let make = || {
        let plan = FaultPlan::none()
            .io_errors(0.05)
            .latency_spikes(0.4, SimDuration::from_millis(20));
        Box::new(FaultInjector::seeded(
            Box::new(catalog::ssd2_d7_p5510(3)),
            plan,
            99,
        )) as Box<dyn StorageDevice>
    };
    assert_roundtrip_equiv(&make);
}

#[test]
fn fault_injector_roundtrip_preserves_stats_and_held() {
    let plan = FaultPlan::none().latency_spikes(1.0, SimDuration::from_secs(5));
    let mut orig = FaultInjector::seeded(Box::new(catalog::ssd2_d7_p5510(1)), plan.clone(), 2);
    orig.submit(IoRequest::new(IoId(0), IoKind::Read, 0, 4 * KIB))
        .unwrap();
    // Advance to the inner completion time: the spike holds the completion.
    while orig.inner().inflight() > 0 {
        let t = orig.next_event().unwrap();
        orig.advance_to(t);
    }
    assert_eq!(orig.inflight(), 1, "precondition: one held completion");

    let mut w = SnapWriter::new();
    orig.write_state(&mut w).unwrap();
    let mut restored = FaultInjector::seeded(Box::new(catalog::ssd2_d7_p5510(1)), plan, 2);
    let payload = w.into_payload();
    let mut r = SnapReader::new(&payload);
    restored.read_state(&mut r).unwrap();
    r.finish().unwrap();

    assert_eq!(restored.stats(), orig.stats());
    assert_eq!(restored.inflight(), 1, "held completion survives restore");
    let t = restored.next_event().unwrap();
    assert_eq!(restored.advance_to(t), orig.advance_to(t));
}

#[test]
fn standby_transition_survives_restore() {
    let mut orig = catalog::hdd_exos_7e2000(5);
    orig.request_standby().unwrap();
    // Snapshot mid spin-down, before the transition completes.
    let mut w = SnapWriter::new();
    StorageDevice::write_state(&orig, &mut w).unwrap();
    let mut restored = catalog::hdd_exos_7e2000(5);
    let payload = w.into_payload();
    let mut r = SnapReader::new(&payload);
    StorageDevice::read_state(&mut restored, &mut r).unwrap();
    r.finish().unwrap();

    assert_eq!(orig.standby_state(), restored.standby_state());
    loop {
        let (a, b) = (orig.next_event(), restored.next_event());
        assert_eq!(a, b);
        let Some(t) = a else { break };
        orig.advance_to(t);
        restored.advance_to(t);
        assert_eq!(orig.power_w().to_bits(), restored.power_w().to_bits());
        assert_eq!(orig.standby_state(), restored.standby_state());
    }
}

#[test]
fn truncated_device_state_fails_closed() {
    let orig = catalog::ssd2_d7_p5510(1);
    let mut w = SnapWriter::new();
    StorageDevice::write_state(&orig, &mut w).unwrap();
    let payload = w.into_payload();
    let mut restored = catalog::ssd2_d7_p5510(1);
    let mut r = SnapReader::new(&payload[..payload.len() / 2]);
    match StorageDevice::read_state(&mut restored, &mut r) {
        Err(SnapError::Truncated { .. }) | Err(SnapError::InvalidValue(_)) => {}
        other => panic!("expected typed failure on truncation, got {other:?}"),
    }
}
