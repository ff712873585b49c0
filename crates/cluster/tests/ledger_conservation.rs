//! Property tests for the energy-attribution ledger: double-entry
//! conservation must hold *exactly* — integer femtojoules, no epsilon —
//! over random power-tree topologies, random leaf power traces, and
//! random tenant byte movements. A ledger that ever reports a violation
//! on lawful inputs, or whose books drift from the metered total by even
//! one femtojoule, fails these tests. The reserved system account
//! (migration traffic) joins the split as a pseudo-tenant, so the
//! balance is `Σ tenant + system + idle == total` — exactly.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_cluster::{EnergyLedger, NodeKind, PowerTree, TenantUsage};
use powadapt_obs::RecorderHandle;
use powadapt_sim::SimTime;
use proptest::prelude::*;

/// A random three-level tree: root → 1..=3 racks → 1..=3 enclosures
/// each. Caps are generous so grant checks never trigger; the tests
/// target the *accounting* invariants, not cap policy.
fn tree_shape() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..=3, 1..=3)
}

fn build_tree(racks: &[usize]) -> PowerTree {
    let mut tree = PowerTree::root("dc", NodeKind::Cluster, 100_000.0, 1.0);
    let root = tree.root_id();
    for (r, &encs) in racks.iter().enumerate() {
        let rack = tree.add_child(root, &format!("rack{r}"), NodeKind::Rack, 10_000.0, 1.0);
        for e in 0..encs {
            tree.add_child(rack, &format!("enc{e}"), NodeKind::Enclosure, 1_000.0, 1.0);
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_holds_on_random_topologies(
        racks in tree_shape(),
        n_tenants in 1usize..4,
    ) {
        // Shape-only case: fixed powers/bytes, varying tree.
        let tree = build_tree(&racks);
        let leaves = tree.leaves();
        let mut ledger = EnergyLedger::new(leaves.len(), n_tenants, SimTime::ZERO, RecorderHandle::disabled());
        let grants = vec![0.0f64; tree.len()];

        let mut now = SimTime::ZERO;
        let mut bytes = vec![0u64; n_tenants];
        for step in 1..=4u64 {
            ledger.set_powers(&vec![37.5; leaves.len()]);
            now += powadapt_sim::SimDuration::from_nanos(step * 1_000_000);
            for b in &mut bytes {
                *b += step * 4096;
            }
            let usage: Vec<TenantUsage<'_>> = bytes
                .iter()
                .map(|&b| TenantUsage {
                    name: "t",
                    bytes: b,
                    p99_latency_us: None,
                    slo_p99_us: None,
                })
                .collect();
            ledger.audit(now, &tree, &leaves, &grants, false, &usage, 0);
        }
        prop_assert_eq!(ledger.violations(), 0);
        let books: u128 = (0..n_tenants).map(|i| ledger.tenant_fj(i)).sum::<u128>()
            + ledger.system_fj()
            + ledger.idle_fj();
        prop_assert_eq!(books, ledger.total_fj());
    }

    #[test]
    fn conservation_holds_on_random_traces(
        racks in tree_shape(),
        steps_seed in proptest::collection::vec(0u64..(1 << 48), 1..2),
    ) {
        let tree = build_tree(&racks);
        let leaves = tree.leaves();
        let n_tenants = 3usize;
        let mut ledger = EnergyLedger::new(leaves.len(), n_tenants, SimTime::ZERO, RecorderHandle::disabled());
        let grants = vec![0.0f64; tree.len()];

        // Deterministic per-case trace from the seed: varying powers,
        // byte deltas (including all-zero intervals), and interval
        // lengths exercise the remainder paths in attribution. System
        // (migration) bytes advance on their own cadence, including
        // intervals where only the system moved data.
        let mut state = steps_seed[0] | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut now = SimTime::ZERO;
        let mut bytes = vec![0u64; n_tenants];
        let mut system_bytes = 0u64;
        for _ in 0..8 {
            let watts: Vec<f64> = leaves.iter().map(|_| (next() % 500_000) as f64 * 1e-3).collect();
            ledger.set_powers(&watts);
            now += powadapt_sim::SimDuration::from_nanos(1 + next() % 3_000_000_000);
            for b in &mut bytes {
                // Zero deltas are common: idle tenants in an interval.
                *b += if next() % 3 == 0 { 0 } else { next() % 1_000_000 };
            }
            system_bytes += if next() % 2 == 0 { 0 } else { next() % 4_000_000 };
            let usage: Vec<TenantUsage<'_>> = bytes
                .iter()
                .map(|&b| TenantUsage {
                    name: "t",
                    bytes: b,
                    p99_latency_us: None,
                    slo_p99_us: None,
                })
                .collect();
            ledger.audit(now, &tree, &leaves, &grants, false, &usage, system_bytes);
        }
        prop_assert_eq!(ledger.violations(), 0, "lawful inputs must never violate");
        let books: u128 = (0..n_tenants).map(|i| ledger.tenant_fj(i)).sum::<u128>()
            + ledger.system_fj()
            + ledger.idle_fj();
        prop_assert_eq!(books, ledger.total_fj(), "double-entry books must balance exactly");
        // Structural conservation: propagated subtree energy equals the
        // direct descendant-leaf sum at every node.
        let up = ledger.node_fj(&tree, &leaves);
        prop_assert_eq!(up[tree.root_id().0], ledger.total_fj());
    }

    #[test]
    fn system_only_intervals_bill_the_system_account(
        fj_seed in 1u64..(1 << 40),
    ) {
        // An interval where *only* migrations moved bytes must attribute
        // the whole interval (minus nothing — one account, no remainder
        // split) to the system account.
        let tree = build_tree(&[1]);
        let leaves = tree.leaves();
        let grants = vec![0.0f64; tree.len()];
        let mut ledger = EnergyLedger::new(leaves.len(), 2, SimTime::ZERO, RecorderHandle::disabled());
        ledger.set_powers(&[(fj_seed % 1000) as f64 + 1.0]);
        let usage = [
            TenantUsage { name: "a", bytes: 0, p99_latency_us: None, slo_p99_us: None },
            TenantUsage { name: "b", bytes: 0, p99_latency_us: None, slo_p99_us: None },
        ];
        let now = SimTime::ZERO + powadapt_sim::SimDuration::from_nanos(1 + fj_seed % 1_000_000);
        ledger.audit(now, &tree, &leaves, &grants, false, &usage, 4096);
        prop_assert_eq!(ledger.system_fj(), ledger.total_fj());
        prop_assert_eq!(ledger.tenant_fj(0), 0u128);
        prop_assert_eq!(ledger.idle_fj(), 0u128);
        prop_assert_eq!(ledger.violations(), 0);
    }
}
