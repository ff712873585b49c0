//! Energy-attribution ledger: integer-femtojoule accounts that fold the
//! cluster's power waveform into per-node and per-tenant energy, with a
//! conservation audit every control round.
//!
//! The paper's framing — storage devices trading performance for power —
//! only closes the loop if the *energy bill* is attributable: who used
//! the joules a rack drew, and how much of a grant went stranded? The
//! ledger answers both deterministically:
//!
//! - **Accrual** is left-Riemann over the node sampling grid: at each
//!   sample the leaf's measured watts are quantized to integer
//!   micro-watts and held; energy accrues as `µW × ns = fJ` in `u128`
//!   accounts. Integer addition is associative and lossless, so
//!   checkpoint/resume and re-runs reproduce the accounts bit for bit.
//! - **Attribution** happens at audit time: the interval's energy is
//!   split across tenants — plus a reserved *system* account billed for
//!   bytes the cluster moved on its own behalf (placement migrations) —
//!   proportionally to the bytes each moved (integer
//!   multiply-then-divide); the division remainder — and every interval
//!   where nobody moved bytes — lands in the `idle` account.
//!   Conservation (`Σ tenant + system + idle = audited total`) is exact
//!   by construction, and the audit re-verifies it anyway.
//! - **The audit** runs every control round and at the end of the run:
//!   subtree energy computed by ancestor propagation must equal the
//!   per-node direct leaf sum (double-entry), attributed books must
//!   balance, and no node's grant may exceed its physical cap. Failures
//!   emit [`EventKind::ConservationViolation`] — which should never fire
//!   on a healthy run — and are counted for tests.
//!
//! Audits also publish [`EventKind::EnergyAttributed`] for the root and
//! every rack (cumulative joules + stranded watts, i.e. grant minus
//! measured draw) and [`EventKind::SloBurnAlert`] for tenants whose
//! windowed p99 latency has climbed past [`BURN_ALERT_THRESHOLD`] of
//! their SLO target.

use powadapt_obs::{emit, EventKind, RecorderHandle};
use powadapt_sim::SimTime;
use powadapt_snap::SnapError;

use crate::tree::{NodeId, NodeKind, PowerTree};

/// Fraction of the SLO p99 target at which a tenant's burn-rate alert
/// fires: `p99 / target > 0.9` means the error budget is nearly spent.
pub const BURN_ALERT_THRESHOLD: f64 = 0.9;

/// Measured watts quantized to integer micro-watts (negative readings
/// clamp to zero — a meter cannot deliver energy back to the grid).
fn quantize_uw(watts: f64) -> u64 {
    if watts > 0.0 {
        (watts * 1e6).round() as u64
    } else {
        0
    }
}

/// One tenant's cumulative usage, as the audit needs it: attribution is
/// driven by bytes moved, burn alerts by the windowed p99 against the
/// SLO target.
#[derive(Debug, Clone)]
pub struct TenantUsage<'a> {
    /// Tenant name, used in burn-alert events.
    pub name: &'a str,
    /// Cumulative bytes served to the tenant (monotone over the run).
    pub bytes: u64,
    /// Windowed p99 latency in microseconds, if any IO completed.
    pub p99_latency_us: Option<f64>,
    /// The tenant's SLO p99 target in microseconds, if it has one.
    pub slo_p99_us: Option<f64>,
}

/// The ledger: per-leaf and per-tenant femtojoule accounts plus the
/// held power samples the next accrual integrates over.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    /// Cumulative energy per tree leaf, femtojoules.
    leaf_fj: Vec<u128>,
    /// Held leaf power since the last sample, integer micro-watts.
    leaf_uw: Vec<u64>,
    /// Cumulative energy attributed per tenant, femtojoules.
    tenant_fj: Vec<u128>,
    /// Energy attributed to no tenant: intervals with no bytes moved,
    /// plus per-interval integer-division remainders. Femtojoules.
    idle_fj: u128,
    /// Energy attributed to the reserved *system* tenant — bytes moved
    /// by the cluster itself (placement migrations) rather than by any
    /// tenant's IO. Femtojoules.
    system_fj: u128,
    /// Total leaf energy at the last audit; the next audit attributes
    /// `Σ leaf_fj - audited_fj`.
    audited_fj: u128,
    /// Cumulative tenant bytes at the last audit.
    last_bytes: Vec<u64>,
    /// Cumulative system (migration) bytes at the last audit.
    last_system_bytes: u64,
    /// Time accrual has integrated up to.
    last_accrue: SimTime,
    /// Audit rounds run.
    audits: u64,
    /// Conservation violations detected (zero on a healthy run).
    violations: u64,
    /// The recorder installed when the ledger was built; audits emit here.
    rec: RecorderHandle,
}

impl EnergyLedger {
    /// An empty ledger for `n_leaves` tree leaves and `n_tenants`
    /// tenants, starting accrual at `start`.
    pub fn new(n_leaves: usize, n_tenants: usize, start: SimTime) -> Self {
        EnergyLedger {
            leaf_fj: vec![0; n_leaves],
            leaf_uw: vec![0; n_leaves],
            tenant_fj: vec![0; n_tenants],
            idle_fj: 0,
            system_fj: 0,
            audited_fj: 0,
            last_bytes: vec![0; n_tenants],
            last_system_bytes: 0,
            last_accrue: start,
            audits: 0,
            violations: 0,
            rec: powadapt_obs::current(),
        }
    }

    /// Integrates the held leaf powers over `[last_accrue, now)`:
    /// `µW × ns` is exactly femtojoules, accumulated in `u128`.
    pub fn accrue(&mut self, now: SimTime) {
        if now <= self.last_accrue {
            return;
        }
        let dt_ns = now.duration_since(self.last_accrue).as_nanos() as u128;
        for (fj, &uw) in self.leaf_fj.iter_mut().zip(&self.leaf_uw) {
            *fj += uw as u128 * dt_ns;
        }
        self.last_accrue = now;
    }

    /// Replaces the held leaf powers with fresh measurements. Call
    /// *after* [`accrue`](EnergyLedger::accrue) at the same instant, so
    /// the old powers cover the interval that just closed.
    pub fn set_powers(&mut self, leaf_watts: &[f64]) {
        debug_assert_eq!(leaf_watts.len(), self.leaf_uw.len());
        for (uw, &w) in self.leaf_uw.iter_mut().zip(leaf_watts) {
            *uw = quantize_uw(w);
        }
    }

    /// Total energy accrued across all leaves, femtojoules.
    pub fn total_fj(&self) -> u128 {
        self.leaf_fj.iter().sum()
    }

    /// Total energy accrued across all leaves, joules.
    pub fn total_joules(&self) -> f64 {
        self.total_fj() as f64 * 1e-15
    }

    /// Cumulative energy attributed to tenant `i`, femtojoules.
    pub fn tenant_fj(&self, i: usize) -> u128 {
        self.tenant_fj[i]
    }

    /// Energy attributed to no tenant so far, femtojoules.
    pub fn idle_fj(&self) -> u128 {
        self.idle_fj
    }

    /// Energy attributed to the reserved system tenant (migration
    /// traffic) so far, femtojoules.
    pub fn system_fj(&self) -> u128 {
        self.system_fj
    }

    /// Audit rounds run so far.
    pub fn audits(&self) -> u64 {
        self.audits
    }

    /// Conservation violations detected so far; zero on a healthy run.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Cumulative energy of every tree node, femtojoules, indexed by
    /// [`NodeId`]: each leaf's account propagated through its ancestors.
    pub fn node_fj(&self, tree: &PowerTree, leaves: &[NodeId]) -> Vec<u128> {
        let mut up = vec![0u128; tree.len()];
        for (leaf, &fj) in leaves.iter().zip(&self.leaf_fj) {
            up[leaf.0] += fj;
            for anc in tree.ancestors(*leaf) {
                up[anc.0] += fj;
            }
        }
        up
    }

    /// One audit round: accrue to `now`, attribute the interval's energy
    /// to tenants by bytes moved, verify conservation, and emit
    /// [`EventKind::EnergyAttributed`] / [`EventKind::SloBurnAlert`]
    /// telemetry. `grants` is the per-node granted watts, indexed by
    /// [`NodeId`]; `usage` is parallel to the tenant accounts.
    /// `system_bytes` is the cumulative byte count moved by the cluster
    /// itself (placement migrations); it joins the proportional split as
    /// a reserved pseudo-tenant billed to the `system` account.
    ///
    /// `enforce_grants` turns on the grant-vs-capacity check. It is the
    /// caller's statement that `grants` came from the tree's rebalance
    /// contract (which promises grants within advertised capacity); the
    /// static baseline's bookkeeping shares deliberately ignore the tree
    /// — over-committing enclosures is the naive policy's defining flaw,
    /// not a ledger inconsistency.
    #[allow(
        clippy::too_many_arguments,
        reason = "each input of one control round is passed explicitly"
    )]
    pub fn audit(
        &mut self,
        now: SimTime,
        tree: &PowerTree,
        leaves: &[NodeId],
        grants: &[f64],
        enforce_grants: bool,
        usage: &[TenantUsage<'_>],
        system_bytes: u64,
    ) {
        self.accrue(now);

        // Attribute the interval closed by this audit.
        let total = self.total_fj();
        let interval = total - self.audited_fj;
        let deltas: Vec<u128> = usage
            .iter()
            .zip(&self.last_bytes)
            .map(|(u, &prev)| u.bytes.saturating_sub(prev) as u128)
            .collect();
        let system_delta = system_bytes.saturating_sub(self.last_system_bytes) as u128;
        let moved: u128 = deltas.iter().sum::<u128>() + system_delta;
        #[allow(
            clippy::manual_checked_ops,
            reason = "three divisions share one zero guard: the split needs both the quotient and the remainder, so `checked_div` cannot replace it"
        )]
        if moved > 0 {
            let mut attributed = 0u128;
            for (fj, delta) in self.tenant_fj.iter_mut().zip(&deltas) {
                let share = interval / moved * delta + interval % moved * delta / moved;
                *fj += share;
                attributed += share;
            }
            let system_share =
                interval / moved * system_delta + interval % moved * system_delta / moved;
            self.system_fj += system_share;
            attributed += system_share;
            // The per-account floors under-count by less than one fJ per
            // account; the remainder is unattributable and goes idle.
            self.idle_fj += interval - attributed;
        } else {
            self.idle_fj += interval;
        }
        for (prev, u) in self.last_bytes.iter_mut().zip(usage) {
            *prev = u.bytes;
        }
        self.last_system_bytes = system_bytes;
        self.audited_fj = total;
        self.audits += 1;

        // Double-entry conservation: the attributed books must balance
        // the metered total exactly — integer arithmetic, no epsilon.
        let books = self.tenant_fj.iter().sum::<u128>() + self.system_fj + self.idle_fj;
        if books != self.audited_fj {
            self.violations += 1;
            emit!(
                self.rec,
                now,
                "ledger",
                EventKind::ConservationViolation(Box::new(powadapt_obs::ConservationViolation {
                    node: tree.path(tree.root_id()),
                    detail: format!(
                        "attributed books {books} fJ != audited total {} fJ",
                        self.audited_fj
                    ),
                }))
            );
        }

        // Structural conservation: subtree energy via ancestor
        // propagation must equal the direct descendant-leaf sum at every
        // node, and grants must respect physical caps.
        let up = self.node_fj(tree, leaves);
        for id in tree.node_ids() {
            let direct: u128 = leaves
                .iter()
                .zip(&self.leaf_fj)
                .filter(|&(&l, _)| l == id || tree.ancestors(l).contains(&id))
                .map(|(_, &fj)| fj)
                .sum();
            if up[id.0] != direct {
                self.violations += 1;
                emit!(
                    self.rec,
                    now,
                    "ledger",
                    EventKind::ConservationViolation(Box::new(
                        powadapt_obs::ConservationViolation {
                            node: tree.path(id),
                            detail: format!(
                                "propagated {} fJ != direct leaf sum {direct} fJ",
                                up[id.0]
                            ),
                        }
                    ))
                );
            }
            // A grant may exceed the physical cap up to the node's
            // advertised (oversubscribed) capacity — beyond that the
            // tree's own contract is broken.
            let limit_w = tree.advertised_w(id);
            if enforce_grants && grants[id.0] > limit_w + 1e-9 * limit_w.max(1.0) {
                self.violations += 1;
                emit!(
                    self.rec,
                    now,
                    "ledger",
                    EventKind::ConservationViolation(Box::new(
                        powadapt_obs::ConservationViolation {
                            node: tree.path(id),
                            detail: format!(
                                "grant {} W exceeds advertised capacity {limit_w} W",
                                grants[id.0]
                            ),
                        }
                    ))
                );
            }
        }

        // Publish the energy accounts for the root and every rack, with
        // the stranded headroom between grant and measured draw.
        if self.rec.is_enabled() {
            let mut measured_uw = vec![0u128; tree.len()];
            for (leaf, &uw) in leaves.iter().zip(&self.leaf_uw) {
                measured_uw[leaf.0] += uw as u128;
                for anc in tree.ancestors(*leaf) {
                    measured_uw[anc.0] += uw as u128;
                }
            }
            for id in tree.node_ids() {
                if id != tree.root_id() && tree.kind(id) != NodeKind::Rack {
                    continue;
                }
                let measured_w = measured_uw[id.0] as f64 * 1e-6;
                emit!(
                    self.rec,
                    now,
                    powadapt_obs::intern(&tree.path(id)),
                    EventKind::EnergyAttributed(Box::new(powadapt_obs::EnergyAttributed {
                        node: tree.path(id),
                        joules: up[id.0] as f64 * 1e-15,
                        stranded_w: (grants[id.0] - measured_w).max(0.0),
                    }))
                );
            }
        }

        for u in usage {
            let (Some(p99), Some(target)) = (u.p99_latency_us, u.slo_p99_us) else {
                continue;
            };
            if target <= 0.0 {
                continue;
            }
            let burn_rate = p99 / target;
            if burn_rate > BURN_ALERT_THRESHOLD {
                emit!(
                    self.rec,
                    now,
                    "slo",
                    EventKind::SloBurnAlert {
                        tenant: u.name.to_string(),
                        burn_rate,
                    }
                );
            }
        }
    }
}

powadapt_snap::snapshot! {
    EnergyLedger {
        leaf_fj: seq,
        leaf_uw: seq,
        tenant_fj: seq,
        idle_fj,
        system_fj,
        audited_fj,
        last_bytes: seq,
        last_system_bytes,
        last_accrue,
        audits,
        violations,
    }
    skip {
        rec: "telemetry sink, captured at construction",
    }
    after restore_books
}

impl EnergyLedger {
    /// The attributed books must balance what has been audited, and
    /// nothing can be audited that was never accrued.
    fn restore_books(&mut self) -> Result<(), SnapError> {
        let total = self.total_fj();
        if self.audited_fj > total {
            return Err(SnapError::InvalidValue(format!(
                "audited energy {} fJ exceeds accrued total {total} fJ",
                self.audited_fj
            )));
        }
        let books = self.tenant_fj.iter().sum::<u128>() + self.system_fj + self.idle_fj;
        if books != self.audited_fj {
            return Err(SnapError::InvalidValue(format!(
                "attributed books {books} fJ != audited total {} fJ",
                self.audited_fj
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PowerTree;
    use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};

    fn small_tree() -> PowerTree {
        let mut tree = PowerTree::root("cluster", NodeKind::Cluster, 100.0, 1.0);
        let rack = tree.add_child(tree.root_id(), "rack0", NodeKind::Rack, 60.0, 1.0);
        tree.add_child(rack, "enc0", NodeKind::Enclosure, 30.0, 1.0);
        tree.add_child(rack, "enc1", NodeKind::Enclosure, 30.0, 1.0);
        tree
    }

    #[test]
    fn accrual_is_exact_integer_femtojoules() {
        let mut ledger = EnergyLedger::new(2, 1, SimTime::ZERO);
        ledger.set_powers(&[2.0, 0.5]);
        ledger.accrue(SimTime::from_secs(1));
        // 2 W × 1 s = 2 J = 2e15 fJ; 0.5 W × 1 s = 5e14 fJ.
        assert_eq!(
            ledger.total_fj(),
            2_000_000_000_000_000 + 500_000_000_000_000
        );
        // Re-accruing at the same instant adds nothing.
        ledger.accrue(SimTime::from_secs(1));
        assert_eq!(ledger.total_fj(), 2_500_000_000_000_000);
    }

    #[test]
    fn attribution_conserves_every_femtojoule() {
        let tree = small_tree();
        let leaves = tree.leaves();
        let grants = vec![0.0; tree.len()];
        let mut ledger = EnergyLedger::new(2, 2, SimTime::ZERO);
        ledger.set_powers(&[3.0, 7.0]);
        // Bytes split 1:3 — the integer shares floor, the remainder goes
        // idle, and the books still balance exactly.
        let usage = [
            TenantUsage {
                name: "a",
                bytes: 1000,
                p99_latency_us: None,
                slo_p99_us: None,
            },
            TenantUsage {
                name: "b",
                bytes: 3000,
                p99_latency_us: None,
                slo_p99_us: None,
            },
        ];
        ledger.audit(
            SimTime::from_micros(997),
            &tree,
            &leaves,
            &grants,
            true,
            &usage,
            0,
        );
        let total = ledger.total_fj();
        assert_eq!(
            ledger.tenant_fj(0) + ledger.tenant_fj(1) + ledger.idle_fj(),
            total
        );
        assert_eq!(ledger.violations(), 0);
        assert_eq!(ledger.audits(), 1);

        // A second interval with no bytes moved goes entirely idle.
        let idle_before = ledger.idle_fj();
        ledger.audit(
            SimTime::from_micros(1997),
            &tree,
            &leaves,
            &grants,
            true,
            &usage,
            0,
        );
        assert_eq!(
            ledger.tenant_fj(0) + ledger.tenant_fj(1) + ledger.idle_fj(),
            ledger.total_fj()
        );
        assert!(ledger.idle_fj() > idle_before);
        assert_eq!(ledger.violations(), 0);
    }

    #[test]
    fn grant_over_cap_is_a_violation() {
        let tree = small_tree();
        let leaves = tree.leaves();
        let mut grants = vec![0.0; tree.len()];
        grants[tree.root_id().0] = 1000.0; // root cap is 100 W
        let mut ledger = EnergyLedger::new(2, 0, SimTime::ZERO);
        ledger.audit(
            SimTime::from_micros(1),
            &tree,
            &leaves,
            &grants,
            true,
            &[],
            0,
        );
        assert_eq!(ledger.violations(), 1);
    }

    #[test]
    fn node_energy_propagates_to_ancestors() {
        let tree = small_tree();
        let leaves = tree.leaves();
        let mut ledger = EnergyLedger::new(2, 0, SimTime::ZERO);
        ledger.set_powers(&[1.0, 2.0]);
        ledger.accrue(SimTime::from_secs(1));
        let node = ledger.node_fj(&tree, &leaves);
        // Root and rack both carry the sum of the two enclosure leaves.
        assert_eq!(node[tree.root_id().0], ledger.total_fj());
        assert_eq!(node[1], ledger.total_fj());
        assert_eq!(node[2] + node[3], node[1]);
    }

    #[test]
    fn snapshot_round_trips_and_validates() {
        let mut ledger = EnergyLedger::new(2, 2, SimTime::ZERO);
        ledger.set_powers(&[3.0, 7.0]);
        let tree = small_tree();
        let leaves = tree.leaves();
        let usage = [
            TenantUsage {
                name: "a",
                bytes: 10,
                p99_latency_us: None,
                slo_p99_us: None,
            },
            TenantUsage {
                name: "b",
                bytes: 20,
                p99_latency_us: None,
                slo_p99_us: None,
            },
        ];
        ledger.audit(
            SimTime::from_micros(123),
            &tree,
            &leaves,
            &vec![0.0; tree.len()],
            true,
            &usage,
            0,
        );

        let mut w = SnapWriter::new();
        ledger.write_state(&mut w).unwrap();
        let payload = w.into_payload();
        let mut restored = EnergyLedger::new(2, 2, SimTime::ZERO);
        let mut r = SnapReader::new(&payload);
        restored.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.total_fj(), ledger.total_fj());
        assert_eq!(restored.tenant_fj(0), ledger.tenant_fj(0));
        assert_eq!(restored.idle_fj(), ledger.idle_fj());
        assert_eq!(restored.audits(), 1);

        // Cooked books are rejected: bump one tenant account.
        let mut cooked = SnapWriter::new();
        ledger.write_state(&mut cooked).unwrap();
        let mut bytes = cooked.into_payload();
        // tenant_fj[0] low half sits after: len + 2×u128 leaves, len +
        // 2×u64 held powers, len prefix — flip its low byte instead of
        // hand-computing: corrupt by re-reading and re-writing.
        let mut tampered = EnergyLedger::new(2, 2, SimTime::ZERO);
        let mut r = SnapReader::new(&bytes);
        tampered.read_state(&mut r).unwrap();
        tampered.tenant_fj[0] += 1;
        let mut w2 = SnapWriter::new();
        tampered.write_state(&mut w2).unwrap();
        bytes = w2.into_payload();
        let mut rejected = EnergyLedger::new(2, 2, SimTime::ZERO);
        let mut r2 = SnapReader::new(&bytes);
        assert!(rejected.read_state(&mut r2).is_err());
    }
}
