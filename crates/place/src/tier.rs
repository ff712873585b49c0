//! The placement tier: capacity-aware replica placement, temperature
//! bookkeeping, and the spin-down consolidation policy, glued to the
//! migration engine.
//!
//! The tier is pure bookkeeping — it never touches a device. The cluster
//! layer asks it where reads and writes should land, drives `tick` once
//! per control round, issues the migration IOs it hands back through the
//! ordinary fleet runner, and reports completions. Keeping the tier
//! device-free makes every decision a deterministic function of the
//! catalog state, so the whole subsystem snapshots cleanly.

use powadapt_sim::{SimDuration, SimTime};
use powadapt_snap::SnapError;

use crate::catalog::ExtentCatalog;
use crate::migrate::{Migration, MigrationEngine};

/// Heat contributed per 4 KiB page accessed: temperatures read as "pages
/// touched per window", decayed by half each window.
const PAGE_BYTES: f64 = 4096.0;

/// How the placer ranks devices for fresh extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Energy-aware: fresh (presumed-warm) extents prefer devices that
    /// are not cold targets; consolidation later drains cold extents to
    /// the cold tier.
    TempDriven,
    /// Capacity-only spread across every device, blind to device class —
    /// the static baseline the paper's §4 argues against.
    StaticSpread,
}

/// One routable device as the placer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSlot {
    /// Rack index — the anti-affinity domain for replica placement.
    pub rack: u32,
    /// Advertised capacity in bytes.
    pub capacity: u64,
    /// True for devices meant to absorb cold data and spin down between
    /// batch windows (the Exos HDDs).
    pub cold_target: bool,
}

/// Static configuration of the placement tier.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Unit of placement and migration, in bytes.
    pub extent_bytes: u64,
    /// Replicas per extent (primary included), capped by device count.
    pub replicas: u8,
    /// Temperature window: heat halves once per elapsed window.
    pub temp_window: SimDuration,
    /// Extents at or below this temperature count as cold.
    pub cold_threshold: f64,
    /// Consolidation cadence: cold extents are drained once per batch
    /// window, and cold targets may sleep between windows.
    pub batch_window: SimDuration,
    /// Sustained migration rate limit, bytes/second.
    pub migration_rate_bps: u64,
    /// Allowance clamp for the migration token bucket, in bytes.
    pub migration_burst_bytes: u64,
    /// Cap on concurrently in-flight moves.
    pub max_active_migrations: usize,
    /// Fresh-extent ranking mode.
    pub mode: PlacementMode,
    /// Whether the migration engine actually issues moves.
    pub migrate: bool,
    /// Whether the consolidation policy plans moves and pins cold
    /// targets into standby.
    pub consolidate: bool,
}

impl PlacementConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.extent_bytes == 0 {
            return Err("extent_bytes must be positive".to_string());
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".to_string());
        }
        if self.temp_window.as_nanos() == 0 {
            return Err("temp_window must be positive".to_string());
        }
        if self.batch_window.as_nanos() == 0 {
            return Err("batch_window must be positive".to_string());
        }
        if !self.cold_threshold.is_finite() || self.cold_threshold < 0.0 {
            return Err(format!(
                "cold_threshold {} must be finite and non-negative",
                self.cold_threshold
            ));
        }
        if self.migrate && self.migration_rate_bps == 0 {
            return Err("migration_rate_bps must be positive when migrate is on".to_string());
        }
        if self.consolidate && !self.migrate {
            return Err("consolidation requires the migration engine".to_string());
        }
        Ok(())
    }
}

/// Where a write landed: the extent and its primary, plus whether this
/// write allocated the extent (a placement decision worth an obs event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Extent id.
    pub extent: u64,
    /// Flat device index of the primary holder.
    pub primary: u32,
    /// Holder count.
    pub replicas: u8,
    /// True when this write allocated the extent.
    pub newly_placed: bool,
}

/// The placement tier.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementTier {
    /// Static configuration (spec-derived, not serialized).
    cfg: PlacementConfig,
    /// Device table (spec-derived, not serialized).
    slots: Vec<DeviceSlot>,
    /// Bytes charged per device: live replicas plus reserved migration
    /// destinations.
    used: Vec<u64>,
    /// The extent catalog.
    catalog: ExtentCatalog,
    /// The background migration engine.
    engine: MigrationEngine,
    /// Next batch-window index whose consolidation pass has not run yet.
    next_batch: u64,
    /// Cold-target devices currently parked: the controller must plan
    /// them as standby and never wake them.
    pinned: Vec<bool>,
    /// Cumulative bytes of committed moves (the ledger's system-tenant
    /// usage signal).
    moved_bytes: u64,
}

impl PlacementTier {
    /// Builds a tier over `slots`. The configuration must be valid
    /// ([`PlacementConfig::validate`]).
    pub fn new(cfg: PlacementConfig, slots: Vec<DeviceSlot>) -> Self {
        let n = slots.len();
        let engine = MigrationEngine::new(
            cfg.migration_rate_bps,
            cfg.migration_burst_bytes,
            cfg.max_active_migrations,
        );
        PlacementTier {
            cfg,
            slots,
            used: vec![0; n],
            catalog: ExtentCatalog::new(),
            engine,
            next_batch: 0,
            pinned: vec![false; n],
            moved_bytes: 0,
        }
    }

    /// The temperature window index at `now`.
    fn window(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.cfg.temp_window.as_nanos()
    }

    /// Utilization of device `d` in parts per million (integer, so ranking
    /// is deterministic and capacity-weighted across unequal devices).
    fn utilization_ppm(&self, d: usize) -> u64 {
        let cap = self.slots[d].capacity.max(1);
        (u128::from(self.used[d]) * 1_000_000 / u128::from(cap)) as u64
    }

    /// Chooses a holder list for a fresh extent: capacity-ranked, class
    /// aware in [`PlacementMode::TempDriven`], racks pairwise distinct
    /// while distinct racks remain.
    fn choose_holders(&self) -> Vec<u32> {
        let want = (self.cfg.replicas as usize).min(self.slots.len());
        let mut ranked: Vec<usize> = (0..self.slots.len()).collect();
        ranked.sort_by_key(|&d| {
            let fits = self.used[d] + self.cfg.extent_bytes <= self.slots[d].capacity;
            let class_penalty = match self.cfg.mode {
                PlacementMode::TempDriven => u8::from(self.slots[d].cold_target),
                PlacementMode::StaticSpread => 0,
            };
            (!fits, class_penalty, self.utilization_ppm(d), d)
        });
        let mut holders: Vec<u32> = Vec::with_capacity(want);
        let mut racks: Vec<u32> = Vec::with_capacity(want);
        for relax_rack in [false, true] {
            for &d in &ranked {
                if holders.len() == want {
                    break;
                }
                let dev = d as u32;
                if holders.contains(&dev) {
                    continue;
                }
                if !relax_rack && racks.contains(&self.slots[d].rack) {
                    continue;
                }
                holders.push(dev);
                racks.push(self.slots[d].rack);
            }
        }
        holders
    }

    /// Resolves a write: the extent's primary holder, allocating (and
    /// capacity-charging) the extent on first touch.
    pub fn route_write(&mut self, tenant: u32, offset: u64, len: u64, now: SimTime) -> Placed {
        let index = offset / self.cfg.extent_bytes;
        let window = self.window(now);
        let weight = len as f64 / PAGE_BYTES;
        if let Some(id) = self.catalog.id_at((tenant, index)) {
            // Existing extent: heat it and return its primary. The
            // catalog entry is guaranteed present for a live id.
            let mut primary = 0;
            let mut replicas = 0;
            if let Some(e) = self.catalog.get_mut(id) {
                e.temp.touch(window, weight);
                primary = e.holders[0];
                replicas = e.holders.len() as u8;
            }
            return Placed {
                extent: id,
                primary,
                replicas,
                newly_placed: false,
            };
        }
        let holders = self.choose_holders();
        for &h in &holders {
            self.used[h as usize] += self.cfg.extent_bytes;
        }
        let primary = holders[0];
        let replicas = holders.len() as u8;
        let id = self.catalog.insert(tenant, index, holders);
        if let Some(e) = self.catalog.get_mut(id) {
            e.temp.touch(window, weight);
        }
        Placed {
            extent: id,
            primary,
            replicas,
            newly_placed: true,
        }
    }

    /// Resolves a read: fills `out` with the extent's holders in
    /// preference order (primary first) and returns true, or returns
    /// false for an extent that was never written (the caller falls back
    /// to its legacy routing).
    pub fn read_holders(
        &mut self,
        tenant: u32,
        offset: u64,
        len: u64,
        now: SimTime,
        out: &mut Vec<u32>,
    ) -> bool {
        let index = offset / self.cfg.extent_bytes;
        let Some(id) = self.catalog.id_at((tenant, index)) else {
            return false;
        };
        let window = self.window(now);
        let weight = len as f64 / PAGE_BYTES;
        match self.catalog.get_mut(id) {
            Some(e) => {
                e.temp.touch(window, weight);
                out.clear();
                out.extend_from_slice(&e.holders);
                true
            }
            None => false,
        }
    }

    /// Plans one consolidation pass: every cold extent whose primary sits
    /// on a non-cold-target device is queued to move to the least-utilized
    /// cold target with room, coldest first. Destinations are reserved
    /// immediately so concurrent plans cannot overcommit a device.
    fn plan_consolidation(&mut self, window: u64) {
        let mut candidates: Vec<(u64, f64)> = self
            .catalog
            .iter()
            .filter(|e| {
                let primary = e.holders[0] as usize;
                !self.slots[primary].cold_target
                    && e.temp.value_at(window) <= self.cfg.cold_threshold
                    && !self.engine.moving(e.id)
            })
            .map(|e| (e.id, e.temp.value_at(window)))
            .collect();
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for (id, _) in candidates {
            let Some(e) = self.catalog.get(id) else {
                continue;
            };
            let from = e.holders[0];
            let offset = e.index * self.cfg.extent_bytes;
            // Racks already covered by the extent's *other* replicas stay
            // off limits so the move preserves rack anti-affinity.
            let other_racks: Vec<u32> = e.holders[1..]
                .iter()
                .map(|&h| self.slots[h as usize].rack)
                .collect();
            let holders = e.holders.clone();
            let target = (0..self.slots.len())
                .filter(|&d| {
                    self.slots[d].cold_target
                        && !holders.contains(&(d as u32))
                        && !other_racks.contains(&self.slots[d].rack)
                        && self.used[d] + self.cfg.extent_bytes <= self.slots[d].capacity
                })
                .min_by_key(|&d| (self.utilization_ppm(d), d));
            let Some(to) = target else { continue };
            self.used[to] += self.cfg.extent_bytes;
            self.engine
                .enqueue(id, from, to as u32, offset, self.cfg.extent_bytes);
        }
    }

    /// Recomputes which cold targets may sleep: a device is pinned into
    /// standby when consolidation is on, no unfinished move touches it,
    /// and no extent it serves as primary is currently hot.
    fn recompute_pins(&mut self, window: u64) {
        let n = self.slots.len();
        let mut hot_primary = vec![false; n];
        for e in self.catalog.iter() {
            if e.temp.value_at(window) > self.cfg.cold_threshold {
                hot_primary[e.holders[0] as usize] = true;
            }
        }
        for (d, hot) in hot_primary.iter().enumerate() {
            self.pinned[d] = self.cfg.consolidate
                && self.slots[d].cold_target
                && !self.engine.busy(d as u32)
                && !hot;
        }
    }

    /// One control-round tick: runs the consolidation planner at batch
    /// boundaries, starts rate-limited moves whose endpoints `allowed`
    /// clears (devices outside their breaker headroom stay untouched),
    /// and refreshes the standby pin set. Returns the started move ids;
    /// their source reads wait as legs ([`pop_leg`](Self::pop_leg)).
    pub fn tick(&mut self, now: SimTime, allowed: &[bool]) -> Vec<u64> {
        let window = self.window(now);
        if self.cfg.consolidate {
            let batch = now.as_nanos() / self.cfg.batch_window.as_nanos();
            if batch >= self.next_batch {
                self.plan_consolidation(window);
                self.next_batch = batch + 1;
            }
        }
        let starts = if self.cfg.migrate {
            self.engine.start_ready(now, allowed)
        } else {
            Vec::new()
        };
        self.recompute_pins(window);
        starts
    }

    /// Forwards a completed migration leg. A finished source read queues
    /// the destination write; a finished destination write commits the
    /// holder change, releases the source's capacity, and returns the
    /// committed move.
    pub fn migration_leg_done(&mut self, id: u64) -> Option<Migration> {
        let m = self.engine.leg_done(id)?;
        self.catalog.replace_holder(m.extent, m.from, m.to);
        self.used[m.from as usize] = self.used[m.from as usize].saturating_sub(m.len);
        self.moved_bytes += m.len;
        Some(m)
    }

    /// The current standby pin set, indexed by flat device.
    pub fn pinned(&self) -> &[bool] {
        &self.pinned
    }

    /// Cumulative committed migration bytes (system-tenant usage).
    pub fn moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    /// Live extents in the catalog.
    pub fn extents(&self) -> usize {
        self.catalog.len()
    }

    /// Bytes charged per device.
    pub fn used(&self) -> &[u64] {
        &self.used
    }

    /// The migration engine: its moves, legs and lifetime counts.
    pub fn engine(&self) -> &MigrationEngine {
        &self.engine
    }

    /// Takes the oldest migration leg awaiting a device; see
    /// [`MigrationEngine::pop_leg`].
    pub fn pop_leg(&mut self) -> Option<Migration> {
        self.engine.pop_leg()
    }

    /// Re-queues move `id`'s leg behind every other waiting leg.
    pub fn defer_leg(&mut self, id: u64) {
        self.engine.defer_leg(id);
    }
}

// cfg and slots are rebuilt from the spec on resume; everything dynamic is
// serialized and cross-checked against them on restore.
powadapt_snap::snapshot! {
    PlacementTier {
        used: seq,
        catalog: state,
        engine: state,
        next_batch,
        pinned: seq,
        moved_bytes,
    }
    skip {
        cfg: "spec config",
        slots: "spec config: the device table",
    }
    after restore_charges
}

impl PlacementTier {
    /// Cross-checks the restored charges against the catalog plus reserved
    /// migration destinations, which also validates every holder index
    /// against the device table.
    fn restore_charges(&mut self) -> Result<(), SnapError> {
        let n = self.slots.len();
        let mut expect: Vec<u64> = vec![0; n];
        for e in self.catalog.iter() {
            for &h in &e.holders {
                let slot = expect.get_mut(h as usize).ok_or_else(|| {
                    SnapError::InvalidValue(format!(
                        "extent {} holder {h} is out of range for {n} devices",
                        e.id
                    ))
                })?;
                *slot += self.cfg.extent_bytes;
            }
        }
        for m in self.engine.moves() {
            if m.from as usize >= n || m.to as usize >= n {
                return Err(SnapError::InvalidValue(format!(
                    "migration {} from {} to {} is out of range for {n} devices",
                    m.id, m.from, m.to
                )));
            }
            expect[m.to as usize] += m.len;
        }
        if expect != self.used {
            return Err(SnapError::InvalidValue(
                "placement capacity charges do not match the restored catalog".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]
mod tests {
    use super::*;
    use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};

    fn cfg(mode: PlacementMode, replicas: u8) -> PlacementConfig {
        PlacementConfig {
            extent_bytes: 1 << 20,
            replicas,
            temp_window: SimDuration::from_secs(1),
            cold_threshold: 0.5,
            batch_window: SimDuration::from_secs(4),
            migration_rate_bps: 64 << 20,
            migration_burst_bytes: 64 << 20,
            max_active_migrations: 2,
            mode,
            migrate: true,
            consolidate: true,
        }
    }

    /// Two SSD-ish slots on rack 0, two cold targets on racks 1 and 2.
    fn slots() -> Vec<DeviceSlot> {
        vec![
            DeviceSlot {
                rack: 0,
                capacity: 64 << 20,
                cold_target: false,
            },
            DeviceSlot {
                rack: 0,
                capacity: 64 << 20,
                cold_target: false,
            },
            DeviceSlot {
                rack: 1,
                capacity: 256 << 20,
                cold_target: true,
            },
            DeviceSlot {
                rack: 2,
                capacity: 256 << 20,
                cold_target: true,
            },
        ]
    }

    const ALL: &[bool] = &[true; 4];

    #[test]
    fn config_validation_catches_nonsense() {
        let mut c = cfg(PlacementMode::TempDriven, 1);
        assert!(c.validate().is_ok());
        c.extent_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = cfg(PlacementMode::TempDriven, 1);
        c.consolidate = true;
        c.migrate = false;
        assert!(c.validate().is_err());
    }

    #[test]
    fn temp_driven_prefers_warm_tier_and_spreads_by_capacity() {
        let mut tier = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        let a = tier.route_write(0, 0, 4096, SimTime::ZERO);
        let b = tier.route_write(0, 1 << 20, 4096, SimTime::ZERO);
        assert!(a.newly_placed && b.newly_placed);
        // Both land on the non-cold tier, least-utilized first.
        assert_eq!(a.primary, 0);
        assert_eq!(b.primary, 1);
        // A rewrite resolves to the same extent without reallocating.
        let again = tier.route_write(0, 4096, 4096, SimTime::ZERO);
        assert_eq!(again.extent, a.extent);
        assert!(!again.newly_placed);
        assert_eq!(tier.extents(), 2);
    }

    #[test]
    fn replicas_land_on_distinct_racks() {
        let mut tier = PlacementTier::new(cfg(PlacementMode::TempDriven, 2), slots());
        let p = tier.route_write(0, 0, 4096, SimTime::ZERO);
        assert_eq!(p.replicas, 2);
        let mut holders = Vec::new();
        assert!(tier.read_holders(0, 0, 4096, SimTime::ZERO, &mut holders));
        assert_eq!(holders[0], p.primary);
        // Primary on rack 0 (warm tier), secondary forced off rack 0.
        assert_eq!(holders.len(), 2);
        assert_ne!(holders[1] as usize, 0);
        assert_ne!(holders[1] as usize, 1);
    }

    #[test]
    fn capacity_pressure_overflows_to_cold_tier() {
        let mut tier = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        // 64 extents of 1 MiB fill both 64 MiB warm devices.
        for i in 0..128 {
            tier.route_write(0, i << 20, 4096, SimTime::ZERO);
        }
        let overflow = tier.route_write(0, 128 << 20, 4096, SimTime::ZERO);
        assert!(tier.used()[0] == 64 << 20 && tier.used()[1] == 64 << 20);
        assert!(overflow.primary == 2 || overflow.primary == 3);
    }

    #[test]
    fn consolidation_moves_cold_extents_and_pins_quiet_targets() {
        let mut tier = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        let p = tier.route_write(0, 0, 4096, SimTime::ZERO);
        assert_eq!(p.primary, 0);
        // Tick inside the first batch window: extent is still warm, so
        // nothing moves and the cold targets (untouched) are pinned.
        let starts = tier.tick(SimTime::ZERO + SimDuration::from_millis(500), ALL);
        assert!(starts.is_empty());
        assert_eq!(tier.pinned(), &[false, false, true, true]);
        // Two batch windows later the extent has fully cooled: the next
        // tick plans its move, starts the source read, and unpins the
        // destination for the drain.
        let t = SimTime::ZERO + SimDuration::from_secs(8);
        let starts = tier.tick(t, ALL);
        assert_eq!(starts.len(), 1);
        let read = tier.pop_leg().unwrap();
        assert_eq!(read.id, starts[0]);
        assert_eq!(read.leg_device(), Some(0));
        assert!(tier.migration_leg_done(read.id).is_none());
        let dest = tier.pop_leg().unwrap().leg_device().unwrap();
        assert!(!tier.pinned()[0] && !tier.pinned()[dest as usize]);
        let done = tier.migration_leg_done(read.id).unwrap();
        assert_eq!(done.from, 0);
        assert_eq!(done.to, dest);
        // Capacity followed the move and the system moved-bytes account
        // saw the traffic.
        assert_eq!(tier.used()[0], 0);
        assert_eq!(tier.used()[dest as usize], 1 << 20);
        assert_eq!(tier.moved_bytes(), 1 << 20);
        // With the move committed the target may sleep again.
        let _ = tier.tick(t + SimDuration::from_millis(1), ALL);
        assert!(tier.pinned()[dest as usize]);
        // Reads now resolve to the cold target.
        let mut holders = Vec::new();
        assert!(tier.read_holders(0, 0, 4096, t, &mut holders));
        assert_eq!(holders, vec![dest]);
    }

    #[test]
    fn static_spread_never_consolidates() {
        let mut c = cfg(PlacementMode::StaticSpread, 1);
        c.migrate = false;
        c.consolidate = false;
        let mut tier = PlacementTier::new(c, slots());
        // Capacity-only ranking ignores device class: the big cold
        // devices fill first per ppm utilization (all tie at 0 -> index
        // order), then spread stays balanced by ppm.
        let p = tier.route_write(0, 0, 4096, SimTime::ZERO);
        assert_eq!(p.primary, 0);
        let t = SimTime::ZERO + SimDuration::from_secs(60);
        assert!(tier.tick(t, ALL).is_empty());
        assert_eq!(tier.pinned(), &[false; 4]);
    }

    #[test]
    fn snapshot_roundtrip_mid_migration() {
        let mut tier = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        for i in 0..4 {
            tier.route_write(0, i << 20, 4096, SimTime::ZERO);
        }
        let t = SimTime::ZERO + SimDuration::from_secs(8);
        let starts = tier.tick(t, ALL);
        assert!(!starts.is_empty());
        // One move advanced to the write phase, others queued/reading.
        assert_eq!(tier.pop_leg().unwrap().id, starts[0]);
        assert!(tier.migration_leg_done(starts[0]).is_none());
        let mut w = SnapWriter::new();
        tier.write_state(&mut w).unwrap();
        let payload = w.into_payload();
        let mut fresh = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        let mut r = SnapReader::new(&payload);
        fresh.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh, tier);
    }

    #[test]
    fn restore_rejects_mismatched_charges() {
        let tier = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        let mut w = SnapWriter::new();
        tier.write_state(&mut w).unwrap();
        let mut payload = w.into_payload();
        // Corrupt the first used-bytes entry (bytes 8..16 after the seq
        // length prefix).
        payload[8] = 1;
        let mut fresh = PlacementTier::new(cfg(PlacementMode::TempDriven, 1), slots());
        let mut r = SnapReader::new(&payload);
        assert!(fresh.read_state(&mut r).is_err());
    }
}
