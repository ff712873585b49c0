//! The background migration engine: a deterministic, rate-limited queue
//! of extent moves.
//!
//! A *move* relocates one extent replica: read the extent off the source
//! device, write it to the destination, then commit the holder change in
//! the catalog. The engine owns the move lifecycle, the rate limit and
//! the queue of legs awaiting a device; a leg (which device, read or
//! write) follows from its move's phase. The cluster layer issues the
//! actual IOs through the fleet runner and reports completions back, so
//! migration traffic shares queues, power, and breaker caps with tenant
//! IO instead of bypassing them.
//!
//! Rate limiting is a token allowance computed from absolute sim time:
//! `allowance(t) = rate_bps * t / 1s`, with `spent` bytes charged as moves
//! start. Because the allowance is a pure function of `t` and `spent` is
//! snapshotted, a restored run admits exactly the moves the straight run
//! would have. Unused allowance is clamped to one `burst_bytes` window so
//! a long-idle engine cannot unleash a migration storm.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use powadapt_sim::SimTime;
use powadapt_snap::{ById, Keyed, SnapError};

/// Lifecycle phase of a move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Enqueued; no IO issued yet.
    Queued,
    /// Source read in flight.
    Reading,
    /// Destination write in flight.
    Writing,
}

powadapt_snap::codec! { enum MigrationPhase { 0 => Queued, 1 => Reading, 2 => Writing } }

/// One extent move, from enqueue to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Engine-wide move id, never reused.
    pub id: u64,
    /// Extent being moved.
    pub extent: u64,
    /// Flat device index of the replica being vacated.
    pub from: u32,
    /// Flat device index of the new replica.
    pub to: u32,
    /// Device offset of the extent's data (pre-clamp).
    pub offset: u64,
    /// Bytes to move.
    pub len: u64,
    /// Current phase.
    pub phase: MigrationPhase,
}

powadapt_snap::snapshot! { value Migration { id, extent, from, to, offset, len, phase } }

impl Migration {
    /// The device of the move's current leg: the source while reading,
    /// the destination while writing, none while queued.
    pub fn leg_device(&self) -> Option<u32> {
        match self.phase {
            MigrationPhase::Queued => None,
            MigrationPhase::Reading => Some(self.from),
            MigrationPhase::Writing => Some(self.to),
        }
    }
}

impl Keyed for Migration {
    fn key(&self) -> u64 {
        self.id
    }
}

/// The deterministic move queue + token allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationEngine {
    /// Every unfinished move, by id. The queued ones await a start in id
    /// order, which is enqueue order.
    moves: BTreeMap<u64, Migration>,
    /// Started moves whose current leg no device has taken yet, oldest
    /// first: a fresh move's source read, a finished read's destination
    /// write, or a leg a device refused.
    legs: VecDeque<u64>,
    /// Next move id to assign.
    next_id: u64,
    /// Sustained migration rate in bytes/second; 0 disables migration.
    rate_bps: u64,
    /// Allowance cap: at most this many unspent bytes accumulate.
    burst_bytes: u64,
    /// Cumulative bytes charged against the allowance.
    spent_bytes: u64,
    /// Cap on concurrently started moves.
    max_active: usize,
    /// Moves committed, lifetime.
    completed: u64,
}

impl MigrationEngine {
    /// A new engine with the given rate limit and concurrency cap.
    pub fn new(rate_bps: u64, burst_bytes: u64, max_active: usize) -> Self {
        MigrationEngine {
            moves: BTreeMap::new(),
            legs: VecDeque::new(),
            next_id: 0,
            rate_bps,
            burst_bytes,
            spent_bytes: 0,
            max_active,
            completed: 0,
        }
    }

    /// Bytes of allowance available at `now`.
    fn available(&self, now: SimTime) -> u64 {
        let allowance =
            (u128::from(self.rate_bps) * u128::from(now.as_nanos()) / 1_000_000_000) as u64;
        allowance
            .saturating_sub(self.spent_bytes)
            .min(self.burst_bytes)
    }

    /// Enqueues a move and returns its id.
    pub fn enqueue(&mut self, extent: u64, from: u32, to: u32, offset: u64, len: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.moves.insert(
            id,
            Migration {
                id,
                extent,
                from,
                to,
                offset,
                len,
                phase: MigrationPhase::Queued,
            },
        );
        id
    }

    /// True when any unfinished move touches device `dev` as source or
    /// destination — such a device must not be parked in standby.
    pub fn busy(&self, dev: u32) -> bool {
        self.moves.values().any(|m| m.from == dev || m.to == dev)
    }

    /// True when an extent already has an unfinished move (no double
    /// moves of the same extent).
    pub fn moving(&self, extent: u64) -> bool {
        self.moves.values().any(|m| m.extent == extent)
    }

    /// Starts every queued move the allowance, the concurrency cap, and
    /// the per-device gate permit, in enqueue order, and queues their
    /// source reads as legs; returns the started move ids. Moves whose
    /// endpoints `allowed` rejects stay queued in order for a later round
    /// (breaker-cap coordination).
    pub fn start_ready(&mut self, now: SimTime, allowed: &[bool]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut budget = self.available(now);
        let gate_ok = |d: u32| allowed.get(d as usize).copied().unwrap_or(false);
        let mut active = self.moves().filter(|m| m.leg_device().is_some()).count();
        for m in self.moves.values_mut() {
            if active >= self.max_active || budget == 0 {
                break;
            }
            if m.phase != MigrationPhase::Queued
                || !gate_ok(m.from)
                || !gate_ok(m.to)
                || m.len > budget
            {
                continue;
            }
            budget -= m.len;
            self.spent_bytes += m.len;
            active += 1;
            m.phase = MigrationPhase::Reading;
            self.legs.push_back(m.id);
            out.push(m.id);
        }
        out
    }

    /// The in-flight leg of move `id` completed. A finished source read
    /// queues the destination write and returns `None`; a finished
    /// destination write removes the move and returns it, for the caller
    /// to commit. `None` too for unknown or queued ids.
    pub fn leg_done(&mut self, id: u64) -> Option<Migration> {
        let m = self.moves.get_mut(&id)?;
        match m.phase {
            MigrationPhase::Queued => None,
            MigrationPhase::Reading => {
                m.phase = MigrationPhase::Writing;
                self.legs.push_back(id);
                None
            }
            MigrationPhase::Writing => {
                self.completed += 1;
                self.moves.remove(&id)
            }
        }
    }

    /// Takes the oldest leg awaiting a device: its move, whose phase
    /// names the leg. A caller whose device refuses it hands it back with
    /// [`defer_leg`](Self::defer_leg).
    pub fn pop_leg(&mut self) -> Option<Migration> {
        let id = self.legs.pop_front()?;
        self.moves.get(&id).copied()
    }

    /// Re-queues move `id`'s leg behind every other waiting leg.
    pub fn defer_leg(&mut self, id: u64) {
        self.legs.push_back(id);
    }

    /// The moves whose leg awaits a device, oldest first.
    pub fn legs(&self) -> &VecDeque<u64> {
        &self.legs
    }

    /// Unfinished moves (queued + in flight).
    pub fn pending(&self) -> usize {
        self.moves.len()
    }

    /// The unfinished move with `id`, if any.
    pub fn get(&self, id: u64) -> Option<&Migration> {
        self.moves.get(&id)
    }

    /// Iterates every unfinished move in id order.
    pub fn moves(&self) -> impl Iterator<Item = &Migration> {
        self.moves.values()
    }

    /// Moves started over the engine's lifetime: the committed ones and
    /// those in flight.
    pub fn started(&self) -> u64 {
        self.completed + self.moves().filter(|m| m.leg_device().is_some()).count() as u64
    }

    /// Moves committed over the engine's lifetime.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

// rate_bps / burst_bytes / max_active are spec-derived and are serialized
// anyway so a resume cannot silently run under a different rate than the
// run that wrote the checkpoint.
powadapt_snap::snapshot! {
    MigrationEngine {
        rate_bps,
        burst_bytes,
        max_active,
        next_id,
        spent_bytes,
        completed,
        moves: with(ById),
        legs,
    }
    after restore_moves
}

impl MigrationEngine {
    /// Every move id is below `next_id`, and each leg awaiting a device
    /// belongs to a distinct move in flight.
    fn restore_moves(&mut self) -> Result<(), SnapError> {
        if let Some(m) = self.moves.values().find(|m| m.id >= self.next_id) {
            return Err(SnapError::InvalidValue(format!(
                "migration id {} is not below next_id {}",
                m.id, self.next_id
            )));
        }
        let mut seen = BTreeSet::new();
        let in_flight = |id| self.get(id).and_then(Migration::leg_device).is_some();
        match self
            .legs
            .iter()
            .find(|&&id| !seen.insert(id) || !in_flight(id))
        {
            Some(id) => Err(SnapError::InvalidValue(format!(
                "migration leg of move {id}: the move is unknown, queued, or has two legs"
            ))),
            None => Ok(()),
        }
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

    fn engine() -> MigrationEngine {
        MigrationEngine::new(1_000, 2_000, 2)
    }

    const ALL: &[bool] = &[true; 8];

    #[test]
    fn rate_limit_defers_moves() {
        let mut e = engine();
        e.enqueue(0, 0, 1, 0, 1_000);
        e.enqueue(1, 0, 1, 0, 1_000);
        // At t=1s the allowance is 1000 bytes: exactly one move starts.
        let t1 = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        let started = e.start_ready(t1, ALL);
        assert_eq!(started.len(), 1);
        let leg = e.pop_leg().unwrap();
        assert_eq!(leg.phase, MigrationPhase::Reading);
        assert_eq!(leg.leg_device(), Some(0));
        assert_eq!(e.pending(), 2);
        // A second later the other move's bytes have accrued.
        let t2 = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(2);
        assert_eq!(e.start_ready(t2, ALL).len(), 1);
    }

    #[test]
    fn burst_clamp_prevents_storms() {
        let mut e = engine();
        for i in 0..10 {
            e.enqueue(i, 0, 1, 0, 1_000);
        }
        // Hours of idle allowance, but the burst cap holds it to 2000
        // bytes (and max_active to 2 moves anyway).
        let late = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(3_600);
        assert_eq!(e.start_ready(late, ALL).len(), 2);
    }

    #[test]
    fn gated_endpoints_stay_queued_in_order() {
        let mut e = engine();
        let a = e.enqueue(0, 3, 1, 0, 100);
        let b = e.enqueue(1, 0, 1, 0, 100);
        let mut allowed = vec![true; 8];
        allowed[3] = false;
        let t = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        assert_eq!(e.start_ready(t, &allowed), [b]);
        allowed[3] = true;
        assert_eq!(e.start_ready(t, &allowed), [a]);
        // Their source reads wait in start order.
        assert_eq!(e.pop_leg().unwrap().id, b);
        assert_eq!(e.pop_leg().unwrap().id, a);
    }

    #[test]
    fn full_lifecycle_and_counters() {
        let mut e = engine();
        let id = e.enqueue(7, 0, 1, 4096, 100);
        let t = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        assert_eq!(e.start_ready(t, ALL), [id]);
        assert!(e.busy(0) && e.busy(1) && !e.busy(2));
        assert!(e.moving(7));
        assert_eq!(e.pop_leg().unwrap().leg_device(), Some(0));
        assert!(e.leg_done(id).is_none());
        let wr = e.pop_leg().unwrap();
        assert_eq!(wr.phase, MigrationPhase::Writing);
        assert_eq!(wr.leg_device(), Some(1));
        assert_eq!(wr.offset, 4096);
        assert!(e.legs().is_empty());
        let done = e.leg_done(id).unwrap();
        assert_eq!(done.extent, 7);
        assert_eq!((e.started(), e.completed()), (1, 1));
        assert_eq!(e.pending(), 0);
        assert!(!e.busy(0));
    }

    /// `e` through a snapshot into a fresh engine.
    fn restored(e: &MigrationEngine) -> Result<MigrationEngine, SnapError> {
        let mut w = SnapWriter::new();
        e.write_state(&mut w)?;
        let payload = w.into_payload();
        let mut fresh = MigrationEngine::new(0, 0, 0);
        let mut r = SnapReader::new(&payload);
        fresh.read_state(&mut r)?;
        r.finish()?;
        Ok(fresh)
    }

    #[test]
    fn snapshot_roundtrip_mid_move() {
        let mut e = engine();
        let id = e.enqueue(0, 0, 1, 0, 500);
        e.enqueue(1, 2, 3, 0, 500);
        let t = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        let _ = e.start_ready(t, ALL);
        let _ = e.pop_leg();
        let _ = e.leg_done(id);
        assert_eq!(restored(&e).unwrap(), e);
    }

    #[test]
    fn restore_rejects_inconsistent_queue() {
        let mut e = engine();
        let started = e.enqueue(0, 0, 1, 0, 500);
        let queued = e.enqueue(1, 2, 3, 0, 500);
        e.max_active = 1;
        let t = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        assert_eq!(e.start_ready(t, ALL), [started]);
        for (legs, ok) in [
            (&[started][..], true),
            // A device holds the leg.
            (&[], true),
            (&[queued], false),
            (&[99], false),
            (&[started, started], false),
        ] {
            e.legs = legs.iter().copied().collect();
            assert_eq!(restored(&e).is_ok(), ok, "{legs:?}");
        }
    }
}
