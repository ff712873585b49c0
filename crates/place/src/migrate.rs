//! The background migration engine: a deterministic, rate-limited queue
//! of extent moves.
//!
//! A *move* relocates one extent replica: read the extent off the source
//! device, write it to the destination, then commit the holder change in
//! the catalog. The engine owns the move lifecycle and the rate limit;
//! the cluster layer issues the actual IOs through the fleet runner and
//! reports completions back, so migration traffic shares queues, power,
//! and breaker caps with tenant IO instead of bypassing them.
//!
//! Rate limiting is a token allowance computed from absolute sim time:
//! `allowance(t) = rate_bps * t / 1s`, with `spent` bytes charged as moves
//! start. Because the allowance is a pure function of `t` and `spent` is
//! snapshotted, a restored run admits exactly the moves the straight run
//! would have. Unused allowance is clamped to one `burst_bytes` window so
//! a long-idle engine cannot unleash a migration storm.

use std::collections::BTreeMap;
use std::collections::VecDeque;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Keyed for Migration {
    fn key(&self) -> u64 {
        self.id
    }
}

/// One migration IO the cluster layer must issue on the engine's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationIo {
    /// The move this IO belongs to.
    pub migration: u64,
    /// Flat device index to submit against.
    pub dev: u32,
    /// True for the destination write, false for the source read.
    pub write: bool,
    /// Device offset (pre-clamp).
    pub offset: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

powadapt_snap::codec! { MigrationIo { migration, dev, write, offset, len } }

/// The deterministic move queue + token allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationEngine {
    /// Move ids awaiting start, in enqueue order.
    queue: VecDeque<u64>,
    /// Every unfinished move (queued or in flight), by id.
    moves: BTreeMap<u64, Migration>,
    /// Next move id to assign.
    next_id: u64,
    /// Sustained migration rate in bytes/second; 0 disables migration.
    rate_bps: u64,
    /// Allowance cap: at most this many unspent bytes accumulate.
    burst_bytes: u64,
    /// Cumulative bytes charged against the allowance.
    spent_bytes: u64,
    /// Moves with an IO currently in flight.
    inflight: usize,
    /// Cap on concurrently in-flight moves.
    max_active: usize,
    /// Moves started, lifetime.
    started: u64,
    /// Moves committed, lifetime.
    completed: u64,
}

impl MigrationEngine {
    /// A new engine with the given rate limit and concurrency cap.
    pub fn new(rate_bps: u64, burst_bytes: u64, max_active: usize) -> Self {
        MigrationEngine {
            queue: VecDeque::new(),
            moves: BTreeMap::new(),
            next_id: 0,
            rate_bps,
            burst_bytes,
            spent_bytes: 0,
            inflight: 0,
            max_active,
            started: 0,
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
        self.queue.push_back(id);
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
    /// the per-device gate permit, in enqueue order; returns the source
    /// reads to issue. Moves whose endpoints `allowed` rejects stay
    /// queued in order for a later round (breaker-cap coordination).
    pub fn start_ready(&mut self, now: SimTime, allowed: &[bool]) -> Vec<MigrationIo> {
        let mut out = Vec::new();
        let mut budget = self.available(now);
        let mut deferred: VecDeque<u64> = VecDeque::new();
        while let Some(id) = self.queue.pop_front() {
            if self.inflight >= self.max_active || budget == 0 {
                deferred.push_back(id);
                continue;
            }
            let Some(m) = self.moves.get_mut(&id) else {
                continue;
            };
            let gate_ok = |d: u32| allowed.get(d as usize).copied().unwrap_or(false);
            if !gate_ok(m.from) || !gate_ok(m.to) || m.len > budget {
                deferred.push_back(id);
                continue;
            }
            budget -= m.len;
            self.spent_bytes += m.len;
            self.inflight += 1;
            self.started += 1;
            m.phase = MigrationPhase::Reading;
            out.push(MigrationIo {
                migration: id,
                dev: m.from,
                write: false,
                offset: m.offset,
                len: m.len,
            });
        }
        self.queue = deferred;
        out
    }

    /// The source read of move `id` completed: returns the destination
    /// write to issue. `None` for unknown or out-of-phase ids.
    pub fn read_done(&mut self, id: u64) -> Option<MigrationIo> {
        let m = self.moves.get_mut(&id)?;
        if m.phase != MigrationPhase::Reading {
            return None;
        }
        m.phase = MigrationPhase::Writing;
        Some(MigrationIo {
            migration: id,
            dev: m.to,
            write: true,
            offset: m.offset,
            len: m.len,
        })
    }

    /// The destination write of move `id` completed: the move is done and
    /// removed; the caller commits the holder change. `None` for unknown
    /// or out-of-phase ids.
    pub fn write_done(&mut self, id: u64) -> Option<Migration> {
        if self.moves.get(&id)?.phase != MigrationPhase::Writing {
            return None;
        }
        let m = self.moves.remove(&id)?;
        self.inflight -= 1;
        self.completed += 1;
        Some(m)
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

    /// Moves started over the engine's lifetime.
    pub fn started(&self) -> u64 {
        self.started
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
        inflight,
        started,
        completed,
        moves: with(ById),
        queue,
    }
    after restore_queue
}

impl MigrationEngine {
    /// Every move id is below `next_id`, the queue holds exactly the
    /// queued moves, and the in-flight count matches the rest.
    fn restore_queue(&mut self) -> Result<(), SnapError> {
        if let Some(m) = self.moves.values().find(|m| m.id >= self.next_id) {
            return Err(SnapError::InvalidValue(format!(
                "migration id {} is not below next_id {}",
                m.id, self.next_id
            )));
        }
        for &id in &self.queue {
            if !self
                .moves
                .get(&id)
                .is_some_and(|m| m.phase == MigrationPhase::Queued)
            {
                return Err(SnapError::InvalidValue(format!(
                    "queued migration id {id} is unknown or not in the queued phase"
                )));
            }
        }
        let queued = self
            .moves
            .values()
            .filter(|m| m.phase == MigrationPhase::Queued)
            .count();
        let live = self.moves.len() - queued;
        if queued != self.queue.len() || live != self.inflight {
            return Err(SnapError::InvalidValue(format!(
                "migration phase accounting mismatch: {queued} queued vs queue len {}, \
                 {live} in flight vs recorded {}",
                self.queue.len(),
                self.inflight
            )));
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
        assert!(!started[0].write);
        assert_eq!(started[0].dev, 0);
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
        let started = e.start_ready(t, &allowed);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].migration, b);
        allowed[3] = true;
        let started = e.start_ready(t, &allowed);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].migration, a);
    }

    #[test]
    fn full_lifecycle_and_counters() {
        let mut e = engine();
        let id = e.enqueue(7, 0, 1, 4096, 100);
        let t = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        assert_eq!(e.start_ready(t, ALL).len(), 1);
        assert!(e.busy(0) && e.busy(1) && !e.busy(2));
        assert!(e.moving(7));
        let wr = e.read_done(id).unwrap();
        assert!(wr.write);
        assert_eq!(wr.dev, 1);
        assert_eq!(wr.offset, 4096);
        assert!(e.read_done(id).is_none());
        let done = e.write_done(id).unwrap();
        assert_eq!(done.extent, 7);
        assert_eq!((e.started(), e.completed()), (1, 1));
        assert_eq!(e.pending(), 0);
        assert!(!e.busy(0));
    }

    #[test]
    fn snapshot_roundtrip_mid_move() {
        let mut e = engine();
        let id = e.enqueue(0, 0, 1, 0, 500);
        e.enqueue(1, 2, 3, 0, 500);
        let t = SimTime::ZERO + powadapt_sim::SimDuration::from_secs(1);
        let _ = e.start_ready(t, ALL);
        let _ = e.read_done(id);
        let mut w = SnapWriter::new();
        e.write_state(&mut w).unwrap();
        let payload = w.into_payload();
        let mut fresh = MigrationEngine::new(0, 0, 0);
        let mut r = SnapReader::new(&payload);
        fresh.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh, e);
    }

    #[test]
    fn restore_rejects_inconsistent_queue() {
        let mut e = engine();
        e.enqueue(0, 0, 1, 0, 500);
        let mut w = SnapWriter::new();
        e.write_state(&mut w).unwrap();
        let mut payload = w.into_payload();
        // Flip the queued id to an unknown one (last 8 bytes).
        let n = payload.len();
        payload[n - 8] = 0xFF;
        let mut fresh = MigrationEngine::new(0, 0, 0);
        let mut r = SnapReader::new(&payload);
        assert!(fresh.read_state(&mut r).is_err());
    }
}
