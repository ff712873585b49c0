//! Power-tree fault windows: breaker trips at *node* scope.
//!
//! [`FaultInjector`](powadapt_device::FaultInjector) perturbs a single
//! device; real outages take out whole subtrees — a rack breaker trips, a
//! row goes dark for maintenance, a region fails over. A
//! [`TreeFaultWindow`] schedules exactly that: the named tree node loses
//! its feed over `[from, until)`, every enclosure under it goes
//! unroutable, and the rebalance must fail closed — shed the load, keep
//! every surviving node under its cap, and recover when the feed returns.
//!
//! [`TreeFaultSchedule`] is the state machine the cluster simulation
//! drives: it resolves window paths to [`NodeId`]s once, exposes the next
//! transition time for the event loop's time-step computation, and yields
//! each trip/restore exactly once. The schedule itself is pure phase
//! bookkeeping — the simulation layer owns the side effects (standby
//! requests, routability, re-plans) and the obs emissions
//! ([`EventKind::BreakerTrip`](powadapt_obs::EventKind::BreakerTrip) /
//! [`BreakerRestore`](powadapt_obs::EventKind::BreakerRestore)), so the
//! machinery is reusable by any driver over a [`PowerTree`].

use powadapt_sim::SimTime;
use powadapt_snap::{restore_len, Codec, SnapError, SnapReader, SnapWriter, WireWith};

use crate::tree::{NodeId, PowerTree};

/// A scheduled loss of feed for one power-tree node over `[from, until)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeFaultWindow {
    /// Slash-separated path of the node, as [`PowerTree::path`] renders it
    /// (`cluster/row0/rack1`).
    pub node: String,
    /// When the breaker trips (inclusive).
    pub from: SimTime,
    /// When the feed is restored (exclusive end of the outage).
    pub until: SimTime,
}

powadapt_snap::codec! { TreeFaultWindow { node, from, until } }

/// Lifecycle of one window: each transition fires exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The trip has not fired yet.
    Pending,
    /// The node is dark; the restore has not fired yet.
    Tripped,
    /// Both transitions have fired.
    Done,
}

powadapt_snap::codec! { enum Phase { 0 => Pending, 1 => Tripped, 2 => Done } }

/// One transition yielded by [`TreeFaultSchedule::due`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeFaultEvent {
    /// The window's node lost its feed.
    Trip(NodeId),
    /// The window's node got its feed back.
    Restore(NodeId),
}

/// The resolved, steppable schedule over a set of [`TreeFaultWindow`]s.
#[derive(Debug, Clone)]
pub struct TreeFaultSchedule {
    windows: Vec<TreeFaultWindow>,
    nodes: Vec<NodeId>,
    phase: Vec<Phase>,
}

/// Wire form of the phases: each paired with the window it tracks, so a
/// checkpoint from a different fault schedule cannot silently re-time an
/// outage. Restore checks each window against the spec's and overwrites
/// only the phase.
struct PhasedWindows;

impl WireWith<Vec<Phase>, Vec<TreeFaultWindow>> for PhasedWindows {
    fn encode(
        phase: &Vec<Phase>,
        windows: &Vec<TreeFaultWindow>,
        w: &mut SnapWriter,
    ) -> Result<(), SnapError> {
        w.seq_len(phase.len());
        for (p, fw) in phase.iter().zip(windows) {
            p.encode(w);
            fw.encode(w);
        }
        Ok(())
    }

    fn restore(
        phase: &mut Vec<Phase>,
        windows: &Vec<TreeFaultWindow>,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        restore_len(r, windows.len(), "tree fault window")?;
        for (i, (p, want)) in phase.iter_mut().zip(windows).enumerate() {
            let got_phase = Phase::decode(r)?;
            let got = TreeFaultWindow::decode(r)?;
            if got != *want {
                return Err(SnapError::InvalidValue(format!(
                    "tree fault window {i} mismatch: snapshot {} [{:?}, {:?}), spec {} [{:?}, {:?})",
                    got.node, got.from, got.until, want.node, want.from, want.until
                )));
            }
            *p = got_phase;
        }
        Ok(())
    }
}

powadapt_snap::snapshot! {
    TreeFaultSchedule { phase: with(PhasedWindows, windows) }
    skip {
        windows: "spec config; the checkpoint's copy is checked against it",
        nodes: "derived: node ids resolved from the window paths",
    }
}

impl TreeFaultSchedule {
    /// Resolves each window's node path against `tree` and validates the
    /// windows.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown path or empty window.
    pub fn resolve(tree: &PowerTree, windows: Vec<TreeFaultWindow>) -> Result<Self, String> {
        let mut nodes = Vec::with_capacity(windows.len());
        for fw in &windows {
            if fw.from >= fw.until {
                return Err(format!(
                    "tree fault window on {} is empty ({:?} >= {:?})",
                    fw.node, fw.from, fw.until
                ));
            }
            let id = tree
                .node_ids()
                .find(|&id| tree.path(id) == fw.node)
                .ok_or_else(|| format!("tree fault names unknown node {}", fw.node))?;
            nodes.push(id);
        }
        let phase = vec![Phase::Pending; windows.len()];
        Ok(TreeFaultSchedule {
            windows,
            nodes,
            phase,
        })
    }

    /// True when no windows are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The earliest un-fired transition time, if any. Event loops fold
    /// this into their next-time computation so a trip or restore lands on
    /// an iteration of its own exact timestamp.
    pub fn next_transition(&self) -> Option<SimTime> {
        self.windows
            .iter()
            .zip(&self.phase)
            .filter_map(|(fw, p)| match p {
                Phase::Pending => Some(fw.from),
                Phase::Tripped => Some(fw.until),
                Phase::Done => None,
            })
            .min()
    }

    /// Fires every transition due at or before `t`, in window order, each
    /// exactly once. A window whose whole span is already past yields its
    /// trip and restore in the same call, in order.
    pub fn due(&mut self, t: SimTime) -> Vec<TreeFaultEvent> {
        let mut out = Vec::new();
        for i in 0..self.windows.len() {
            if self.phase[i] == Phase::Pending && t >= self.windows[i].from {
                self.phase[i] = Phase::Tripped;
                out.push(TreeFaultEvent::Trip(self.nodes[i]));
            }
            if self.phase[i] == Phase::Tripped && t >= self.windows[i].until {
                self.phase[i] = Phase::Done;
                out.push(TreeFaultEvent::Restore(self.nodes[i]));
            }
        }
        out
    }

    /// True while some tripped window covers `node` (the window names the
    /// node itself or one of its ancestors).
    pub fn is_down(&self, tree: &PowerTree, node: NodeId) -> bool {
        self.nodes.iter().zip(&self.phase).any(|(&fault_node, p)| {
            *p == Phase::Tripped
                && (fault_node == node || tree.ancestors(node).contains(&fault_node))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;
    use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};

    fn tree() -> PowerTree {
        let mut t = PowerTree::root("cluster", NodeKind::Cluster, 30.0, 1.0);
        let row = t.add_child(t.root_id(), "row0", NodeKind::Row, 30.0, 1.0);
        let rack = t.add_child(row, "rack0", NodeKind::Rack, 15.0, 1.0);
        t.add_child(rack, "enc0", NodeKind::Enclosure, 15.0, 1.0);
        t
    }

    fn window(from_ms: u64, until_ms: u64) -> TreeFaultWindow {
        TreeFaultWindow {
            node: "cluster/row0/rack0".into(),
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
        }
    }

    #[test]
    fn resolve_rejects_unknown_nodes_and_empty_windows() {
        let t = tree();
        let bad_node = TreeFaultWindow {
            node: "cluster/row9".into(),
            from: SimTime::ZERO,
            until: SimTime::from_millis(1),
        };
        assert!(TreeFaultSchedule::resolve(&t, vec![bad_node]).is_err());
        assert!(TreeFaultSchedule::resolve(&t, vec![window(5, 5)]).is_err());
    }

    #[test]
    fn transitions_fire_once_in_order() {
        let t = tree();
        let mut s = TreeFaultSchedule::resolve(&t, vec![window(10, 20)]).unwrap();
        let rack = NodeId(2);
        assert_eq!(s.next_transition(), Some(SimTime::from_millis(10)));
        assert!(s.due(SimTime::from_millis(5)).is_empty());
        assert_eq!(
            s.due(SimTime::from_millis(10)),
            vec![TreeFaultEvent::Trip(rack)]
        );
        assert!(s.is_down(&t, rack));
        // The enclosure under the rack is down too; the row is not.
        assert!(s.is_down(&t, NodeId(3)));
        assert!(!s.is_down(&t, NodeId(1)));
        assert_eq!(s.next_transition(), Some(SimTime::from_millis(20)));
        assert_eq!(
            s.due(SimTime::from_millis(25)),
            vec![TreeFaultEvent::Restore(rack)]
        );
        assert!(!s.is_down(&t, rack));
        assert_eq!(s.next_transition(), None);
        assert!(s.due(SimTime::from_millis(30)).is_empty());
    }

    #[test]
    fn skipped_window_yields_both_transitions_in_one_call() {
        let t = tree();
        let mut s = TreeFaultSchedule::resolve(&t, vec![window(10, 20)]).unwrap();
        let rack = NodeId(2);
        assert_eq!(
            s.due(SimTime::from_millis(50)),
            vec![TreeFaultEvent::Trip(rack), TreeFaultEvent::Restore(rack)]
        );
    }

    #[test]
    fn phases_roundtrip_and_mismatched_windows_fail_closed() {
        let t = tree();
        let mut s = TreeFaultSchedule::resolve(&t, vec![window(10, 20)]).unwrap();
        s.due(SimTime::from_millis(12));
        let mut w = SnapWriter::new();
        s.write_state(&mut w).unwrap();
        let payload = w.into_payload();

        let mut fresh = TreeFaultSchedule::resolve(&t, vec![window(10, 20)]).unwrap();
        let mut r = SnapReader::new(&payload);
        fresh.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert!(fresh.is_down(&t, NodeId(2)));

        // A schedule with different timing rejects the snapshot.
        let mut other = TreeFaultSchedule::resolve(&t, vec![window(10, 30)]).unwrap();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            other.read_state(&mut r),
            Err(SnapError::InvalidValue(_))
        ));
    }
}
