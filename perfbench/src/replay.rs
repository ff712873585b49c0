//! Isolated replays of the layers `ClusterSim` calls but does not expose:
//! placement routing and ticks, tree rebalance, and controller re-plans.
//!
//! Each replay drives only public functions, with inputs the workload
//! itself generates: the cell's own spec, its tenant streams, and the
//! rebalance decisions its traced run emitted.

use powadapt_cluster::{fleet_floor_w, ClusterSpec, Demand, NodeKind, PlacementTier, TenantStream};
use powadapt_core::AdaptiveController;
use powadapt_device::{DeviceClass, IoKind};
use powadapt_obs::RebalanceDecision;
use powadapt_place::DeviceSlot;
use powadapt_sim::SimRng;

use crate::cluster::CellId;
use crate::timing::{elapsed_ns, now};

/// Host time and calls of a placement replay.
#[derive(Debug, Default)]
pub struct PlaceReplay {
    pub route_calls: u64,
    pub route_ns: u64,
    pub ticks: u64,
    pub tick_ns: u64,
}

/// The placement tier's device table, derived from the spec the way the
/// cluster derives it: rack ordinal, capacity, and HDDs as cold targets.
fn slots(spec: &ClusterSpec) -> Vec<DeviceSlot> {
    let tree = &spec.tree;
    let leaves = tree.leaves();
    let racks: Vec<_> = tree
        .node_ids()
        .filter(|&id| tree.kind(id) == NodeKind::Rack)
        .collect();
    let mut slots = Vec::new();
    for (e, (enc, &leaf)) in spec.enclosures.iter().zip(&leaves).enumerate() {
        let rack = racks
            .iter()
            .position(|&r| r == leaf || tree.ancestors(leaf).contains(&r))
            .map_or(e as u32, |p| p as u32);
        for d in &enc.devices {
            slots.push(DeviceSlot {
                rack,
                capacity: d.spec().capacity(),
                cold_target: d.spec().class() == DeviceClass::Hdd,
            });
        }
    }
    slots
}

/// Replays `cell`'s tenant arrivals through a fresh `PlacementTier`,
/// ticking it on the control cadence, and times every call.
pub fn place(cell: CellId) -> Result<PlaceReplay, String> {
    let spec = cell.spec();
    let cfg = spec
        .placement
        .clone()
        .ok_or("the cell has no placement tier")?;
    let mut tier = PlacementTier::new(cfg, slots(&spec));
    let start = spec.enclosures[0].devices[0].now();
    let end = start + spec.duration;
    let mut streams = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            TenantStream::new(t, spec.duration, SimRng::stream_seed(spec.seed, i as u64))
                .map(Iterator::peekable)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let allowed = vec![true; tier.used().len()];
    let mut next_tick = start + spec.control_interval;
    let mut holders = Vec::new();
    let mut out = PlaceReplay::default();
    loop {
        // Arrivals merge in (time, tenant) order; an arrival due at a
        // tick is admitted before the tick, as in the cluster's step.
        let due = streams
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.peek().map(|a| (start.max(a.at), i)))
            .min()
            .filter(|&(at, _)| at < end);
        match due {
            Some((at, tenant)) if at <= next_tick || next_tick >= end => {
                let Some(a) = streams[tenant].next() else {
                    break;
                };
                let t0 = now();
                match a.kind {
                    IoKind::Write => {
                        std::hint::black_box(tier.route_write(tenant as u32, a.offset, a.len, at));
                    }
                    IoKind::Read => {
                        std::hint::black_box(tier.read_holders(
                            tenant as u32,
                            a.offset,
                            a.len,
                            at,
                            &mut holders,
                        ));
                    }
                }
                out.route_ns += elapsed_ns(t0);
                out.route_calls += 1;
            }
            _ if next_tick < end => {
                let t0 = now();
                std::hint::black_box(tier.tick(next_tick, &allowed));
                out.tick_ns += elapsed_ns(t0);
                out.ticks += 1;
                next_tick += spec.control_interval;
            }
            _ => break,
        }
    }
    Ok(out)
}

/// Host time and calls of a tree + controller replay.
#[derive(Debug, Default)]
pub struct TreeReplay {
    pub rounds: u64,
    pub rebalance_ns: u64,
    /// Whether every replayed grant equals the run's, bit for bit.
    pub grants_match: bool,
    pub apply_calls: u64,
    pub apply_ns: u64,
}

/// Replays `cell`'s control rounds: rebuilds each round's leaf demands
/// from the run's rebalance decisions, rebalances the cell's tree on
/// them, and re-plans a fresh copy of each enclosure's controller
/// whenever the cluster would (a grant moved by more than 0.05 W, or the
/// enclosure's feed came back).
pub fn tree_core(cell: CellId, decisions: &[RebalanceDecision]) -> Result<TreeReplay, String> {
    let ClusterSpec {
        tree,
        enclosures,
        planning_margin,
        ..
    } = cell.spec();
    let n = tree.len();
    if decisions.is_empty() || !decisions.len().is_multiple_of(n) {
        return Err(format!(
            "{} decisions do not split into rounds of {n} nodes",
            decisions.len()
        ));
    }
    let leaves = tree.leaves();
    let floors: Vec<f64> = enclosures
        .iter()
        .map(|e| fleet_floor_w(&e.models))
        .collect();
    let mut controllers = enclosures
        .into_iter()
        .map(|e| AdaptiveController::new(e.devices, e.models))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut last: Vec<Option<f64>> = vec![None; leaves.len()];
    let mut out = TreeReplay {
        grants_match: true,
        ..TreeReplay::default()
    };
    for round in decisions.chunks(n) {
        // A dark enclosure reports no demand at all; a live one at least
        // its floor.
        let demands: Vec<Demand> = leaves
            .iter()
            .zip(&floors)
            .map(|(leaf, &floor_w)| {
                let want_w = round[leaf.0].demand_w;
                if want_w > 0.0 {
                    Demand { floor_w, want_w }
                } else {
                    Demand {
                        floor_w: 0.0,
                        want_w: 0.0,
                    }
                }
            })
            .collect();
        let t0 = now();
        let grants = tree
            .rebalance(&demands, planning_margin)
            .map_err(|e| e.to_string())?;
        out.rebalance_ns += elapsed_ns(t0);
        out.rounds += 1;
        out.grants_match &= grants
            .iter()
            .zip(round)
            .all(|(g, d)| g.granted_w.to_bits() == d.granted_w.to_bits());
        for (e, leaf) in leaves.iter().enumerate() {
            if demands[e].want_w <= 0.0 {
                last[e] = None;
                continue;
            }
            let granted_w = grants[leaf.0].granted_w;
            if last[e].is_some_and(|prev| (prev - granted_w).abs() <= 0.05) {
                continue;
            }
            let t0 = now();
            let applied = controllers[e].apply_budget(granted_w);
            out.apply_ns += elapsed_ns(t0);
            out.apply_calls += 1;
            if applied.is_ok() {
                last[e] = Some(granted_w);
            }
        }
    }
    Ok(out)
}
