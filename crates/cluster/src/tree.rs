//! The power-distribution tree: cluster → row → rack → enclosure.
//!
//! Each node carries a physical power cap and an oversubscription ratio.
//! The ratio is the provisioning contract of real datacenter power
//! delivery: a node may *advertise* `cap_w × oversub` to its children —
//! their nameplate caps can sum past the parent's physical cap — because
//! in practice they never peak together. The tree's job is to keep that
//! bet safe: every control round, leaf demands flow up, budget grants
//! cascade down, and no node is ever granted more than its own cap.
//!
//! The rebalance pass is two sweeps of pure arithmetic:
//!
//! 1. **Up**: each leaf reports a [`Demand`] — the floor it cannot operate
//!    below and the budget it could fully use. Interior nodes sum their
//!    children, clamping the want at their (margined) cap.
//! 2. **Down**: each node first covers every child's floor, then splits the
//!    remaining pool proportionally to the children's wants above floor.
//!    Because the upward pass clamped every want at its node's cap, the
//!    proportional split can never over-grant a child, so a single pass
//!    suffices — no iterative water-filling.
//!
//! Everything is plain `f64` arithmetic over vectors in node-creation
//! order: byte-identical results at any worker count.

use std::error::Error;
use std::fmt;

/// Index of a node within its [`PowerTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Level of a node in the hierarchy. The grant arithmetic is uniform; the
/// kind names the level in paths, traces, and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The root of the tree.
    Cluster,
    /// A row of racks.
    Row,
    /// A rack of enclosures.
    Rack,
    /// A leaf enclosure — the unit an adaptive controller manages.
    Enclosure,
}

impl NodeKind {
    /// Lower-case level name, as used in trace tracks and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::Cluster => "cluster",
            NodeKind::Row => "row",
            NodeKind::Rack => "rack",
            NodeKind::Enclosure => "enclosure",
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    cap_w: f64,
    oversub: f64,
    parent: Option<usize>,
    children: Vec<usize>,
}

/// A leaf's power request for the next control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// The lowest budget the leaf can operate at (its controller's floor:
    /// every device at its cheapest configuration).
    pub floor_w: f64,
    /// The budget the leaf would fully use given its current backlog.
    /// Clamped to `floor_w` from below during rebalance.
    pub want_w: f64,
}

/// Per-node outcome of one rebalance round, indexed by [`NodeId`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// The node's physical cap, in watts.
    pub cap_w: f64,
    /// Aggregated want of the node's subtree, in watts (post-clamping).
    pub demand_w: f64,
    /// Budget granted to the node this round, in watts.
    pub granted_w: f64,
}

/// Rebalance failures — all of them configuration problems, surfaced
/// instead of panicking so the simulation layer can report them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TreeError {
    /// A subtree's aggregate floor exceeds a node's planning cap: the
    /// hardware mix cannot run under this tree at any grant.
    FloorExceedsCap {
        /// Path of the offending node.
        node: String,
        /// Aggregate floor of the node's subtree, in watts.
        floor_w: f64,
        /// The node's planning cap (physical cap × margin), in watts.
        cap_w: f64,
    },
    /// The demand slice does not line up with the tree's leaves.
    DemandCountMismatch {
        /// Number of leaves in the tree.
        leaves: usize,
        /// Number of demands supplied.
        demands: usize,
    },
    /// A child's cap exceeds what its parent advertises even with
    /// oversubscription — the tree is misconfigured.
    Overcommitted {
        /// Path of the parent node.
        node: String,
        /// Sum of the children's caps, in watts.
        child_caps_w: f64,
        /// The parent's advertised capacity (`cap_w × oversub`), in watts.
        advertised_w: f64,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::FloorExceedsCap {
                node,
                floor_w,
                cap_w,
            } => write!(
                f,
                "{node}: subtree floor {floor_w:.2} W exceeds planning cap {cap_w:.2} W"
            ),
            TreeError::DemandCountMismatch { leaves, demands } => write!(
                f,
                "tree has {leaves} leaves but {demands} demands were supplied"
            ),
            TreeError::Overcommitted {
                node,
                child_caps_w,
                advertised_w,
            } => write!(
                f,
                "{node}: child caps sum to {child_caps_w:.2} W, past the advertised {advertised_w:.2} W"
            ),
        }
    }
}

impl Error for TreeError {}

/// The power tree. Nodes are created root-first; leaves are the
/// enclosures the simulation attaches adaptive controllers to.
#[derive(Debug, Clone)]
pub struct PowerTree {
    nodes: Vec<Node>,
}

impl PowerTree {
    /// Creates a tree holding only its root.
    ///
    /// # Panics
    ///
    /// Panics if `cap_w` is not positive or `oversub < 1`.
    pub fn root(name: &str, kind: NodeKind, cap_w: f64, oversub: f64) -> Self {
        assert!(cap_w > 0.0, "cap must be positive");
        assert!(oversub >= 1.0, "oversubscription ratio must be >= 1");
        PowerTree {
            nodes: vec![Node {
                name: name.to_string(),
                kind,
                cap_w,
                oversub,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// Adds a child under `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range, `cap_w` is not positive, or
    /// `oversub < 1`.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        name: &str,
        kind: NodeKind,
        cap_w: f64,
        oversub: f64,
    ) -> NodeId {
        assert!(parent.0 < self.nodes.len(), "unknown parent node");
        assert!(cap_w > 0.0, "cap must be positive");
        assert!(oversub >= 1.0, "oversubscription ratio must be >= 1");
        let id = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
            cap_w,
            oversub,
            parent: Some(parent.0),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        NodeId(id)
    }

    /// The root's id.
    pub fn root_id(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree holds only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// All node ids, root-first in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The node's physical cap, in watts.
    pub fn cap_w(&self, n: NodeId) -> f64 {
        self.nodes[n.0].cap_w
    }

    /// The node's level.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0].kind
    }

    /// The capacity the node advertises to its children
    /// (`cap_w × oversub`), in watts.
    pub fn advertised_w(&self, n: NodeId) -> f64 {
        self.nodes[n.0].cap_w * self.nodes[n.0].oversub
    }

    /// Slash-separated path from the root (`cluster/row0/rack1/enc0`).
    pub fn path(&self, n: NodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(n.0);
        while let Some(i) = cur {
            parts.push(self.nodes[i].name.as_str());
            cur = self.nodes[i].parent;
        }
        parts.reverse();
        parts.join("/")
    }

    /// Leaf node ids (no children), in creation order. Demands passed to
    /// [`rebalance`](PowerTree::rebalance) are parallel to this order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .map(NodeId)
            .collect()
    }

    /// Ancestors of `n`, nearest first, ending at the root.
    pub fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[n.0].parent;
        while let Some(i) = cur {
            out.push(NodeId(i));
            cur = self.nodes[i].parent;
        }
        out
    }

    /// Checks the oversubscription contract: at every interior node, the
    /// children's caps must fit the advertised capacity.
    ///
    /// # Errors
    ///
    /// [`TreeError::Overcommitted`] for the first violating node.
    pub fn validate(&self) -> Result<(), TreeError> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.children.is_empty() {
                continue;
            }
            let child_caps_w: f64 = node.children.iter().map(|&c| self.nodes[c].cap_w).sum();
            let advertised_w = node.cap_w * node.oversub;
            if child_caps_w > advertised_w + 1e-9 {
                return Err(TreeError::Overcommitted {
                    node: self.path(NodeId(i)),
                    child_caps_w,
                    advertised_w,
                });
            }
        }
        Ok(())
    }

    /// One rebalance round: leaf demands flow up, grants cascade down.
    ///
    /// `demands` is parallel to [`leaves`](PowerTree::leaves). `margin` is
    /// the planning fraction of each physical cap (in `(0, 1]`): grants are
    /// planned against `cap_w × margin` so measured power — which carries
    /// device-level noise on top of the plan — stays under the physical
    /// cap. Returns a [`Grant`] per node, indexed by [`NodeId`].
    ///
    /// # Errors
    ///
    /// [`TreeError::DemandCountMismatch`] if the demand slice does not
    /// match the leaf count, [`TreeError::FloorExceedsCap`] if some
    /// subtree cannot operate under its planning cap.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is outside `(0, 1]`.
    pub fn rebalance(&self, demands: &[Demand], margin: f64) -> Result<Vec<Grant>, TreeError> {
        assert!(
            margin > 0.0 && margin <= 1.0,
            "planning margin must be in (0, 1]"
        );
        let leaves = self.leaves();
        if leaves.len() != demands.len() {
            return Err(TreeError::DemandCountMismatch {
                leaves: leaves.len(),
                demands: demands.len(),
            });
        }

        let n = self.nodes.len();
        let plan_cap = |i: usize| self.nodes[i].cap_w * margin;

        // Upward pass: aggregate (floor, want) per node. Children always
        // have larger indices than their parent (creation order), so a
        // reverse index scan visits children before parents.
        let mut floor = vec![0.0f64; n];
        let mut want = vec![0.0f64; n];
        for (leaf, d) in leaves.iter().zip(demands) {
            floor[leaf.0] = d.floor_w;
            want[leaf.0] = d.want_w.max(d.floor_w).min(plan_cap(leaf.0));
        }
        for i in (0..n).rev() {
            if !self.nodes[i].children.is_empty() {
                floor[i] = self.nodes[i].children.iter().map(|&c| floor[c]).sum();
                let sum_want: f64 = self.nodes[i].children.iter().map(|&c| want[c]).sum();
                want[i] = sum_want.min(plan_cap(i));
            }
            if floor[i] > plan_cap(i) + 1e-9 {
                return Err(TreeError::FloorExceedsCap {
                    node: self.path(NodeId(i)),
                    floor_w: floor[i],
                    cap_w: plan_cap(i),
                });
            }
        }

        // Downward pass: cover floors, then split the pool proportionally
        // to want-above-floor. Wants were clamped at their own planning
        // caps on the way up, so no child can be over-granted.
        let mut granted = vec![0.0f64; n];
        granted[0] = want[0].max(floor[0]).min(plan_cap(0));
        for i in 0..n {
            let children = &self.nodes[i].children;
            if children.is_empty() {
                continue;
            }
            let floors: f64 = children.iter().map(|&c| floor[c]).sum();
            let pool = (granted[i] - floors).max(0.0);
            let needs: f64 = children
                .iter()
                .map(|&c| (want[c] - floor[c]).max(0.0))
                .sum();
            for &c in children {
                let need = (want[c] - floor[c]).max(0.0);
                let extra = if needs <= 1e-12 || pool >= needs {
                    need
                } else {
                    pool * need / needs
                };
                granted[c] = floor[c] + extra;
            }
        }

        Ok((0..n)
            .map(|i| Grant {
                cap_w: self.nodes[i].cap_w,
                demand_w: want[i],
                granted_w: granted[i],
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rack_tree() -> (PowerTree, NodeId, NodeId) {
        let mut t = PowerTree::root("cluster", NodeKind::Cluster, 32.0, 1.0);
        let row = t.add_child(t.root_id(), "row0", NodeKind::Row, 32.0, 1.2);
        let r0 = t.add_child(row, "rack0", NodeKind::Rack, 12.0, 1.0);
        let r1 = t.add_child(row, "rack1", NodeKind::Rack, 22.0, 1.0);
        let e0 = t.add_child(r0, "enc0", NodeKind::Enclosure, 12.0, 1.0);
        let e1 = t.add_child(r1, "enc1", NodeKind::Enclosure, 22.0, 1.0);
        (t, e0, e1)
    }

    #[test]
    fn paths_and_leaves() {
        let (t, e0, e1) = two_rack_tree();
        assert_eq!(t.path(e0), "cluster/row0/rack0/enc0");
        assert_eq!(t.path(e1), "cluster/row0/rack1/enc1");
        assert_eq!(t.leaves(), vec![e0, e1]);
        assert_eq!(t.ancestors(e0).len(), 3);
        assert_eq!(t.kind(e0), NodeKind::Enclosure);
        assert!(!t.is_empty());
    }

    #[test]
    fn oversubscription_contract_is_validated() {
        let (t, _, _) = two_rack_tree();
        // row0 advertises 32 * 1.2 = 38.4 >= 12 + 22: the bet is declared.
        assert!(t.validate().is_ok());

        let mut bad = PowerTree::root("c", NodeKind::Cluster, 10.0, 1.0);
        bad.add_child(bad.root_id(), "a", NodeKind::Enclosure, 8.0, 1.0);
        bad.add_child(bad.root_id(), "b", NodeKind::Enclosure, 8.0, 1.0);
        assert!(matches!(
            bad.validate(),
            Err(TreeError::Overcommitted { .. })
        ));
    }

    #[test]
    fn grants_cover_floors_then_split_by_want() {
        let (t, _, _) = two_rack_tree();
        let demands = [
            Demand {
                floor_w: 8.9,
                want_w: 10.0,
            },
            Demand {
                floor_w: 19.0,
                want_w: 26.0,
            },
        ];
        let grants = t.rebalance(&demands, 1.0).unwrap();
        let leaves = t.leaves();
        let g0 = grants[leaves[0].0];
        let g1 = grants[leaves[1].0];
        // Floors covered, nothing above cap, total within the root cap.
        assert!(g0.granted_w >= 8.9 && g0.granted_w <= 12.0);
        assert!(g1.granted_w >= 19.0 && g1.granted_w <= 22.0);
        assert!(g0.granted_w + g1.granted_w <= 32.0 + 1e-9);
        // rack1 wants more above floor, so it gets the larger share.
        assert!(g1.granted_w - 19.0 > g0.granted_w - 8.9);
    }

    #[test]
    fn margin_shrinks_the_planning_caps() {
        let (t, _, _) = two_rack_tree();
        let demands = [
            Demand {
                floor_w: 5.0,
                want_w: 100.0,
            },
            Demand {
                floor_w: 5.0,
                want_w: 100.0,
            },
        ];
        let full = t.rebalance(&demands, 1.0).unwrap();
        let margined = t.rebalance(&demands, 0.875).unwrap();
        assert_eq!(full[0].granted_w, 32.0);
        assert_eq!(margined[0].granted_w, 28.0);
        // Every grant respects the margined cap.
        for id in t.node_ids() {
            let g = margined[id.0];
            assert!(g.granted_w <= g.cap_w * 0.875 + 1e-9, "{}", t.path(id));
        }
    }

    #[test]
    fn infeasible_floor_is_an_error() {
        let (t, _, _) = two_rack_tree();
        let demands = [
            Demand {
                floor_w: 20.0,
                want_w: 20.0,
            },
            Demand {
                floor_w: 19.0,
                want_w: 19.0,
            },
        ];
        assert!(matches!(
            t.rebalance(&demands, 1.0),
            Err(TreeError::FloorExceedsCap { .. })
        ));
        let wrong_count = [Demand {
            floor_w: 1.0,
            want_w: 1.0,
        }];
        assert!(matches!(
            t.rebalance(&wrong_count, 1.0),
            Err(TreeError::DemandCountMismatch { .. })
        ));
    }

    #[test]
    fn quiet_leaves_release_budget_to_busy_ones() {
        let (t, _, _) = two_rack_tree();
        let busy = t
            .rebalance(
                &[
                    Demand {
                        floor_w: 8.9,
                        want_w: 12.0,
                    },
                    Demand {
                        floor_w: 19.0,
                        want_w: 19.0,
                    },
                ],
                1.0,
            )
            .unwrap();
        let quiet = t
            .rebalance(
                &[
                    Demand {
                        floor_w: 8.9,
                        want_w: 8.9,
                    },
                    Demand {
                        floor_w: 19.0,
                        want_w: 19.0,
                    },
                ],
                1.0,
            )
            .unwrap();
        let leaves = t.leaves();
        assert!(busy[leaves[0].0].granted_w > quiet[leaves[0].0].granted_w);
        assert_eq!(quiet[leaves[0].0].granted_w, 8.9);
    }
}
