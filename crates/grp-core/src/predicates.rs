//! The specification predicates of the Dynamic Group Service problem.
//!
//! Section 3 of the paper defines five predicates. On single configurations:
//!
//! * **ΠA (agreement)** — the views define a partition into disjoint
//!   subgraphs: `u, v` are in the same block iff `view_u = view_v` = that
//!   block;
//! * **ΠS (safety)** — every group `Ω_v` is connected and its diameter in
//!   the group-induced subgraph is at most `Dmax`;
//! * **ΠM (maximality)** — no two distinct groups could be merged without
//!   violating ΠS.
//!
//! On pairs of successive configurations:
//!
//! * **ΠT (topological)** — every pair of nodes that were in the same group
//!   is still within `Dmax` hops *inside the old group*, in the new
//!   topology;
//! * **ΠC (continuity)** — no node disappears from any group:
//!   `Ω_v(c_i) ⊆ Ω_v(c_{i+1})`.
//!
//! The best-effort requirement the paper proves (Prop. 14) is `ΠT ⇒ ΠC`;
//! experiment E4 checks it on every consecutive pair of snapshots.

use crate::node::GrpNode;
use dyngraph::algo::subgraph::{subgraph_diameter, subgraph_distance};
use dyngraph::{Graph, NodeId, Partition};
use netsim::{Simulator, ViewProtocol};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The historical name of the view capability, kept as an alias so existing
/// bounds (`P: Protocol + GroupMembership`) keep compiling. The trait itself
/// now lives in `netsim` as [`ViewProtocol`], where the generic observer
/// pipeline can see it.
pub use netsim::ViewProtocol as GroupMembership;

impl ViewProtocol for GrpNode {
    fn view(&self) -> &BTreeSet<NodeId> {
        GrpNode::view(self)
    }
}

/// A global snapshot of one configuration: the topology and every node's
/// view at that instant.
///
/// Both the graph and the per-node views are behind `Arc`s: snapshots of
/// consecutive rounds share whatever did not change, so retaining the full
/// history of a run (the observer pipeline's `SnapshotRecorder`) costs
/// pointer clones once the system has converged, not a deep copy per round.
/// The predicate checkers read through the `Arc`s transparently.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSnapshot {
    pub topology: Arc<Graph>,
    pub views: BTreeMap<NodeId, Arc<BTreeSet<NodeId>>>,
}

impl SystemSnapshot {
    /// Build from explicit (owned) views.
    pub fn new(topology: impl Into<Arc<Graph>>, views: BTreeMap<NodeId, BTreeSet<NodeId>>) -> Self {
        SystemSnapshot {
            topology: topology.into(),
            views: views.into_iter().map(|(id, v)| (id, Arc::new(v))).collect(),
        }
    }

    /// Build from already-shared parts (the zero-copy constructor the
    /// observer pipeline uses).
    pub fn from_shared(
        topology: Arc<Graph>,
        views: BTreeMap<NodeId, Arc<BTreeSet<NodeId>>>,
    ) -> Self {
        SystemSnapshot { topology, views }
    }

    /// Capture the current configuration of a simulator running any
    /// [`ViewProtocol`] protocol.
    ///
    /// **Snapshot semantics (unified):** only *active* nodes contribute a
    /// view. A crashed or departed node has no view in the paper's model,
    /// so its frozen protocol state must not enter the predicate checks.
    /// (Historically the experiment harness captured all nodes while the
    /// scenario runner captured active ones; every capture path now goes
    /// through this rule.) The topology handle is shared with the
    /// simulator, not cloned.
    pub fn from_simulator<P>(sim: &Simulator<P>) -> Self
    where
        P: ViewProtocol,
    {
        let views = sim
            .protocols()
            .filter(|&(id, _)| sim.is_active(id))
            .map(|(id, p)| (id, Arc::new(p.current_view())))
            .collect();
        SystemSnapshot {
            topology: sim.topology_shared(),
            views,
        }
    }

    /// The nodes of this configuration.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.views.keys().copied()
    }

    /// The group `Ω_v` of the paper: the view when the node belongs to it
    /// and every member agrees on it, the singleton `{v}` otherwise.
    pub fn omega(&self, v: NodeId) -> BTreeSet<NodeId> {
        let singleton = || [v].into_iter().collect::<BTreeSet<NodeId>>();
        let Some(view) = self.views.get(&v) else {
            return singleton();
        };
        if !view.contains(&v) {
            return singleton();
        }
        for member in view.iter() {
            match self.views.get(member) {
                Some(other) if other == view => {}
                _ => return singleton(),
            }
        }
        (**view).clone()
    }

    /// The distinct groups `{Ω_v}` of the configuration.
    pub fn groups(&self) -> Vec<BTreeSet<NodeId>> {
        let mut groups: Vec<BTreeSet<NodeId>> = Vec::new();
        let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
        for v in self.nodes() {
            if assigned.contains(&v) {
                continue;
            }
            let omega = self.omega(v);
            for m in &omega {
                assigned.insert(*m);
            }
            groups.push(omega);
        }
        groups
    }

    /// The groups as a [`Partition`] (useful for metrics).
    pub fn partition(&self) -> Partition {
        Partition::from_blocks(self.groups())
    }

    /// **ΠA**: every node belongs to its own view and all quoted members
    /// share exactly the same view (and exist).
    pub fn agreement(&self) -> bool {
        for (v, view) in &self.views {
            if !view.contains(v) {
                return false;
            }
            for member in view.iter() {
                match self.views.get(member) {
                    Some(other) if other == view => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// **ΠS**: every group is connected with diameter at most `dmax` in the
    /// subgraph it induces on the topology.
    pub fn safety(&self, dmax: usize) -> bool {
        self.nodes().all(|v| self.node_is_safe(v, dmax))
    }

    /// The per-node ΠS condition (shared by the sequential and parallel
    /// evaluations).
    fn node_is_safe(&self, v: NodeId, dmax: usize) -> bool {
        let omega = self.omega(v);
        match subgraph_diameter(&self.topology, &omega) {
            Some(d) => d <= dmax,
            // a singleton containing only a node absent from the
            // topology (e.g. a crashed node's ghost) has no diameter;
            // treat the trivial singleton as safe
            None => omega.len() <= 1,
        }
    }

    /// **ΠM**: for every pair of distinct groups, merging them would create
    /// a pair of nodes farther apart than `dmax` inside the merged subgraph.
    pub fn maximality(&self, dmax: usize) -> bool {
        let groups = self.groups();
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let union: BTreeSet<NodeId> = groups[i].union(&groups[j]).copied().collect();
                if !self.union_violates_diameter(&union, dmax) {
                    return false;
                }
            }
        }
        true
    }

    fn union_violates_diameter(&self, union: &BTreeSet<NodeId>, dmax: usize) -> bool {
        // ∃ x, y ∈ union : d_union(x, y) > Dmax (None = +∞ counts as a
        // violation, e.g. the union is disconnected).
        let members: Vec<NodeId> = union.iter().copied().collect();
        for (idx, &x) in members.iter().enumerate() {
            for &y in &members[idx + 1..] {
                match subgraph_distance(&self.topology, union, x, y) {
                    Some(d) if d <= dmax => {}
                    _ => return true,
                }
            }
        }
        false
    }

    /// The legitimacy predicate of the Dynamic Group Service:
    /// `ΠA ∧ ΠS ∧ ΠM`.
    pub fn legitimate(&self, dmax: usize) -> bool {
        self.agreement() && self.safety(dmax) && self.maximality(dmax)
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.groups().len()
    }

    /// Mean group size.
    pub fn mean_group_size(&self) -> f64 {
        let groups = self.groups();
        if groups.is_empty() {
            return 0.0;
        }
        groups.iter().map(|g| g.len()).sum::<usize>() as f64 / groups.len() as f64
    }

    /// Largest group diameter measured in the current topology
    /// (`None` when some group is disconnected).
    pub fn max_group_diameter(&self) -> Option<usize> {
        let mut max_d = 0;
        for g in self.groups() {
            if g.len() <= 1 {
                continue;
            }
            match subgraph_diameter(&self.topology, &g) {
                Some(d) => max_d = max_d.max(d),
                None => return None,
            }
        }
        Some(max_d)
    }
}

/// **ΠT** on a pair of successive configurations: for every node, the
/// members of its *old* group are still pairwise within `dmax` hops in the
/// *new* topology, using only members of the old group as relays.
pub fn pi_t(prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize) -> bool {
    pi_t_violations(prev, next, dmax) == 0
}

/// Number of nodes whose old group violates the ΠT condition in the new
/// topology.
pub fn pi_t_violations(prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize) -> usize {
    prev.nodes()
        .filter(|&v| pi_t_violated_at(prev, next, dmax, v))
        .count()
}

/// Does `v`'s old group violate the ΠT condition in the new topology?
fn pi_t_violated_at(prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize, v: NodeId) -> bool {
    let omega = prev.omega(v);
    if omega.len() <= 1 {
        return false;
    }
    let members: Vec<NodeId> = omega.iter().copied().collect();
    for (i, &x) in members.iter().enumerate() {
        for &y in &members[i + 1..] {
            match subgraph_distance(&next.topology, &omega, x, y) {
                Some(d) if d <= dmax => {}
                _ => return true,
            }
        }
    }
    false
}

/// **ΠC** on a pair of successive configurations: no node disappears from
/// any group (`Ω_v(c_i) ⊆ Ω_v(c_{i+1})` for every `v`).
pub fn pi_c(prev: &SystemSnapshot, next: &SystemSnapshot) -> bool {
    pi_c_violations(prev, next) == 0
}

/// Number of nodes whose group lost at least one member between the two
/// configurations.
pub fn pi_c_violations(prev: &SystemSnapshot, next: &SystemSnapshot) -> usize {
    prev.nodes()
        .filter(|&v| {
            let before = prev.omega(v);
            let after = next.omega(v);
            !before.is_subset(&after)
        })
        .count()
}

/// Total number of (node, lost member) pairs between two configurations —
/// the "view churn" metric of experiment E5.
pub fn view_removals(prev: &SystemSnapshot, next: &SystemSnapshot) -> usize {
    prev.views
        .iter()
        .map(|(v, before)| match next.views.get(v) {
            Some(after) => before.difference(after).count(),
            None => before.len(),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn views(spec: &[(u64, &[u64])]) -> BTreeMap<NodeId, BTreeSet<NodeId>> {
        spec.iter()
            .map(|&(v, members)| (n(v), members.iter().map(|&m| n(m)).collect()))
            .collect()
    }

    fn snap(topology: Graph, spec: &[(u64, &[u64])]) -> SystemSnapshot {
        SystemSnapshot::new(topology, views(spec))
    }

    #[test]
    fn agreement_holds_for_consistent_views() {
        let s = snap(
            path(4),
            &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2, 3]), (3, &[2, 3])],
        );
        assert!(s.agreement());
        assert_eq!(s.group_count(), 2);
        assert_eq!(s.omega(n(0)), [n(0), n(1)].into_iter().collect());
    }

    #[test]
    fn agreement_fails_on_disagreeing_views() {
        let s = snap(path(3), &[(0, &[0, 1]), (1, &[1]), (2, &[2])]);
        assert!(!s.agreement());
        // the omega of 0 falls back to a singleton
        assert_eq!(s.omega(n(0)), [n(0)].into_iter().collect());
    }

    #[test]
    fn agreement_fails_when_node_missing_from_own_view() {
        let s = snap(path(2), &[(0, &[1]), (1, &[1])]);
        assert!(!s.agreement());
    }

    #[test]
    fn agreement_fails_when_view_quotes_nonexistent_node() {
        let s = snap(path(2), &[(0, &[0, 1, 9]), (1, &[0, 1, 9])]);
        assert!(!s.agreement());
    }

    #[test]
    fn safety_checks_group_diameter() {
        // path 0-1-2-3, both pairs grouped: diameters 1, fine for dmax 1
        let s = snap(
            path(4),
            &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2, 3]), (3, &[2, 3])],
        );
        assert!(s.safety(1));
        // one group of all four nodes: diameter 3
        let s = snap(
            path(4),
            &[
                (0, &[0, 1, 2, 3]),
                (1, &[0, 1, 2, 3]),
                (2, &[0, 1, 2, 3]),
                (3, &[0, 1, 2, 3]),
            ],
        );
        assert!(s.safety(3));
        assert!(!s.safety(2));
    }

    #[test]
    fn safety_rejects_disconnected_group() {
        // group {0, 2} has no internal edge on a path 0-1-2
        let s = snap(path(3), &[(0, &[0, 2]), (1, &[1]), (2, &[0, 2])]);
        assert!(!s.safety(5));
    }

    #[test]
    fn maximality_detects_mergeable_groups() {
        // path 0-1-2-3 with singleton groups everywhere: 0 and 1 could merge
        let s = snap(path(4), &[(0, &[0]), (1, &[1]), (2, &[2]), (3, &[3])]);
        assert!(!s.maximality(2));
        // whole path in one group: nothing left to merge
        let s = snap(
            path(4),
            &[
                (0, &[0, 1, 2, 3]),
                (1, &[0, 1, 2, 3]),
                (2, &[0, 1, 2, 3]),
                (3, &[0, 1, 2, 3]),
            ],
        );
        assert!(s.maximality(3));
        assert!(s.legitimate(3));
    }

    #[test]
    fn maximality_holds_when_groups_are_far_apart() {
        // path of 6, dmax 1: {0,1} and {4,5} cannot merge (distance), {2,3}
        // adjacent to both but any merge exceeds diameter 1
        let s = snap(
            path(6),
            &[
                (0, &[0, 1]),
                (1, &[0, 1]),
                (2, &[2, 3]),
                (3, &[2, 3]),
                (4, &[4, 5]),
                (5, &[4, 5]),
            ],
        );
        assert!(s.maximality(1));
        assert!(s.legitimate(1));
    }

    #[test]
    fn pi_t_and_pi_c_on_a_link_removal() {
        let before = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        // after: the link 1-2 disappears, 2 is unreachable within the group
        let mut broken = path(3);
        broken.remove_edge(n(1), n(2));
        let after_topology_only =
            SystemSnapshot::from_shared(Arc::new(broken.clone()), before.views.clone());
        assert!(!pi_t(&before, &after_topology_only, 2));
        assert!(pi_t_violations(&before, &after_topology_only, 2) > 0);

        // the protocol reacts by shrinking the views → ΠC is violated, which
        // is allowed because ΠT was violated first
        let after = snap(broken, &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2])]);
        assert!(!pi_c(&before, &after));
        assert_eq!(pi_c_violations(&before, &after), 3);
        // nodes 0 and 1 each lose member 2, node 2 loses members 0 and 1
        assert_eq!(view_removals(&before, &after), 4);
    }

    #[test]
    fn pi_t_holds_when_topology_change_preserves_distances() {
        let before = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        // adding a chord never hurts
        let mut richer = path(3);
        richer.add_edge(n(0), n(2));
        let after = SystemSnapshot::from_shared(Arc::new(richer), before.views.clone());
        assert!(pi_t(&before, &after, 2));
        assert!(pi_c(&before, &after));
        assert_eq!(view_removals(&before, &after), 0);
    }

    #[test]
    fn group_statistics() {
        let s = snap(
            path(4),
            &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2, 3]), (3, &[2, 3])],
        );
        assert_eq!(s.group_count(), 2);
        assert!((s.mean_group_size() - 2.0).abs() < 1e-12);
        assert_eq!(s.max_group_diameter(), Some(1));
        assert!(s.partition().is_partition_of(&s.topology));
    }
}
