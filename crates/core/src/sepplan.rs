//! Constraint-aware separation planning for legalization.
//!
//! Legalizers derive pairwise separation constraints ("a left of b") from a
//! global placement's geometry. Done naively, those directions can
//! contradict the analog equality constraints:
//!
//! - a mirrored pair has equal y, so two y-separations through a third
//!   device are transitively infeasible;
//! - members of one vertical symmetry group satisfy `x_a + x_b = 2m`, so an
//!   x-separation between group members implies the **mirrored** separation
//!   between their partners;
//! - ordering chains pre-impose directions that raw geometry may violate.
//!
//! [`SeparationPlanner`] makes the derived set sound by construction:
//! devices tied by equalities are merged into per-axis clusters, separations
//! are directed edges between clusters in a DAG (edges are only added when
//! no opposite path exists), ordering chains seed the DAG, and same-group
//! edges propagate their mirror image. Every edge also enters the DAG
//! reflected through each symmetry axis of its direction, so a chain that
//! orders two group members through a non-member (which implies the
//! mirrored order of their partners) is checked against the rest.

use std::collections::HashMap;

use analog_netlist::{AlignKind, Axis, Circuit, DeviceId, OrderDirection, Placement};

/// A planned separation: `a` must end at or before `b` starts on the axis.
pub type SepEdge = (DeviceId, DeviceId);

#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// One axis of the planner: equality clusters plus a separation DAG.
#[derive(Debug, Clone)]
struct AxisPlan {
    clusters: UnionFind,
    /// Per symmetry group acting on this axis (`x_a + x_a' = 2m`), each
    /// device's mirror partner: itself when self-symmetric, `None` when
    /// not a member.
    mirrors: Vec<Vec<Option<DeviceId>>>,
    /// Node-level adjacency: edges `u → v` meaning u ends before v starts.
    /// Nodes `0..n` are cluster roots; node `n·(g+1) + c` is cluster `c`
    /// reflected through group `g`'s axis (`2m − x`), for non-members.
    /// Device-level edges retained for emission.
    adj: HashMap<usize, Vec<usize>>,
    edges: Vec<SepEdge>,
}

impl AxisPlan {
    fn new(n: usize) -> Self {
        Self {
            clusters: UnionFind::new(n),
            mirrors: Vec::new(),
            adj: HashMap::new(),
            edges: Vec::new(),
        }
    }

    /// The node standing for group `g`'s reflection of `d`: the partner's
    /// cluster for members, a per-group copy of `d`'s cluster otherwise.
    fn reflection(&mut self, d: DeviceId, g: usize) -> usize {
        match self.mirrors[g][d.index()] {
            Some(p) => self.clusters.find(p.index()),
            None => self.mirrors[g].len() * (g + 1) + self.clusters.find(d.index()),
        }
    }

    fn cluster(&mut self, d: DeviceId) -> usize {
        self.clusters.find(d.index())
    }

    fn has_path(&mut self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut visited = vec![from];
        while let Some(u) = stack.pop() {
            if let Some(nexts) = self.adj.get(&u) {
                for &v in nexts.clone().iter() {
                    if v == to {
                        return true;
                    }
                    if !visited.contains(&v) {
                        visited.push(v);
                        stack.push(v);
                    }
                }
            }
        }
        false
    }

    /// Adds the separation `a → b` and, when both are members of one
    /// symmetry group, its mirror image `b' → a'`: a logical consequence
    /// of `x_a + x_a' = 2m`, emitted so its own gap becomes a row too.
    /// Returns success (see [`add_edges`](Self::add_edges)).
    fn add_separation(&mut self, a: DeviceId, b: DeviceId) -> bool {
        let mirrored = self
            .mirrors
            .iter()
            .find_map(|m| match (m[a.index()], m[b.index()]) {
                (Some(ma), Some(mb)) if (mb, ma) != (a, b) => Some((mb, ma)),
                _ => None,
            });
        match mirrored {
            Some(m) => self.add_edges(&[(a, b), m]),
            None => self.add_edges(&[(a, b)]),
        }
    }

    /// Adds device-level edges `a → b` as one transaction, each with its
    /// reflection through every symmetry axis of this plan (`x_a < x_b`
    /// ⇔ `2m − x_b < 2m − x_a`). Returns `true` when all of them (or
    /// equivalent paths) now exist; refuses, adding nothing, when one
    /// would close a cycle (the same cluster, or the opposite direction
    /// already forced), i.e. contradict the equalities.
    fn add_edges(&mut self, pairs: &[SepEdge]) -> bool {
        let mut dag = Vec::new();
        for &(a, b) in pairs {
            dag.push((self.cluster(a), self.cluster(b)));
            for g in 0..self.mirrors.len() {
                let (ra, rb) = (self.reflection(a, g), self.reflection(b, g));
                dag.push((rb, ra));
            }
        }
        let mut added: Vec<(usize, usize)> = Vec::new();
        for (u, v) in dag {
            if self.has_path(v, u) {
                for (u, v) in added.into_iter().rev() {
                    let list = self.adj.get_mut(&u).expect("added above");
                    let pos = list.iter().rposition(|&w| w == v).expect("added above");
                    list.remove(pos);
                }
                return false;
            }
            // An existing path already implies the edge; the device edge
            // is still emitted below for tightness.
            if !self.has_path(u, v) {
                self.adj.entry(u).or_default().push(v);
                added.push((u, v));
            }
        }
        for &e in pairs {
            if !self.edges.contains(&e) {
                self.edges.push(e);
            }
        }
        true
    }

    /// Whether the pair is already forced apart (a path exists either way).
    /// Retained for invariants testing; production paths always materialize
    /// explicit device edges instead.
    #[cfg_attr(not(test), allow(dead_code))]
    fn separated(&mut self, a: DeviceId, b: DeviceId) -> bool {
        let (ca, cb) = (self.cluster(a), self.cluster(b));
        ca != cb && (self.has_path(ca, cb) || self.has_path(cb, ca))
    }
}

/// Mirror partner of every device in one symmetry group (see
/// [`AxisPlan::mirrors`]).
fn group_mirrors(
    n: usize,
    pairs: &[(DeviceId, DeviceId)],
    selfs: &[DeviceId],
) -> Vec<Option<DeviceId>> {
    let mut mirror = vec![None; n];
    for &(a, b) in pairs {
        mirror[a.index()] = Some(b);
        mirror[b.index()] = Some(a);
    }
    for &s in selfs {
        mirror[s.index()] = Some(s);
    }
    mirror
}

/// Plans separation constraints that are consistent with a circuit's
/// symmetry, alignment and ordering constraints.
///
/// # Examples
///
/// ```
/// use analog_netlist::{testcases, Placement};
/// use eplace::SeparationPlanner;
///
/// let circuit = testcases::cc_ota();
/// let mut planner = SeparationPlanner::new(&circuit);
/// let stacked = Placement::new(circuit.num_devices());
/// let added = planner.extend_from(&circuit, &stacked);
/// assert!(added);
/// // Every planned edge respects the symmetry/ordering structure.
/// let (x_edges, y_edges) = (planner.x_edges(), planner.y_edges());
/// assert!(!x_edges.is_empty() || !y_edges.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SeparationPlanner {
    x: AxisPlan,
    y: AxisPlan,
}

impl SeparationPlanner {
    /// Builds the planner: equality clusters from the constraint set plus
    /// ordering-chain seed edges.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_devices();
        let mut x = AxisPlan::new(n);
        let mut y = AxisPlan::new(n);
        for g in &circuit.constraints().symmetry_groups {
            // A vertical axis mirrors x and ties each pair's y; a
            // horizontal one the other way round.
            let (mirrored, tied) = match g.axis {
                Axis::Vertical => (&mut x, &mut y),
                Axis::Horizontal => (&mut y, &mut x),
            };
            mirrored
                .mirrors
                .push(group_mirrors(n, &g.pairs, &g.self_symmetric));
            for &(a, b) in &g.pairs {
                tied.clusters.union(a.index(), b.index());
            }
            // Self-symmetric devices share the mirrored coordinate (= the
            // axis).
            for w in g.self_symmetric.windows(2) {
                mirrored.clusters.union(w[0].index(), w[1].index());
            }
        }
        for al in &circuit.constraints().alignments {
            match al.kind {
                AlignKind::Bottom => y.clusters.union(al.a.index(), al.b.index()),
                AlignKind::VerticalCenter => x.clusters.union(al.a.index(), al.b.index()),
            }
        }
        let mut planner = Self { x, y };
        for o in &circuit.constraints().orderings {
            for w in o.devices.windows(2) {
                match o.direction {
                    OrderDirection::Horizontal => {
                        planner.x.add_separation(w[0], w[1]);
                    }
                    OrderDirection::Vertical => {
                        planner.y.add_separation(w[0], w[1]);
                    }
                }
            }
        }
        planner
    }

    /// Derives separations for every overlapping pair of `placement`.
    /// Returns whether any new device-level edge was recorded.
    ///
    /// Pairs are never skipped because a cluster-level path already exists:
    /// such a path guarantees separation for *some* member pair but not
    /// necessarily for this one (extents differ within a cluster), so the
    /// explicit device edge — with this pair's own gap — is recorded too.
    pub fn extend_from(&mut self, circuit: &Circuit, placement: &Placement) -> bool {
        let before = self.x.edges.len() + self.y.edges.len();
        for (a, b) in placement.overlapping_pairs(circuit, 1e-9) {
            let (xa, ya) = placement.positions[a.index()];
            let (xb, yb) = placement.positions[b.index()];
            let da = circuit.device(a);
            let db = circuit.device(b);
            let dx = (da.width + db.width) / 2.0 - (xa - xb).abs();
            let dy = (da.height + db.height) / 2.0 - (ya - yb).abs();
            let same_y_cluster = {
                let (ca, cb) = (self.y.cluster(a), self.y.cluster(b));
                ca == cb
            };
            let same_x_cluster = {
                let (ca, cb) = (self.x.cluster(a), self.x.cluster(b));
                ca == cb
            };
            let prefer_x = if same_y_cluster {
                true
            } else if same_x_cluster {
                false
            } else {
                dx < dy
            };
            if prefer_x {
                let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                let _ = self.x.add_separation(l, r) || self.x.add_separation(r, l) || {
                    let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                    self.y.add_separation(l, r) || self.y.add_separation(r, l)
                };
            } else {
                let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                let _ = self.y.add_separation(l, r) || self.y.add_separation(r, l) || {
                    let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                    self.x.add_separation(l, r) || self.x.add_separation(r, l)
                };
            }
        }
        self.x.edges.len() + self.y.edges.len() > before
    }

    /// Derives a **complete** relative-order constraint set: one edge for
    /// every device pair, using each pair's current geometric relation
    /// (the axis where they are most separated). This reproduces the
    /// ISPD'19 baseline's constraint-graph construction, which fixes the
    /// relative order of *all* pairs from global placement — more
    /// conservative than separating only overlapping pairs, and one of the
    /// reasons that method trails ePlace-A in solution quality.
    pub fn extend_all_pairs(&mut self, circuit: &Circuit, placement: &Placement) {
        let n = circuit.num_devices();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (DeviceId::new(i), DeviceId::new(j));
                let (xa, ya) = placement.positions[i];
                let (xb, yb) = placement.positions[j];
                let da = circuit.device(a);
                let db = circuit.device(b);
                // Signed overlaps: negative = already separated.
                let dx = (da.width + db.width) / 2.0 - (xa - xb).abs();
                let dy = (da.height + db.height) / 2.0 - (ya - yb).abs();
                let same_y = self.y.cluster(a) == self.y.cluster(b);
                let same_x = self.x.cluster(a) == self.x.cluster(b);
                let prefer_x = if same_y {
                    true
                } else if same_x {
                    false
                } else {
                    dx < dy
                };
                if prefer_x {
                    let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                    let _ = self.x.add_separation(l, r) || self.x.add_separation(r, l) || {
                        let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                        self.y.add_separation(l, r) || self.y.add_separation(r, l)
                    };
                } else {
                    let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                    let _ = self.y.add_separation(l, r) || self.y.add_separation(r, l) || {
                        let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                        self.x.add_separation(l, r) || self.x.add_separation(r, l)
                    };
                }
            }
        }
    }

    /// The planned x separations (`a` left of `b`).
    pub fn x_edges(&self) -> &[SepEdge] {
        &self.x.edges
    }

    /// The planned y separations (`a` below `b`).
    pub fn y_edges(&self) -> &[SepEdge] {
        &self.y.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn planner_never_y_separates_mirrored_pairs() {
        let c = testcases::cc_ota();
        let mut planner = SeparationPlanner::new(&c);
        let stacked = Placement::new(c.num_devices());
        planner.extend_from(&c, &stacked);
        for g in &c.constraints().symmetry_groups {
            for &(a, b) in &g.pairs {
                for &(u, v) in planner.y_edges() {
                    assert!(
                        !((u == a && v == b) || (u == b && v == a)),
                        "mirrored pair {}-{} got a y separation",
                        c.device(a).name,
                        c.device(b).name
                    );
                }
            }
        }
    }

    #[test]
    fn ordering_edges_are_seeded_and_respected() {
        let c = testcases::cm_ota1();
        let mut planner = SeparationPlanner::new(&c);
        // Ordering chain p1o, p1d, p2d, p2o must appear as x edges.
        let order = &c.constraints().orderings[0];
        for w in order.devices.windows(2) {
            assert!(
                planner.x_edges().contains(&(w[0], w[1])),
                "ordering edge missing"
            );
        }
        // No placement can make the planner contradict the chain.
        let stacked = Placement::new(c.num_devices());
        planner.extend_from(&c, &stacked);
        for w in order.devices.windows(2) {
            assert!(!planner.x_edges().contains(&(w[1], w[0])));
        }
    }

    #[test]
    fn x_edges_between_group_members_propagate_mirrors() {
        let c = testcases::cc_ota();
        let mut planner = SeparationPlanner::new(&c);
        // Find two pairs of the "core" group.
        let g = &c.constraints().symmetry_groups[0];
        let (a1, b1) = g.pairs[0];
        let (a2, b2) = g.pairs[1];
        let mut p = Placement::new(c.num_devices());
        // Overlap a1 with a2 horizontally offset so an x-sep is chosen.
        p.positions[a1.index()] = (0.0, 0.0);
        p.positions[a2.index()] = (0.4, 0.0);
        // Move everything else far away.
        for i in 0..c.num_devices() {
            let id = analog_netlist::DeviceId::new(i);
            if id != a1 && id != a2 {
                p.positions[i] = (100.0 + 10.0 * i as f64, 100.0);
            }
        }
        planner.extend_from(&c, &p);
        let has = |edges: &[SepEdge], e: SepEdge| edges.contains(&e);
        if has(planner.x_edges(), (a1, a2)) {
            assert!(
                has(planner.x_edges(), (b2, b1)),
                "mirror edge b2->b1 missing"
            );
        }
    }

    #[test]
    fn chains_through_non_members_respect_mirror_images() {
        // CM-OTA1's ordering chain seeds MP1O < MP1D < MP2D, so MP1D sits
        // left of the core axis. With MINB < MINA (MINA right of the
        // axis), MINA < MP1O would put MINA left of MP1D: infeasible
        // through the mirror, though no single edge joins two members.
        let c = testcases::cm_ota1();
        let id = |name: &str| c.device_ids().find(|(_, d)| d.name == name).unwrap().0;
        let mut planner = SeparationPlanner::new(&c);
        assert!(planner.x.add_separation(id("MINB"), id("MINA")));
        assert!(!planner.x.add_separation(id("MINA"), id("MP1O")));
        assert!(planner.x.add_separation(id("MP1O"), id("MINA")));
        assert!(!planner.x_edges().contains(&(id("MINA"), id("MP1O"))));
    }

    #[test]
    fn repeated_extension_reaches_fixpoint() {
        let c = testcases::comp2();
        let mut planner = SeparationPlanner::new(&c);
        let stacked = Placement::new(c.num_devices());
        let mut rounds = 0;
        while planner.extend_from(&c, &stacked) {
            rounds += 1;
            assert!(rounds < 20, "planner did not reach a fixpoint");
        }
        // After the fixpoint every overlapping pair is separated or tied in
        // both axes (which would be a modelling error in the testcase).
        let mut p2 = planner.clone();
        for (a, b) in stacked.overlapping_pairs(&c, 1e-9) {
            assert!(
                p2.x.separated(a, b) || p2.y.separated(a, b),
                "{} / {} unseparated",
                c.device(a).name,
                c.device(b).name
            );
        }
    }
}
