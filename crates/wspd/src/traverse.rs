//! The parallel WSPD traversal (Algorithm 1), resumable from a frontier.
//!
//! `WSPD(A)` recurses into both children in parallel and then runs
//! `FindPair(A_left, A_right)`; `FindPair(P, P')` either records a
//! well-separated pair or splits the node with the larger bounding sphere
//! and recurses on both halves in parallel.
//!
//! [`wspd_resume`] runs that recursion from a *frontier*: a list of open
//! states ([`OpenState`]) instead of the root alone. Three hooks steer it.
//! The node hook, evaluated on every `WSPD(A)` entry, expands the node or
//! drops it *and everything below it*. The pair hook, evaluated on every
//! `FindPair` entry, returns a [`Step`]: drop the pair and everything
//! below it, keep it unexpanded for the next frontier, or expand it. The
//! visit hook sees each well-separated pair reached and may keep it too,
//! carrying its BCCP endpoints. Kept states come back as the next
//! frontier. MemoGFK (Section 3.1.3) is built on it: each round's `GetRho`
//! and `GetPairs` walk only the frontier the previous `GetPairs` left,
//! never the whole tree again. [`wspd_traverse`] is the one-shot walk from
//! the root.

use parclust_kdtree::{KdTree, NodeId};
use parclust_primitives::collector::Collector;
use rayon::prelude::*;

use crate::policy::SeparationPolicy;

/// A well-separated pair of kd-tree nodes.
pub type NodePair = (NodeId, NodeId);

/// Below this combined size, `WSPD(A)` and `FindPair` recursion stays
/// sequential.
const PAIR_GRAIN: usize = 2048;

/// Frontier states walked as one sequential run: enough to amortize
/// handing the run's kept states to the shared collector, few enough that
/// a short frontier still spreads over the pool.
const RUN_STATES: usize = 16;

/// Marks an absent field of an [`OpenState`].
const NONE: u32 = u32::MAX;

/// One open state of a resumable traversal, 16 bytes. [`NONE`] marks an
/// absent field:
///
/// * `b` absent — the self-recursion `WSPD(a)` of node `a`;
/// * `u`, `v` absent — the unexpanded pair `FindPair(a, b)`;
/// * all present — the well-separated pair `(a, b)` with its BCCP
///   endpoints `(u, v)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenState {
    a: NodeId,
    b: NodeId,
    u: u32,
    v: u32,
}

impl OpenState {
    /// The self-recursion of node `a`.
    pub fn node(a: NodeId) -> Self {
        OpenState {
            a,
            b: NONE,
            u: NONE,
            v: NONE,
        }
    }

    /// The pair `(a, b)`, not yet expanded.
    pub fn pair(a: NodeId, b: NodeId) -> Self {
        OpenState {
            a,
            b,
            u: NONE,
            v: NONE,
        }
    }

    /// The well-separated pair `(a, b)` whose BCCP endpoints are `(u, v)`.
    pub fn separated(a: NodeId, b: NodeId, u: u32, v: u32) -> Self {
        OpenState { a, b, u, v }
    }

    /// The pair's two nodes. Not meaningful for a node state, which no
    /// pair or visit hook ever sees.
    pub fn nodes(&self) -> NodePair {
        (self.a, self.b)
    }

    /// The carried BCCP endpoints, if this is a separated pair.
    pub fn endpoints(&self) -> Option<(u32, u32)> {
        (self.u != NONE).then_some((self.u, self.v))
    }
}

/// What a resumable traversal does with a pair state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Abandon the state and all of its descendant states.
    Drop,
    /// Stop here and hand the state to the next frontier as it is.
    Keep,
    /// Visit the pair if it is well-separated, split it otherwise.
    Expand,
}

/// Generalized Algorithm 1. Calls `visit(a, b)` for every well-separated
/// pair under `policy`, skipping any pair subtree for which `prune` returns
/// true. `visit` and `prune` must be thread-safe; `visit` may be called
/// concurrently from many workers.
pub fn wspd_traverse<const D: usize, P, Pr, V>(tree: &KdTree<D>, policy: &P, prune: &Pr, visit: &V)
where
    P: SeparationPolicy<D>,
    Pr: Fn(NodeId, NodeId) -> bool + Sync,
    V: Fn(NodeId, NodeId) + Sync,
{
    if tree.len() > 1 {
        wspd_resume(
            tree,
            policy,
            &[vec![OpenState::node(tree.root())]],
            &|_| true,
            &|a, b| {
                if prune(a, b) {
                    Step::Drop
                } else {
                    Step::Expand
                }
            },
            &|s| {
                let (a, b) = s.nodes();
                visit(a, b);
                None
            },
        );
    }
}

/// Resume Algorithm 1 from `frontier` and return the next frontier. A
/// frontier is a list of segments, as [`Collector::into_segments`] hands
/// them over; their concatenation is the list of states.
///
/// A leaf's node state is skipped; every other node state, carried or
/// reached, is expanded only if `expand_node` returns true, and every pair
/// state goes through `step`. An expanded pair that is well-separated — or
/// a carried separated pair — is handed to `visit`, which returns the
/// state to keep, if any. Everything kept by a hook makes up the returned
/// frontier of pair states, whose order depends on scheduling across
/// states. A frontier of one state whose nodes cover fewer than
/// `PAIR_GRAIN` (2048) points is walked on the calling thread, and its
/// kept states come back in depth-first order. The frontier's states are
/// never ancestors of one another, so no pair is reached twice.
pub fn wspd_resume<const D: usize, P, N, S, V>(
    tree: &KdTree<D>,
    policy: &P,
    frontier: &[Vec<OpenState>],
    expand_node: &N,
    step: &S,
    visit: &V,
) -> Vec<Vec<OpenState>>
where
    P: SeparationPolicy<D>,
    N: Fn(NodeId) -> bool + Sync,
    S: Fn(NodeId, NodeId) -> Step + Sync,
    V: Fn(OpenState) -> Option<OpenState> + Sync,
{
    let next = Collector::new();
    let walk = Walk {
        tree,
        policy,
        expand_node,
        step,
        visit,
        next: &next,
    };
    frontier.par_iter().for_each(|segment| {
        segment
            .par_chunks(RUN_STATES)
            .for_each(|run| walk.flushed(|out| run.iter().for_each(|&s| walk.state(s, out))));
    });
    next.into_segments()
}

/// The hooks and output of one [`wspd_resume`] call.
struct Walk<'a, const D: usize, P, N, S, V> {
    tree: &'a KdTree<D>,
    policy: &'a P,
    expand_node: &'a N,
    step: &'a S,
    visit: &'a V,
    next: &'a Collector<OpenState>,
}

/// Kept states go to a plain `Vec` owned by the current sequential run of
/// the recursion; each run hands its states to the shared [`Collector`] in
/// one call when it ends. So a walk below the grain keeps its states in
/// depth-first order and takes no lock per state.
impl<const D: usize, P, N, S, V> Walk<'_, D, P, N, S, V>
where
    P: SeparationPolicy<D>,
    N: Fn(NodeId) -> bool + Sync,
    S: Fn(NodeId, NodeId) -> Step + Sync,
    V: Fn(OpenState) -> Option<OpenState> + Sync,
{
    /// Run `f` as its own sequential run, with a fresh output buffer.
    fn flushed(&self, f: impl FnOnce(&mut Vec<OpenState>)) {
        let mut out = Vec::new();
        f(&mut out);
        if !out.is_empty() {
            self.next.extend(out);
        }
    }

    fn state(&self, s: OpenState, out: &mut Vec<OpenState>) {
        if s.b == NONE {
            self.node(s.a, out);
        } else if s.u == NONE {
            self.find_pair(s.a, s.b, out);
        } else {
            match (self.step)(s.a, s.b) {
                Step::Drop => {}
                Step::Keep => out.push(s),
                Step::Expand => self.visit(s, out),
            }
        }
    }

    fn visit(&self, s: OpenState, out: &mut Vec<OpenState>) {
        if let Some(kept) = (self.visit)(s) {
            out.push(kept);
        }
    }

    fn node(&self, a: NodeId, out: &mut Vec<OpenState>) {
        let tree = self.tree;
        if tree.is_leaf(a) || !(self.expand_node)(a) {
            return;
        }
        let (l, r) = tree.children(a);
        if tree.node_size(a) >= PAIR_GRAIN {
            rayon::join(
                || self.flushed(|o| self.node(l, o)),
                || self.flushed(|o| self.node(r, o)),
            );
        } else {
            self.node(l, out);
            self.node(r, out);
        }
        self.find_pair(l, r, out);
    }

    fn find_pair(&self, a: NodeId, b: NodeId, out: &mut Vec<OpenState>) {
        match (self.step)(a, b) {
            Step::Drop => return,
            Step::Keep => {
                out.push(OpenState::pair(a, b));
                return;
            }
            Step::Expand => {}
        }
        let tree = self.tree;
        if self.policy.well_separated(tree, a, b) {
            self.visit(OpenState::pair(a, b), out);
            return;
        }
        let (a, b) = split_order(tree, a, b);
        debug_assert!(
            !tree.is_leaf(a),
            "two leaves are always well-separated; cannot split a singleton"
        );
        let (l, r) = tree.children(a);
        if tree.node_size(a) + tree.node_size(b) >= PAIR_GRAIN {
            rayon::join(
                || self.flushed(|o| self.find_pair(l, b, o)),
                || self.flushed(|o| self.find_pair(r, b, o)),
            );
        } else {
            self.find_pair(l, b, out);
            self.find_pair(r, b, out);
        }
    }
}

/// Choose which node of a non-well-separated pair to split (Algorithm 1
/// line 8): the one with the larger bounding sphere, breaking diameter
/// ties toward the larger node so a leaf is never chosen while its partner
/// is splittable. Returns `(split, other)`.
fn split_order<const D: usize>(tree: &KdTree<D>, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    let (da, db) = (tree.bbox(a).diag_sq(), tree.bbox(b).diag_sq());
    if da < db || (da == db && tree.node_size(a) < tree.node_size(b)) {
        (b, a)
    } else {
        (a, b)
    }
}

/// Materialize the full WSPD as a vector of node pairs (canonically sorted
/// so the output is deterministic regardless of scheduling).
pub fn wspd_materialize<const D: usize, P>(tree: &KdTree<D>, policy: &P) -> Vec<NodePair>
where
    P: SeparationPolicy<D>,
{
    let out: Collector<NodePair> = Collector::new();
    wspd_traverse(tree, policy, &|_, _| false, &|a, b| {
        out.push(if a < b { (a, b) } else { (b, a) });
    });
    let mut pairs = out.into_vec();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GeometricSep;
    use parclust_geom::Point;
    use rand::prelude::*;

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for x in c.iter_mut() {
                    *x = rng.gen_range(-100.0..100.0);
                }
                Point(c)
            })
            .collect()
    }

    /// Check the WSPD definition (Section 2.3): every unordered pair of
    /// distinct points appears in the interaction product of exactly one
    /// well-separated pair, and each pair satisfies the policy's predicate.
    fn check_exact_cover<const D: usize>(pts: &[Point<D>], pairs: &[NodePair], tree: &KdTree<D>) {
        let n = pts.len();
        let mut count = vec![0u32; n * n];
        for &(a, b) in pairs {
            assert!(
                tree.bbox(a).well_separated(&tree.bbox(b), 2.0),
                "pair must be well-separated"
            );
            for &u in tree.node_point_ids(a) {
                for &v in tree.node_point_ids(b) {
                    assert_ne!(u, v, "pair sides must be disjoint");
                    let (x, y) = (u.min(v) as usize, u.max(v) as usize);
                    count[x * n + y] += 1;
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    count[i * n + j],
                    1,
                    "pair ({i},{j}) covered {} times",
                    count[i * n + j]
                );
            }
        }
    }

    #[test]
    fn exact_cover_2d() {
        let pts = random_points::<2>(128, 1);
        let tree = KdTree::build(&pts);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        check_exact_cover(&pts, &pairs, &tree);
    }

    #[test]
    fn exact_cover_3d() {
        let pts = random_points::<3>(96, 2);
        let tree = KdTree::build(&pts);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        check_exact_cover(&pts, &pairs, &tree);
    }

    #[test]
    fn exact_cover_with_duplicates() {
        let mut pts = random_points::<2>(40, 3);
        for i in 0..24 {
            pts.push(pts[i % 8]);
        }
        let tree = KdTree::build(&pts);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        check_exact_cover(&pts, &pairs, &tree);
    }

    #[test]
    fn linear_pair_count() {
        // |WSPD| = O(n) for constant dimension and s (here: loose factor).
        for &n in &[200usize, 400, 800] {
            let pts = random_points::<2>(n, 7);
            let tree = KdTree::build(&pts);
            let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
            assert!(
                pairs.len() < 40 * n,
                "n={n}: {} pairs looks superlinear",
                pairs.len()
            );
        }
    }

    #[test]
    fn singleton_and_pair_inputs() {
        let tree = KdTree::build(&[Point([0.0, 0.0])]);
        assert!(wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT).is_empty());

        let tree = KdTree::build(&[Point([0.0, 0.0]), Point([1.0, 1.0])]);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        assert_eq!(pairs.len(), 1, "two points form exactly one pair");
    }

    #[test]
    fn prune_hook_skips_subtrees() {
        let pts = random_points::<2>(256, 9);
        let tree = KdTree::build(&pts);
        // Pruning everything yields nothing.
        let c = parclust_primitives::collector::Collector::<NodePair>::new();
        wspd_traverse(
            &tree,
            &GeometricSep::PAPER_DEFAULT,
            &|_, _| true,
            &|a, b| c.push((a, b)),
        );
        assert_eq!(c.len(), 0);
        // Pruning nothing yields the full decomposition.
        let full = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        let c2 = parclust_primitives::collector::Collector::<NodePair>::new();
        wspd_traverse(
            &tree,
            &GeometricSep::PAPER_DEFAULT,
            &|_, _| false,
            &|a, b| c2.push(if a < b { (a, b) } else { (b, a) }),
        );
        let mut got = c2.into_vec();
        got.sort_unstable();
        assert_eq!(got, full);
    }

    /// Stopping a walk part-way and resuming it from the returned frontier
    /// of kept pair and separated states, in any segmentation, reaches
    /// exactly the pairs of the one-shot walk, each once (the comparison is
    /// against a list with no duplicates), and hands back carried endpoints
    /// untouched.
    #[test]
    fn resumed_walk_matches_one_shot() {
        let pts = random_points::<2>(3000, 13);
        let tree = KdTree::build(&pts);
        let policy = GeometricSep::PAPER_DEFAULT;
        let card = |a: NodeId, b: NodeId| tree.node_size(a) + tree.node_size(b);
        let seen: Collector<NodePair> = Collector::new();
        let record = |s: OpenState| {
            let (a, b) = s.nodes();
            seen.push((a.min(b), a.max(b)));
        };

        let frontier = wspd_resume(
            &tree,
            &policy,
            &[vec![OpenState::node(tree.root())]],
            &|_| true,
            &|a, b| {
                if card(a, b) > 64 {
                    Step::Keep
                } else {
                    Step::Expand
                }
            },
            &|s| {
                assert_eq!(s.endpoints(), None);
                let (a, b) = s.nodes();
                if card(a, b) > 16 {
                    return Some(OpenState::separated(a, b, a, b));
                }
                record(s);
                None
            },
        );
        let kept = frontier.concat();
        assert!(kept.iter().all(|s| s.b != NONE), "only pairs are kept");
        assert!(kept.iter().any(|s| s.u == NONE));
        assert!(kept.iter().any(|s| s.endpoints().is_some()));
        // Resume from the kept states cut into short, uneven segments.
        let segments: Vec<Vec<OpenState>> = kept.chunks(3).map(<[_]>::to_vec).collect();
        assert!(segments.len() > 1);
        let rest = wspd_resume(
            &tree,
            &policy,
            &segments,
            &|_| true,
            &|_, _| Step::Expand,
            &|s| {
                if let Some(uv) = s.endpoints() {
                    assert_eq!(uv, s.nodes(), "carried endpoints come back as kept");
                }
                record(s);
                None
            },
        );
        assert!(rest.is_empty());
        let mut got = seen.into_vec();
        got.sort_unstable();
        assert_eq!(got, wspd_materialize(&tree, &policy));
    }

    #[test]
    fn higher_separation_gives_more_pairs() {
        let pts = random_points::<2>(512, 11);
        let tree = KdTree::build(&pts);
        let s2 = wspd_materialize(&tree, &GeometricSep { s: 2.0 }).len();
        let s8 = wspd_materialize(&tree, &GeometricSep { s: 8.0 }).len();
        assert!(
            s8 > s2,
            "s=8 must refine the s=2 decomposition ({s8} vs {s2})"
        );
    }
}
