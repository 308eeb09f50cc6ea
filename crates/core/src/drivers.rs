//! The three WSPD-to-MST drivers of Section 3, generic over a
//! [`SeparationPolicy`].
//!
//! * [`wspd_mst_naive`] — materialize the WSPD, compute every BCCP, run one
//!   big Kruskal (EMST-Naive in §5).
//! * [`wspd_mst_gfk`] — Algorithm 2, parallel GeoFilterKruskal: rounds with
//!   a doubling cardinality threshold `β`, lazy cached BCCPs, batch Kruskal
//!   with a shared union-find, and component filtering.
//! * [`wspd_mst_memogfk`] — Algorithm 3, the memory-optimized GFK: nothing
//!   is materialized up front; each round runs the pruned `GetRho` and
//!   `GetPairs` traversals and only materializes pairs whose BCCP falls in
//!   `[ρ_lo, ρ_hi)`. Each round after the first resumes from the frontier
//!   of open states the previous round's `GetPairs` kept, not from the
//!   kd-tree root, and a pair whose BCCP is known carries its endpoints in
//!   that frontier (the paper's cached BCCP results, §3.1.2).
//!
//! MemoGFK is the one engine behind `emst`, HDBSCAN\*, served and dynamic
//! models and the multi-million-point `repro scale` run; Naive and GFK are
//! the paper's baselines.
//!
//! Instantiated with [`parclust_wspd::GeometricSep`] these compute the EMST;
//! with [`parclust_wspd::MutualReachSep`] they compute the HDBSCAN\* MST
//! (Standard mode = the exact Gan–Tao baseline of §3.2.1, Combined mode =
//! the improved algorithm of §3.2.2).
//!
//! All drivers work in *permuted position space* (the kd-tree's point
//! order); callers map endpoints back through `tree.idx`.

use parclust_geom::Point;
use parclust_kdtree::{KdTree, NodeId};
use parclust_mst::{kruskal_batch, Edge};
use parclust_obs::phase;
use parclust_primitives::atomic::AtomicF64Min;
use parclust_primitives::collector::Collector;
use parclust_primitives::pack::{pack, split};
use parclust_primitives::unionfind::UnionFind;
use parclust_wspd::{
    bccp, wspd_materialize, wspd_resume, Bccp, NodePair, OpenState, SeparationPolicy, Step,
};
use rayon::prelude::*;
use std::mem::size_of;

use crate::stats::Recorder;

/// Component annotation value for "points of this node span multiple
/// components".
pub(crate) const MIXED: u32 = u32::MAX;

/// How the cardinality threshold β advances between GFK/MemoGFK rounds.
///
/// The paper doubles β each round ("the exponentially increasing value of
/// β ... is crucial for achieving a low depth bound", §3.1.2), whereas the
/// sequential GeoFilterKruskal of Chatterjee et al. [17] increments it by
/// one. Exposed so the ablation harness can measure exactly what that
/// design choice buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BetaSchedule {
    /// β ← 2β (the paper's choice; `O(log n)` rounds).
    Double,
    /// β ← β + 1 (Chatterjee et al.'s sequential schedule; `O(n)` rounds).
    Increment,
}

impl BetaSchedule {
    #[inline]
    fn next(self, beta: usize) -> usize {
        match self {
            BetaSchedule::Double => beta.saturating_mul(2),
            BetaSchedule::Increment => beta + 1,
        }
    }
}

/// Build the kd-tree of an entry point, timed as `build_tree`.
pub(crate) fn build_tree<const D: usize>(points: &[Point<D>], rec: &Recorder) -> KdTree<D> {
    let _phase = phase!(&rec.build_tree, "pipeline.build_tree");
    KdTree::build(points)
}

/// Per-node component ids: `comp[v] = r` if every point in node `v` is in
/// union-find component `r`, [`MIXED`] otherwise. Recomputed between Kruskal
/// batches; reads use the concurrent-safe compression-free find. Timed as
/// `wspd`, so callers must not hold a `wspd` guard around it.
pub(crate) fn component_annotation<const D: usize>(
    tree: &KdTree<D>,
    uf: &UnionFind,
    rec: &Recorder,
) -> Vec<u32> {
    let _phase = phase!(&rec.wspd, "wspd.annotate");
    #[derive(Clone, Copy)]
    struct Comp(u32);
    impl Default for Comp {
        fn default() -> Self {
            Comp(MIXED)
        }
    }
    let ann = tree.aggregate_bottom_up(
        &|id, _ids| {
            let range = tree.node_range(id);
            let mut c = uf.find_shared(range.start as u32);
            for pos in range.skip(1) {
                if uf.find_shared(pos as u32) != c {
                    c = MIXED;
                    break;
                }
            }
            Comp(c)
        },
        &|a: &Comp, b: &Comp| {
            if a.0 != MIXED && a.0 == b.0 {
                Comp(a.0)
            } else {
                Comp(MIXED)
            }
        },
    );
    ann.into_iter().map(|c| c.0).collect()
}

#[inline]
fn same_component(comp: &[u32], a: NodeId, b: NodeId) -> bool {
    let ca = comp[a as usize];
    ca != MIXED && ca == comp[b as usize]
}

/// EMST-Naive (§5): materialize all pairs, BCCP each, one Kruskal.
pub(crate) fn wspd_mst_naive<const D: usize, P: SeparationPolicy<D>>(
    tree: &KdTree<D>,
    policy: &P,
    rec: &Recorder,
) -> Vec<Edge> {
    let n = tree.len();
    if n <= 1 {
        return Vec::new();
    }
    rec.round();
    let pairs = {
        let _phase = phase!(&rec.wspd, "wspd.materialize", points = n);
        wspd_materialize(tree, policy)
    };
    rec.pairs(pairs.len());
    // Every pair and its candidate edge are live at once.
    rec.live(pairs.len(), size_of::<NodePair>() + size_of::<Edge>());

    // BCCP of every pair forms the candidate edge set (attributed to the
    // wspd phase, as in the paper's decomposition: "kruskal" is the MST
    // stage only).
    let mut edges: Vec<Edge> = {
        let _phase = phase!(&rec.wspd, "bccp.batch", pairs = pairs.len());
        pairs
            .par_iter()
            .map(|&(a, b)| {
                rec.bccp();
                let r = bccp(tree, policy, a, b);
                Edge::new(r.u, r.v, r.w)
            })
            .collect()
    };
    drop(pairs);

    let mut uf = UnionFind::new(n);
    let mut out = Vec::with_capacity(n - 1);
    let _phase = phase!(&rec.kruskal, "mst.kruskal", edges = edges.len());
    kruskal_batch(&mut edges, &mut uf, &mut out);
    out
}

/// A WSPD pair with its cached BCCP (Algorithm 2's working set).
#[derive(Clone, Copy)]
struct GfkPair {
    a: NodeId,
    b: NodeId,
    /// |A| + |B| — the round-splitting cardinality.
    card: u32,
    /// Cached BCCP endpoints/weight; valid iff `has_bccp`.
    u: u32,
    v: u32,
    w: f64,
    has_bccp: bool,
}

/// Parallel GeoFilterKruskal (Algorithm 2).
pub(crate) fn wspd_mst_gfk<const D: usize, P: SeparationPolicy<D>>(
    tree: &KdTree<D>,
    policy: &P,
    rec: &Recorder,
) -> Vec<Edge> {
    let n = tree.len();
    if n <= 1 {
        return Vec::new();
    }

    // Materialize the WSPD once (the memory cost MemoGFK removes).
    let mut pairs: Vec<GfkPair> = {
        let _phase = phase!(&rec.wspd, "wspd.materialize", points = n);
        wspd_materialize(tree, policy)
            .into_par_iter()
            .map(|(a, b)| GfkPair {
                a,
                b,
                card: (tree.node_size(a) + tree.node_size(b)) as u32,
                u: 0,
                v: 0,
                w: 0.0,
                has_bccp: false,
            })
            .collect()
    };
    rec.pairs(pairs.len());
    rec.live(pairs.len(), size_of::<GfkPair>());

    let mut uf = UnionFind::new(n);
    let mut out: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut beta: usize = 2;

    while out.len() + 1 < n && !pairs.is_empty() {
        rec.round();
        let (mut batch, rest) = {
            let _phase = phase!(&rec.wspd, "wspd.gfk_round", beta = beta);
            // Line 4: split by cardinality.
            let (arr, n_small) = split(&pairs, |p| (p.card as usize) <= beta);
            let (s_l, s_u) = arr.split_at(n_small);

            // Line 5: ρ_hi = min lower bound over the big pairs.
            let rho_hi = s_u
                .par_iter()
                .map(|p| policy.lower_bound(tree, p.a, p.b))
                .reduce(|| f64::INFINITY, f64::min);

            // Line 6: BCCP the small pairs (cached across rounds).
            let mut s_l: Vec<GfkPair> = s_l.to_vec();
            s_l.par_iter_mut().for_each(|p| {
                if !p.has_bccp {
                    rec.bccp();
                    let r = bccp(tree, policy, p.a, p.b);
                    p.u = r.u;
                    p.v = r.v;
                    p.w = r.w;
                    p.has_bccp = true;
                }
            });
            let (s_l, n_l1) = split(&s_l, |p| p.w <= rho_hi);
            let batch: Vec<Edge> = s_l[..n_l1]
                .par_iter()
                .map(|p| Edge::new(p.u, p.v, p.w))
                .collect();
            // Survivors: S_l2 ∪ S_u, to be component-filtered below.
            let mut rest: Vec<GfkPair> = Vec::with_capacity(s_l.len() - n_l1 + s_u.len());
            rest.extend_from_slice(&s_l[n_l1..]);
            rest.extend_from_slice(s_u);
            (batch, rest)
        };

        // Lines 7–8: Kruskal on the round's edges.
        {
            let _phase = phase!(&rec.kruskal, "mst.kruskal", edges = batch.len());
            kruskal_batch(&mut batch, &mut uf, &mut out);
        }

        // Line 9: drop pairs already connected in the union-find.
        let comp = component_annotation(tree, &uf, rec);
        pairs = {
            let _phase = phase!(&rec.wspd, "wspd.filter", pairs = rest.len());
            pack(&rest, |p| !same_component(&comp, p.a, p.b))
        };

        // Line 10: exponential β growth keeps the round count logarithmic.
        beta = beta.saturating_mul(2);
    }
    out
}

/// Parallel MemoGFK (Algorithm 3) with the paper's doubling β schedule.
pub(crate) fn wspd_mst_memogfk<const D: usize, P: SeparationPolicy<D>>(
    tree: &KdTree<D>,
    policy: &P,
    rec: &Recorder,
) -> Vec<Edge> {
    wspd_mst_memogfk_sched(tree, policy, rec, BetaSchedule::Double)
}

/// Parallel MemoGFK with an explicit [`BetaSchedule`] (ablation hook).
///
/// Round 0 walks from the root's self-recursion; every later round resumes
/// from the frontier the previous `GetPairs` kept ([`wspd_resume`]). A kept
/// state is a pair pruned only by `lower_bound ≥ ρ_hi`, or a well-separated
/// pair whose BCCP came out at or above `ρ_hi`, carried with its endpoints
/// so its BCCP runs once. Dropped states never come back: components only
/// merge, `ρ_lo`/`ρ_hi` and `β` never decrease, `lower_bound` rises and
/// `upper_bound` falls down the tree. So every pair a root walk would
/// reach in a later round lies at or below a kept state, and every pair
/// `GetRho` must see (cardinality > β, lower bound ≥ the last `ρ_hi`) was
/// kept. The rounds' `ρ_hi` and edge batches, and so the MST bits and the
/// work counters, are those of re-walking the tree from the root. The
/// component annotation is recomputed only after a batch that grew the
/// MST.
pub(crate) fn wspd_mst_memogfk_sched<const D: usize, P: SeparationPolicy<D>>(
    tree: &KdTree<D>,
    policy: &P,
    rec: &Recorder,
    schedule: BetaSchedule,
) -> Vec<Edge> {
    let n = tree.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut uf = UnionFind::new(n);
    let mut out: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut beta: usize = 2;
    let mut rho_lo: f64 = 0.0;
    let mut frontier = vec![OpenState::node(tree.root())];
    let mut comp: Vec<u32> = Vec::new();
    // MST size when `comp` was computed: a Kruskal batch that accepts no
    // edge leaves every union-find root, and so `comp`, as it was.
    let mut annotated_at = None;

    while out.len() + 1 < n {
        rec.round();
        if annotated_at != Some(out.len()) {
            comp = component_annotation(tree, &uf, rec);
            annotated_at = Some(out.len());
        }
        let one_component = |a: NodeId| comp[a as usize] != MIXED;

        // GetRho (Algorithm 3, line 4): lower-bound the lightest edge any
        // still-relevant pair of cardinality > β can produce.
        let rho = AtomicF64Min::default();
        {
            let _phase = phase!(&rec.wspd, "wspd.get_rho", beta = beta);
            wspd_resume(
                tree,
                policy,
                &frontier,
                &|a| !one_component(a) && tree.node_size(a) > beta,
                &|a, b| {
                    if same_component(&comp, a, b)
                        || tree.node_size(a) + tree.node_size(b) <= beta
                        || policy.lower_bound(tree, a, b) >= rho.load()
                    {
                        Step::Drop
                    } else {
                        Step::Expand
                    }
                },
                &|s| {
                    let (a, b) = s.nodes();
                    rho.write_min(policy.lower_bound(tree, a, b));
                    None
                },
            );
        }
        let rho_hi = rho.load();

        // GetPairs (line 5): retrieve pairs whose BCCP lies in [ρ_lo, ρ_hi)
        // and keep what a later round may still need.
        let edges_c: Collector<Edge> = Collector::new();
        frontier = {
            let _phase = phase!(&rec.wspd, "wspd.get_pairs", frontier = frontier.len());
            wspd_resume(
                tree,
                policy,
                &frontier,
                &|a| !one_component(a),
                &|a, b| {
                    if same_component(&comp, a, b) || policy.upper_bound(tree, a, b) < rho_lo {
                        Step::Drop
                    } else if policy.lower_bound(tree, a, b) >= rho_hi {
                        Step::Keep
                    } else {
                        Step::Expand
                    }
                },
                &|s| {
                    let (a, b) = s.nodes();
                    let r = match s.endpoints() {
                        // The weight is recomputed, never stored, so the
                        // edge carries exactly `point_weight`'s bits.
                        Some((u, v)) => Bccp {
                            u,
                            v,
                            w: policy.point_weight(u, v, tree.dist_between(u, v)),
                        },
                        None => {
                            rec.bccp();
                            bccp(tree, policy, a, b)
                        }
                    };
                    if r.w < rho_lo {
                        None
                    } else if r.w < rho_hi {
                        edges_c.push(Edge::new(r.u, r.v, r.w));
                        None
                    } else {
                        Some(OpenState::separated(a, b, r.u, r.v))
                    }
                },
            )
        };
        frontier.shrink_to_fit();
        rec.frontier(frontier.len());
        let mut batch = edges_c.into_vec();
        batch.shrink_to_fit();
        rec.pairs(batch.len());
        rec.live(batch.len(), size_of::<Edge>());

        {
            let _phase = phase!(&rec.kruskal, "mst.kruskal", edges = batch.len());
            kruskal_batch(&mut batch, &mut uf, &mut out);
        }

        if rho_hi.is_infinite() {
            // No unconnected pair had cardinality > β: this round already
            // retrieved every remaining pair.
            break;
        }
        beta = schedule.next(beta);
        rho_lo = rho_hi;
    }
    out
}

/// Map position-space MST edges back to original point indices and put them
/// in canonical order.
pub(crate) fn edges_to_original<const D: usize>(tree: &KdTree<D>, edges: Vec<Edge>) -> Vec<Edge> {
    let mut out: Vec<Edge> = edges
        .into_iter()
        .map(|e| Edge::new(tree.idx[e.u as usize], tree.idx[e.v as usize], e.w))
        .collect();
    parclust_mst::sort_edges(&mut out);
    out
}
