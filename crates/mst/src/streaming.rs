//! Streaming MST maintenance over batched candidate edges.
//!
//! [`StreamingForest`] is the sink side of the bounded-memory pipeline: it
//! holds only a minimum spanning forest (≤ `n - 1` edges) and *absorbs*
//! candidate-edge batches by merging each batch with the current forest and
//! re-running one Kruskal pass — the classic semi-streaming MST
//! sparsification. Because every edge weight in this workspace is compared
//! by the strict total key `(w, u, v)`, the MST of any edge set is unique,
//! and the sparsification identity `MST(A ∪ B) = MST(MST(A) ∪ B)` holds
//! *exactly*: the final forest is bit-identical to a single Kruskal over
//! all candidate edges, no matter how the stream was batched or ordered.
//!
//! The forest also maintains per-component maximum edge weights, which lets
//! upstream producers skip whole BCCP computations via the cycle property:
//! if both endpoints of a candidate already sit in one component and the
//! candidate's weight lower bound exceeds that component's maximum forest
//! edge, the candidate closes a cycle on which it is strictly heaviest and
//! can never enter the MST.
//!
//! Batching invariance is not decomposition invariance: MST edge *sets*
//! under tied weights depend on which pairs a particular tree
//! decomposition emitted. That is why the dynamic model (`crates/dyn`)
//! rebuilds the MST from the *new* tree's WSPD pairs after each batch
//! instead of patching the old forest's edges.

use parclust_primitives::unionfind::UnionFind;

use crate::{kruskal_batch, Edge};

/// A minimum spanning forest absorbing candidate edges in batches.
pub struct StreamingForest {
    n: usize,
    /// Current forest edges in ascending canonical `(w, u, v)` order.
    edges: Vec<Edge>,
    /// Connectivity of the current forest. Rebuilt per absorb; safe for
    /// concurrent `find_shared` reads between absorbs.
    uf: UnionFind,
    /// `comp_max[r]` = max edge weight in the component rooted at `r`
    /// (`NEG_INFINITY` for singletons). Valid at component roots only.
    comp_max: Vec<f64>,
    batches: u64,
}

impl StreamingForest {
    pub fn new(n: usize) -> Self {
        StreamingForest {
            n,
            edges: Vec::new(),
            uf: UnionFind::new(n),
            comp_max: vec![f64::NEG_INFINITY; n],
            batches: 0,
        }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current forest edges, ascending by the canonical key.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of batches absorbed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Whether the forest currently spans all `n` vertices.
    pub fn is_spanning(&self) -> bool {
        self.n <= 1 || self.uf.components() == 1
    }

    /// Connectivity of the current forest (read-only between absorbs).
    pub fn uf(&self) -> &UnionFind {
        &self.uf
    }

    /// Maximum forest-edge weight within the component rooted at `root`
    /// (`NEG_INFINITY` if the component is a singleton). `root` must be a
    /// current `find_shared` root.
    #[inline]
    pub fn component_max_weight(&self, root: u32) -> f64 {
        self.comp_max[root as usize]
    }

    /// Cycle-property skip test for a candidate whose endpoints are known
    /// to lie in the single component rooted at `root`: a weight lower
    /// bound strictly above that component's max forest edge proves the
    /// candidate is the unique heaviest edge on its cycle.
    #[inline]
    pub fn can_skip_within(&self, root: u32, weight_lower_bound: f64) -> bool {
        weight_lower_bound > self.comp_max[root as usize]
    }

    /// Merge a batch of candidate edges into the forest (one Kruskal pass
    /// over `forest ∪ batch`). The batch is consumed.
    pub fn absorb(&mut self, mut batch: Vec<Edge>) {
        self.batches += 1;
        if batch.is_empty() {
            return;
        }
        batch.extend_from_slice(&self.edges);
        let mut uf = UnionFind::new(self.n);
        self.edges.clear();
        kruskal_batch(&mut batch, &mut uf, &mut self.edges);
        self.uf = uf;
        for m in self.comp_max.iter_mut() {
            *m = f64::NEG_INFINITY;
        }
        for e in &self.edges {
            let r = self.uf.find_shared(e.u) as usize;
            if e.w > self.comp_max[r] {
                self.comp_max[r] = e.w;
            }
        }
    }

    /// Final forest edges, ascending by the canonical key.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kruskal, total_weight};
    use rand::prelude::*;

    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<Edge> = (0..m)
            .map(|_| {
                let u = rng.gen_range(0..n as u32);
                let mut v = rng.gen_range(0..n as u32);
                while v == u {
                    v = rng.gen_range(0..n as u32);
                }
                Edge::new(u, v, rng.gen_range(0.0..100.0))
            })
            .collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        for w in perm.windows(2) {
            edges.push(Edge::new(w[0], w[1], rng.gen_range(0.0..100.0)));
        }
        edges
    }

    fn edge_bits(edges: &[Edge]) -> Vec<(u64, u32, u32)> {
        edges.iter().map(|e| (e.w.to_bits(), e.u, e.v)).collect()
    }

    #[test]
    fn sparsified_batches_equal_monolithic_kruskal() {
        for seed in 0..4 {
            let n = 300;
            let edges = random_edges(n, 2500, seed);
            let want = kruskal(n, &edges);
            // Arbitrary (non-weight-ordered) batching of varying size.
            for batch_len in [1usize, 17, 256, 10_000] {
                let mut forest = StreamingForest::new(n);
                for chunk in edges.chunks(batch_len) {
                    forest.absorb(chunk.to_vec());
                }
                assert_eq!(
                    edge_bits(&forest.into_edges()),
                    edge_bits(&want),
                    "seed {seed} batch {batch_len}"
                );
            }
        }
    }

    #[test]
    fn batch_order_is_irrelevant() {
        let n = 200;
        let edges = random_edges(n, 1500, 9);
        let want = kruskal(n, &edges);
        let mut shuffled = edges.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(1));
        let mut forest = StreamingForest::new(n);
        for chunk in shuffled.chunks(97) {
            forest.absorb(chunk.to_vec());
        }
        assert_eq!(edge_bits(&forest.into_edges()), edge_bits(&want));
    }

    #[test]
    fn spanning_flag_and_component_max() {
        let mut forest = StreamingForest::new(4);
        assert!(!forest.is_spanning());
        forest.absorb(vec![Edge::new(0, 1, 5.0), Edge::new(2, 3, 2.0)]);
        assert!(!forest.is_spanning());
        let r0 = forest.uf().find_shared(0);
        let r2 = forest.uf().find_shared(2);
        assert_eq!(forest.component_max_weight(r0), 5.0);
        assert_eq!(forest.component_max_weight(r2), 2.0);
        // Cycle-property skip: a (0,1)-component candidate with lower
        // bound above 5 can never enter the MST; one at 4 might.
        assert!(forest.can_skip_within(r0, 5.5));
        assert!(!forest.can_skip_within(r0, 4.0));
        forest.absorb(vec![Edge::new(1, 2, 7.0)]);
        assert!(forest.is_spanning());
        let root = forest.uf().find_shared(0);
        assert_eq!(forest.component_max_weight(root), 7.0);
    }

    #[test]
    fn skipped_candidates_never_change_the_mst() {
        // Adversarial check of the cycle-property prune: absorb a stream
        // while *separately* collecting every candidate the prune would
        // have skipped, then verify the full Kruskal (skipped edges
        // included) matches the streamed forest.
        let n = 150;
        let edges = random_edges(n, 1200, 21);
        let mut forest = StreamingForest::new(n);
        let mut fed: Vec<Edge> = Vec::new();
        for chunk in edges.chunks(61) {
            let mut kept = Vec::new();
            for &e in chunk {
                let (ru, rv) = (forest.uf().find_shared(e.u), forest.uf().find_shared(e.v));
                if ru == rv && forest.can_skip_within(ru, e.w) {
                    // Skipped — but still part of the logical edge set.
                    fed.push(e);
                    continue;
                }
                kept.push(e);
                fed.push(e);
            }
            forest.absorb(kept);
        }
        let want = kruskal(n, &fed);
        assert_eq!(edge_bits(forest.edges()), edge_bits(&want));
    }

    #[test]
    fn singleton_and_empty_inputs() {
        let mut forest = StreamingForest::new(0);
        assert!(forest.is_spanning());
        forest.absorb(Vec::new());
        assert!(forest.into_edges().is_empty());

        let mut forest = StreamingForest::new(1);
        assert!(forest.is_spanning());
        forest.absorb(Vec::new());
        assert_eq!(forest.batches(), 1);
        assert!(forest.is_empty());
    }

    #[test]
    fn total_weight_matches_oracle() {
        let n = 120;
        let edges = random_edges(n, 900, 33);
        let mut forest = StreamingForest::new(n);
        for chunk in edges.chunks(50) {
            forest.absorb(chunk.to_vec());
        }
        let got = total_weight(forest.edges());
        let want = total_weight(&kruskal(n, &edges));
        assert!((got - want).abs() < 1e-9);
    }
}
