//! The clustering-model artifact: a versioned little-endian binary format
//! bundling what a query server needs — the point set, the per-point core
//! distances, the HDBSCAN\* dendrogram, and the condensed cluster tree — so
//! one expensive hierarchy build can answer arbitrarily many cheap queries
//! across process restarts.
//!
//! Layout (version 3, all little-endian, built on `parclust_data::io::le`):
//!
//! ```text
//! "PCSM" | version u32 | dims u32 | n u64 | min_pts u64 | min_cluster_size u64
//! points           n·D f64            (original order)
//! core distances   f64[]
//! dendrogram       start u32, root u32, edge_u u32[], edge_v u32[],
//!                  height f64[], left u32[], right u32[], parent u32[],
//!                  vertex_dist u32[]
//! condensed tree   parent u32[], birth_lambda f64[], stability f64[],
//!                  size u32[], point_cluster u32[], point_lambda f64[]
//! checksum         FNV-1a 64 of every preceding byte
//! ```
//!
//! **Derived on load:** the kd-tree. [`KdTree::build`] is deterministic
//! (bit-identical at every pool width), so loading rebuilds it from the
//! points in O(n log n) work instead of reading it back — the tree was more
//! than half of the bytes per point of the tree-carrying version 2. The
//! condensed tree stays stored: its 12 bytes per point are cheaper than
//! condensing the dendrogram again on every load.
//!
//! **Validated on load:** the checksum, the magic, the version, the
//! dimensionality, a non-zero point count, every section length against
//! `n`, the dendrogram's root/start/edge endpoints/child ids in range, the
//! condensed tree's point clusters in range and parents preceding children,
//! and no trailing bytes.
//!
//! Versioning contract: the magic and `version` field come first and are
//! checked before anything else is parsed; readers accept exactly
//! [`FORMAT_VERSION`] and answer anything else — including the older
//! tree-carrying versions 1 and 2 — with one `InvalidData` error that names
//! the found version and says to rebuild with `serve build`. Any layout
//! change bumps `FORMAT_VERSION`. The trailing checksum and the section
//! checks turn truncated or bit-flipped files into clean `InvalidData`
//! errors rather than panics or silently wrong query answers.

use parclust::{
    condense_tree, core_distances_on_tree, dendrogram_par, hdbscan_mst_on_tree, CondensedTree,
    Dendrogram, NOISE,
};
use parclust_data::io::le;
use parclust_geom::{Aabb, Point};
use parclust_kdtree::KdTree;
use std::io::{self, Read, Write};
use std::path::Path;

/// Artifact magic: "ParClust Serving Model".
pub const MAGIC: &[u8; 4] = b"PCSM";
/// Current artifact format version (3: the kd-tree is rebuilt on load).
pub const FORMAT_VERSION: u32 = 3;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The one version check every artifact reader runs.
fn check_version(version: u32) -> io::Result<()> {
    if version == FORMAT_VERSION {
        return Ok(());
    }
    Err(bad(format!(
        "unsupported artifact version {version} (this build reads version \
         {FORMAT_VERSION} only); rebuild the model with `serve build`"
    )))
}

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free corruption check.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Replace the file at `path` with `bytes` without ever destroying the
/// previous copy: write a sibling temp file, fsync it, rename it over
/// `path`, then fsync the directory so the rename is durable too. A
/// failure before the rename leaves the old file untouched and removes
/// the temp file. Every artifact and dynamic-wrapper save goes through
/// here.
pub(crate) fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_file_atomic_with(path, |f| f.write_all(bytes))
}

/// [`write_file_atomic`] with the payload written by `fill`.
fn write_file_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File) -> io::Result<()>,
) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let name = path
        .file_name()
        .ok_or_else(|| bad(format!("save path {} names no file", path.display())))?;
    // Unique per writer: concurrent saves to one path never share a temp.
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}-{:?}.tmp",
        std::process::id(),
        std::thread::current().id()
    ));
    let tmp = dir.join(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        fill(&mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    std::fs::File::open(dir)?.sync_all()
}

/// A servable clustering model over `D`-dimensional points.
pub struct ClusterModel<const D: usize> {
    /// `minPts` the hierarchy was built with (also the kNN width used for
    /// out-of-sample core distances).
    pub min_pts: usize,
    /// `min_cluster_size` the condensed tree was built with.
    pub min_cluster_size: usize,
    /// The training points, original order.
    pub points: Vec<Point<D>>,
    /// kd-tree over the points (answers kNN for out-of-sample assignment).
    pub tree: KdTree<D>,
    /// Core distance of every point, original order.
    pub core_distances: Vec<f64>,
    /// HDBSCAN\* ordered dendrogram (flat cuts, reachability).
    pub dendrogram: Dendrogram,
    /// Condensed cluster tree (EOM extraction).
    pub condensed: CondensedTree,
}

impl<const D: usize> ClusterModel<D> {
    /// Run the full batch pipeline (HDBSCAN\* MST → ordered dendrogram →
    /// condensed tree) and package the results as a servable model.
    ///
    /// `min_cluster_size` must be ≥ 2 (condensed-tree requirement) and
    /// `points` non-empty (the kd-tree needs at least one point).
    pub fn build(points: &[Point<D>], min_pts: usize, min_cluster_size: usize) -> Self {
        assert!(!points.is_empty(), "model needs at least one point");
        let tree = KdTree::build(points);
        let core_distances = core_distances_on_tree(&tree, min_pts);
        let h = hdbscan_mst_on_tree(&tree, min_pts, &core_distances);
        let dendrogram = dendrogram_par(points.len(), &h.edges, 0);
        let condensed = condense_tree(&dendrogram, min_cluster_size);
        ClusterModel {
            min_pts,
            min_cluster_size,
            points: points.to_vec(),
            tree,
            core_distances,
            dendrogram,
            condensed,
        }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Bounding box of the training points (the kd-tree root box).
    pub fn bbox(&self) -> Aabb<D> {
        self.tree.bbox(self.tree.root())
    }

    /// Serialize into `w` (no checksum — [`ClusterModel::save`] appends it).
    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let n = self.points.len();
        w.write_all(MAGIC)?;
        le::write_u32(w, FORMAT_VERSION)?;
        le::write_u32(w, D as u32)?;
        le::write_u64(w, n as u64)?;
        le::write_u64(w, self.min_pts as u64)?;
        le::write_u64(w, self.min_cluster_size as u64)?;
        for p in &self.points {
            for &c in p.coords() {
                le::write_f64(w, c)?;
            }
        }
        le::write_f64_slice(w, &self.core_distances)?;
        let d = &self.dendrogram;
        le::write_u32(w, d.start)?;
        le::write_u32(w, d.root)?;
        le::write_u32_slice(w, &d.edge_u)?;
        le::write_u32_slice(w, &d.edge_v)?;
        le::write_f64_slice(w, &d.height)?;
        le::write_u32_slice(w, &d.left)?;
        le::write_u32_slice(w, &d.right)?;
        le::write_u32_slice(w, &d.parent)?;
        le::write_u32_slice(w, &d.vertex_dist)?;
        let ct = &self.condensed;
        le::write_u32_slice(w, &ct.parent)?;
        le::write_f64_slice(w, &ct.birth_lambda)?;
        le::write_f64_slice(w, &ct.stability)?;
        le::write_u32_slice(w, &ct.size)?;
        le::write_u32_slice(w, &ct.point_cluster)?;
        le::write_f64_slice(w, &ct.point_lambda)?;
        Ok(())
    }

    /// Serialize the artifact to bytes (payload + trailing checksum) —
    /// exactly what [`ClusterModel::save`] writes to disk. The dynamic
    /// wrapper format embeds these bytes as its base section.
    pub fn to_bytes(&self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        let sum = fnv1a64(&buf);
        le::write_u64(&mut buf, sum)?;
        Ok(buf)
    }

    /// Write the artifact to `path` (payload + trailing checksum),
    /// atomically: a failed save leaves any previous file intact.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_file_atomic(path, &self.to_bytes()?)
    }

    /// Load an artifact written by [`ClusterModel::save`], validating the
    /// magic, version, dimensionality, checksum, and section invariants,
    /// and rebuilding the kd-tree from the points.
    pub fn load(path: &Path) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Parse an artifact from bytes (checksum included) and rebuild its
    /// kd-tree.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(bad("artifact too short"));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a64(payload) != stored {
            return Err(bad("artifact checksum mismatch (corrupt file)"));
        }
        let mut r = payload;
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("bad artifact magic"));
        }
        check_version(le::read_u32(&mut r)?)?;
        let dims = le::read_u32(&mut r)?;
        if dims as usize != D {
            return Err(bad(format!("artifact has {dims} dims, expected {D}")));
        }
        let n = le::read_u64(&mut r)? as usize;
        if n == 0 {
            return Err(bad("artifact holds zero points"));
        }
        let min_pts = le::read_u64(&mut r)? as usize;
        let min_cluster_size = le::read_u64(&mut r)? as usize;
        let mut points = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let mut c = [0.0; D];
            for slot in c.iter_mut() {
                *slot = le::read_f64(&mut r)?;
            }
            points.push(Point(c));
        }
        let core_distances = le::read_f64_vec(&mut r)?;
        if core_distances.len() != n {
            return Err(bad("core-distance length mismatch"));
        }

        let start = le::read_u32(&mut r)?;
        let root = le::read_u32(&mut r)?;
        let edge_u = le::read_u32_vec(&mut r)?;
        let edge_v = le::read_u32_vec(&mut r)?;
        let height = le::read_f64_vec(&mut r)?;
        let left = le::read_u32_vec(&mut r)?;
        let right = le::read_u32_vec(&mut r)?;
        let parent = le::read_u32_vec(&mut r)?;
        let vertex_dist = le::read_u32_vec(&mut r)?;
        let m = n - 1;
        if edge_u.len() != m
            || edge_v.len() != m
            || height.len() != m
            || left.len() != m
            || right.len() != m
            || parent.len() != 2 * n - 1
            || vertex_dist.len() != n
        {
            return Err(bad("dendrogram section length mismatch"));
        }
        let num_nodes = (2 * n - 1) as u32;
        if root >= num_nodes || start >= n as u32 {
            return Err(bad("dendrogram root/start out of range"));
        }
        if edge_u.iter().chain(&edge_v).any(|&v| v >= n as u32) {
            return Err(bad("dendrogram edge endpoint out of range"));
        }
        if left.iter().chain(&right).any(|&v| v >= num_nodes) {
            return Err(bad("dendrogram child id out of range"));
        }
        let dendrogram = Dendrogram {
            n,
            edge_u,
            edge_v,
            height,
            left,
            right,
            parent,
            root,
            vertex_dist,
            start,
        };

        let ct_parent = le::read_u32_vec(&mut r)?;
        let birth_lambda = le::read_f64_vec(&mut r)?;
        let stability = le::read_f64_vec(&mut r)?;
        let size = le::read_u32_vec(&mut r)?;
        let point_cluster = le::read_u32_vec(&mut r)?;
        let point_lambda = le::read_f64_vec(&mut r)?;
        let k = ct_parent.len();
        if k == 0 {
            return Err(bad("condensed tree must hold the root cluster"));
        }
        if birth_lambda.len() != k || stability.len() != k || size.len() != k {
            return Err(bad("condensed-tree section length mismatch"));
        }
        if point_cluster.len() != n || point_lambda.len() != n {
            return Err(bad("condensed-tree point section length mismatch"));
        }
        if point_cluster.iter().any(|&c| c != NOISE && c as usize >= k) {
            return Err(bad("condensed-tree point cluster out of range"));
        }
        // Parents must precede children (the extraction sweeps rely on it).
        for c in 1..k {
            if ct_parent[c] >= c as u32 {
                return Err(bad("condensed-tree parent order violated"));
            }
        }
        if !r.is_empty() {
            return Err(bad("trailing bytes after artifact payload"));
        }
        let condensed = CondensedTree {
            parent: ct_parent,
            birth_lambda,
            stability,
            size,
            point_cluster,
            point_lambda,
        };
        let tree = KdTree::build(&points);
        Ok(ClusterModel {
            min_pts,
            min_cluster_size,
            points,
            tree,
            core_distances,
            dendrogram,
            condensed,
        })
    }
}

/// Read just the header of an artifact and return its dimensionality —
/// lets binaries dispatch to the right `ClusterModel::<D>` monomorphization
/// before paying for a full load.
pub fn peek_dims(path: &Path) -> io::Result<usize> {
    let mut f = std::fs::File::open(path)?;
    let mut head = [0u8; 12];
    f.read_exact(&mut head)?;
    if &head[0..4] != MAGIC {
        return Err(bad("bad artifact magic"));
    }
    check_version(u32::from_le_bytes(head[4..8].try_into().unwrap()))?;
    Ok(u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn blobs2(n_per: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (50.0, 0.0)] {
            for _ in 0..n_per {
                pts.push(Point([
                    cx + rng.gen_range(-2.0..2.0),
                    cy + rng.gen_range(-2.0..2.0),
                ]));
            }
        }
        pts
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parclust-serve-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn a_failed_save_keeps_the_previous_file_and_leaves_no_temp_file() {
        let dir = tmp("atomic-save");
        let path = dir.join("model.pcsm");
        ClusterModel::build(&blobs2(30, 11), 4, 3)
            .save(&path)
            .unwrap();
        let before = std::fs::read(&path).unwrap();
        let next = ClusterModel::build(&blobs2(40, 12), 4, 3)
            .to_bytes()
            .unwrap();
        let entries = || std::fs::read_dir(&dir).unwrap().count();

        // The injected writer gets half the new bytes out, then fails.
        let err = write_file_atomic_with(&path, |f| {
            f.write_all(&next[..next.len() / 2])?;
            Err(io::Error::other("injected write failure"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "injected write failure");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(entries(), 1, "the temp file must be removed");

        // A save that succeeds replaces the file and leaves nothing else.
        write_file_atomic(&path, &next).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), next);
        assert_eq!(entries(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let pts = blobs2(120, 1);
        let model = ClusterModel::build(&pts, 5, 10);
        let path = tmp("roundtrip.pcsm");
        model.save(&path).unwrap();
        assert_eq!(peek_dims(&path).unwrap(), 2);
        let back = ClusterModel::<2>::load(&path).unwrap();
        assert_eq!(back.min_pts, 5);
        assert_eq!(back.min_cluster_size, 10);
        assert_eq!(back.points, model.points);
        assert_eq!(back.core_distances, model.core_distances);
        assert_eq!(back.dendrogram.height, model.dendrogram.height);
        assert_eq!(back.dendrogram.left, model.dendrogram.left);
        assert_eq!(back.dendrogram.right, model.dendrogram.right);
        assert_eq!(back.dendrogram.parent, model.dendrogram.parent);
        assert_eq!(back.dendrogram.root, model.dendrogram.root);
        assert_eq!(back.condensed.parent, model.condensed.parent);
        assert_eq!(back.condensed.point_cluster, model.condensed.point_cluster);
        assert_eq!(back.tree.idx, model.tree.idx);
        // The reassembled tree answers identical kNN queries.
        for q in pts.iter().step_by(37) {
            assert_eq!(back.tree.knn(q, 5), model.tree.knn(q, 5));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_dims_version_and_magic_are_rejected() {
        let pts = blobs2(40, 2);
        let model = ClusterModel::build(&pts, 3, 5);
        let path = tmp("dims.pcsm");
        model.save(&path).unwrap();
        // Wrong dimensionality at the type level.
        assert!(ClusterModel::<3>::load(&path).is_err());
        let bytes = std::fs::read(&path).unwrap();
        // Corrupt magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(ClusterModel::<2>::from_bytes(&bad_magic).is_err());
        // The tree-carrying versions 1 and 2 and an unknown version 99 —
        // patch the version word and recompute the checksum so versioning
        // (not the checksum) is what rejects the file, in both readers.
        for version in [1u32, 2, 99] {
            let old = with_version(&bytes, version);
            let err = match ClusterModel::<2>::from_bytes(&old) {
                Err(e) => e,
                Ok(_) => panic!("version {version} must be rejected"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("artifact version {version} ")),
                "{msg}"
            );
            assert!(
                msg.contains("rebuild the model with `serve build`"),
                "{msg}"
            );
            std::fs::write(&path, &old).unwrap();
            assert_eq!(peek_dims(&path).unwrap_err().to_string(), msg);
        }
        std::fs::remove_file(&path).ok();
    }

    /// `bytes` with its version word set to `version` and the checksum
    /// recomputed.
    fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[4..8].copy_from_slice(&version.to_le_bytes());
        let plen = out.len() - 8;
        let sum = fnv1a64(&out[..plen]).to_le_bytes();
        out[plen..].copy_from_slice(&sum);
        out
    }

    /// The version-3 size in closed form: header, then per section its
    /// `u64` length prefixes and elements, then the checksum. Nothing in it
    /// scales with a kd-tree.
    fn v3_wire_len(n: usize, dims: usize, clusters: usize) -> usize {
        let (m, nodes) = (n - 1, 2 * n - 1);
        let header = 4 + 4 + 4 + 8 + 8 + 8;
        let points = 8 * n * dims;
        let core_distances = 8 + 8 * n;
        let dendrogram = 4 + 4 + 5 * 8 + m * (4 + 4 + 8 + 4 + 4) + (8 + 4 * nodes) + (8 + 4 * n);
        let condensed = 4 * 8 + clusters * (4 + 8 + 8 + 4) + 2 * 8 + n * (4 + 8);
        header + points + core_distances + dendrogram + condensed + 8
    }

    #[test]
    fn wire_size_matches_the_closed_form() {
        fn check<const D: usize>(n: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point<D>> = (0..n)
                .map(|_| Point(std::array::from_fn(|_| rng.gen_range(-10.0..10.0))))
                .collect();
            let model = ClusterModel::build(&pts, 4, 5);
            let clusters = model.condensed.num_clusters();
            assert_eq!(
                model.to_bytes().unwrap().len(),
                v3_wire_len(n, D, clusters),
                "n={n} D={D} clusters={clusters}"
            );
        }
        check::<2>(1, 1);
        check::<2>(300, 2);
        check::<3>(257, 3);
        check::<7>(120, 4);
    }

    #[test]
    fn source_fed_build_matches_in_memory_build() {
        let pts = blobs2(90, 7);
        let base = ClusterModel::build(&pts, 4, 6);
        // A chunked file with tiny chunks to force many boundaries.
        let path = tmp("source.pcls");
        parclust_data::write_chunked(&path, &pts, 17).unwrap();
        let from_file = parclust_data::read_chunked::<2>(&path).unwrap();
        let streamed = ClusterModel::build(&from_file, 4, 6);
        assert_eq!(streamed.points, base.points);
        assert_eq!(streamed.core_distances, base.core_distances);
        assert_eq!(streamed.dendrogram.height, base.dendrogram.height);
        assert_eq!(streamed.dendrogram.parent, base.dendrogram.parent);
        assert_eq!(streamed.condensed.parent, base.condensed.parent);
        assert_eq!(
            streamed.condensed.point_cluster,
            base.condensed.point_cluster
        );
        // An empty file reads back as zero points; `serve build` turns
        // that into a clean error before building.
        parclust_data::write_chunked::<2>(&path, &[], 8).unwrap();
        assert!(parclust_data::read_chunked::<2>(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_rejected_at_every_prefix() {
        let pts = blobs2(20, 12);
        let model = ClusterModel::build(&pts, 3, 4);
        let mut buf = Vec::new();
        model.write_to(&mut buf).unwrap();
        let sum = fnv1a64(&buf);
        le::write_u64(&mut buf, sum).unwrap();
        assert!(ClusterModel::<2>::from_bytes(&buf).is_ok());
        for cut in (0..buf.len()).step_by(7).chain([buf.len() - 1]) {
            assert!(
                ClusterModel::<2>::from_bytes(&buf[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn random_bit_flips_are_rejected() {
        let pts = blobs2(20, 13);
        let model = ClusterModel::build(&pts, 3, 4);
        let mut buf = Vec::new();
        model.write_to(&mut buf).unwrap();
        let sum = fnv1a64(&buf);
        le::write_u64(&mut buf, sum).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..64 {
            let byte = rng.gen_range(0..buf.len());
            let bit = 1u8 << rng.gen_range(0..8);
            let mut corrupt = buf.clone();
            corrupt[byte] ^= bit;
            assert!(
                ClusterModel::<2>::from_bytes(&corrupt).is_err(),
                "bit flip at byte {byte} must be rejected"
            );
        }
    }

    #[test]
    fn single_point_model_roundtrips() {
        let model = ClusterModel::build(&[Point([3.0, 4.0])], 5, 5);
        let path = tmp("single.pcsm");
        model.save(&path).unwrap();
        let back = ClusterModel::<2>::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.dendrogram.height.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
