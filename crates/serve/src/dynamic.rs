//! Dynamic (mutable) models behind the serving layer.
//!
//! A [`DynEntry`] owns a [`parclust_dyn::DynamicModel`] plus the journal
//! needed to persist it, and republishes a fresh read-only query handle
//! through the [`ModelRegistry`]'s snapshot cell after every mutation —
//! readers keep routing lock-free against complete, immutable model
//! versions while `POST /models/{id}/insert` and `POST /admin/compact`
//! mutate behind a per-model mutex.
//!
//! ## Versioned dynamic artifact ("PCDY")
//!
//! A dynamic model is persisted as a *wrapper* around an ordinary base
//! [`ClusterModel`] artifact (at the current
//! [`FORMAT_VERSION`](crate::artifact::FORMAT_VERSION), so no stored
//! kd-tree) plus the journal of batches applied since that base was cut
//! (all little-endian):
//!
//! ```text
//! "PCDY" | dyn_version u32 (= 2) | dims u32
//! reserved u64                         (written 0, ignored on read)
//! model_version u64 | base_version u64
//! base_len u64 | base bytes            (a complete "PCSM" artifact)
//! n_batches u64, per batch: n_inserts u64, coords n·D f64,
//!                           n_deletes u64, live indices u64[]
//! checksum  FNV-1a 64 of every preceding byte
//! ```
//!
//! Loading replays the journal through [`DynamicModel::apply`] — which is
//! bit-identical to a from-scratch build at every step (pinned by
//! `tests/incremental_semantics.rs`) — and cross-checks the final version
//! number. [`DynModelHandle::compact`] rebases: it rebuilds, serializes
//! the current state as the new base, and empties the journal. Version 1
//! also stored the removed merge-vs-rebuild policy knobs; it is rejected
//! by the version check, as is a base artifact of any other version than
//! the current one. The reserved field once held `max_live_pairs`, the
//! pair cap of a removed streaming build engine; that engine built
//! hierarchies bit-identical to MemoGFK's, so wrappers that stored a
//! nonzero cap load exactly.
//!
//! ## One kd-tree per version
//!
//! Each model version builds exactly one kd-tree: the base version's is
//! the one [`ClusterModel::from_bytes`] builds while loading the base
//! artifact, handed to [`DynamicModel::from_parts`]; every later version's
//! is built inside [`DynamicModel::apply`] or `rebuild`. Publishing moves
//! that tree into the served [`ClusterModel`], and the entry keeps the
//! handle it published, so neither a mutation nor
//! [`DynModelHandle::query_handle`] builds another.

use crate::artifact::{write_file_atomic, ClusterModel};
use crate::registry::{handle_for_model, ModelHandle, ModelRegistry};
use crate::with_model_dims;
use parclust_data::io::{fnv1a64, le};
use parclust_dyn::{DynConfig, DynamicModel, MutationBatch};
use parclust_geom::Point;
use serde_json::Value;
use std::io::{self, Read};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Dynamic-wrapper magic: "ParClust DYnamic".
pub const DYN_MAGIC: &[u8; 4] = b"PCDY";
/// Current dynamic-wrapper format version.
pub const DYN_FORMAT_VERSION: u32 = 2;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Dimension-erased mutable model: what the admin/mutation routes speak.
/// Query traffic never goes through this — every mutation republishes a
/// plain [`ModelHandle`] and readers keep using registry snapshots.
pub trait DynModelHandle: Send + Sync {
    /// Point dimensionality.
    fn dims(&self) -> usize;
    /// Current model version (bumps by one per applied batch).
    fn version(&self) -> u64;
    /// Mutation-facing metadata (merged into `GET /models/{id}` info by
    /// the caller if desired).
    fn info(&self) -> Value;
    /// A read-only query handle over the *current* state.
    fn query_handle(&self) -> Arc<dyn ModelHandle>;
    /// Apply one batch (row-major flat insert coordinates + live delete
    /// indices), journal it, and republish `id` in `registry`. Returns the
    /// apply report as JSON.
    fn mutate(
        &self,
        registry: &ModelRegistry,
        id: &str,
        inserts_flat: &[f64],
        deletes: &[usize],
    ) -> Result<Value, String>;
    /// Force a full rebuild, rebase the journal onto the rebuilt state,
    /// republish, and optionally persist the wrapper to `save_path`.
    fn compact(
        &self,
        registry: &ModelRegistry,
        id: &str,
        save_path: Option<&Path>,
    ) -> Result<Value, String>;
    /// Persist the wrapper (base artifact + journal) to `path`.
    fn save(&self, path: &Path) -> io::Result<()>;
}

struct DynState<const D: usize> {
    model: DynamicModel<D>,
    /// The query handle published for the current version.
    handle: Arc<dyn ModelHandle>,
    /// Serialized base artifact (complete "PCSM" bytes) the journal
    /// replays on top of.
    base: Vec<u8>,
    base_version: u64,
    journal: Vec<MutationBatch<D>>,
}

/// A dynamic model of fixed dimension: one mutex around the model and its
/// journal. The registry publish happens while the mutex is held, so
/// published snapshots appear in version order.
pub struct DynEntry<const D: usize> {
    state: Mutex<DynState<D>>,
}

impl<const D: usize> DynEntry<D> {
    /// Wrap a freshly loaded base artifact as a dynamic model at
    /// `base_version` with an empty journal.
    pub fn from_artifact(model: ClusterModel<D>, base_bytes: Vec<u8>) -> io::Result<Arc<Self>> {
        let mut dyn_model = DynamicModel::from_parts(
            model.points,
            model.tree,
            model.min_pts,
            model.min_cluster_size,
            model.core_distances,
            model.dendrogram,
            model.condensed,
            1,
        )
        .map_err(bad)?;
        Ok(Arc::new(DynEntry {
            state: Mutex::new(DynState {
                handle: handle_for_model(current_model(&mut dyn_model)),
                model: dyn_model,
                base: base_bytes,
                base_version: 1,
                journal: Vec::new(),
            }),
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DynState<D>> {
        // A panic while holding the lock means a poisoned model; recovering
        // the guard would serve a state of unknown integrity.
        self.state.lock().expect("dynamic model lock poisoned")
    }
}

/// Package the dynamic model's current version as a servable
/// [`ClusterModel`], moving in the kd-tree that version was built on.
/// Called once per version.
fn current_model<const D: usize>(m: &mut DynamicModel<D>) -> ClusterModel<D> {
    let tree = m
        .take_tree()
        .expect("each model version is published once, with the tree it was built on");
    ClusterModel {
        min_pts: m.min_pts(),
        min_cluster_size: m.min_cluster_size(),
        points: m.points().to_vec(),
        tree,
        core_distances: m.core_distances().to_vec(),
        dendrogram: m.dendrogram().clone(),
        condensed: m.condensed().clone(),
    }
}

fn write_wrapper<const D: usize>(state: &DynState<D>) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let w = &mut buf;
    w.extend_from_slice(DYN_MAGIC);
    le::write_u32(w, DYN_FORMAT_VERSION)?;
    le::write_u32(w, D as u32)?;
    le::write_u64(w, 0)?; // reserved
    le::write_u64(w, state.model.version())?;
    le::write_u64(w, state.base_version)?;
    le::write_u64(w, state.base.len() as u64)?;
    w.extend_from_slice(&state.base);
    le::write_u64(w, state.journal.len() as u64)?;
    for batch in &state.journal {
        le::write_u64(w, batch.inserts.len() as u64)?;
        for p in &batch.inserts {
            for &c in p.coords() {
                le::write_f64(w, c)?;
            }
        }
        le::write_u64(w, batch.deletes.len() as u64)?;
        for &i in &batch.deletes {
            le::write_u64(w, i as u64)?;
        }
    }
    let sum = fnv1a64(&buf);
    le::write_u64(&mut buf, sum)?;
    Ok(buf)
}

impl<const D: usize> DynModelHandle for DynEntry<D> {
    fn dims(&self) -> usize {
        D
    }

    fn version(&self) -> u64 {
        self.lock().model.version()
    }

    fn info(&self) -> Value {
        let state = self.lock();
        serde_json::json!({
            "dynamic": true,
            "version": state.model.version(),
            "n": state.model.len() as u64,
            "journal_batches": state.journal.len() as u64,
            "base_version": state.base_version,
        })
    }

    fn query_handle(&self) -> Arc<dyn ModelHandle> {
        Arc::clone(&self.lock().handle)
    }

    fn mutate(
        &self,
        registry: &ModelRegistry,
        id: &str,
        inserts_flat: &[f64],
        deletes: &[usize],
    ) -> Result<Value, String> {
        if !inserts_flat.len().is_multiple_of(D) {
            return Err(format!(
                "{} insert coordinates do not split into {D}-dimensional points",
                inserts_flat.len()
            ));
        }
        if inserts_flat.iter().any(|c| !c.is_finite()) {
            return Err("insert coordinates must be finite".to_string());
        }
        let batch = MutationBatch {
            inserts: inserts_flat
                .chunks_exact(D)
                .map(|c| {
                    let mut p = [0.0; D];
                    p.copy_from_slice(c);
                    Point(p)
                })
                .collect(),
            deletes: deletes.to_vec(),
        };
        if batch.is_empty() {
            return Err("empty mutation batch (no inserts, no deletes)".to_string());
        }
        let mut state = self.lock();
        let report = state.model.apply(&batch)?;
        state.journal.push(batch);
        state.handle = handle_for_model(current_model(&mut state.model));
        // Publish while still holding the mutation lock: registry snapshots
        // of this id appear in version order.
        registry
            .insert(id, Arc::clone(&state.handle))
            .map_err(|e| format!("republish {id:?}: {e}"))?;
        Ok(serde_json::json!({
            "model": id,
            "version": report.version,
            "n": report.n as u64,
            "inserted": report.inserted as u64,
            "deleted": report.deleted as u64,
            "path": report.path.as_str(),
            "recomputed": report.recomputed as u64,
        }))
    }

    fn compact(
        &self,
        registry: &ModelRegistry,
        id: &str,
        save_path: Option<&Path>,
    ) -> Result<Value, String> {
        let mut state = self.lock();
        let report = state.model.rebuild();
        let compacted = current_model(&mut state.model);
        state.base = compacted.to_bytes().map_err(|e| format!("rebase: {e}"))?;
        state.base_version = report.version;
        state.journal.clear();
        state.handle = handle_for_model(compacted);
        registry
            .insert(id, Arc::clone(&state.handle))
            .map_err(|e| format!("republish {id:?}: {e}"))?;
        let saved = match save_path {
            Some(path) => {
                let buf = write_wrapper(&*state).map_err(|e| format!("serialize: {e}"))?;
                write_file_atomic(path, &buf).map_err(|e| format!("write {path:?}: {e}"))?;
                Value::String(path.display().to_string())
            }
            None => Value::Null,
        };
        Ok(serde_json::json!({
            "model": id,
            "version": report.version,
            "n": report.n as u64,
            "journal_batches": 0u64,
            "saved": saved,
        }))
    }

    fn save(&self, path: &Path) -> io::Result<()> {
        let buf = write_wrapper(&*self.lock())?;
        write_file_atomic(path, &buf)
    }
}

/// Parse a dynamic wrapper of known dimension, replaying the journal.
fn from_bytes<const D: usize>(bytes: &[u8]) -> io::Result<Arc<DynEntry<D>>> {
    if bytes.len() < DYN_MAGIC.len() + 8 {
        return Err(bad("dynamic artifact too short"));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a64(payload) != stored {
        return Err(bad("dynamic artifact checksum mismatch (corrupt file)"));
    }
    let mut r = payload;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != DYN_MAGIC {
        return Err(bad("bad dynamic artifact magic"));
    }
    let version = le::read_u32(&mut r)?;
    if version != DYN_FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported dynamic artifact version {version} \
             (this build reads {DYN_FORMAT_VERSION})"
        )));
    }
    let dims = le::read_u32(&mut r)?;
    if dims as usize != D {
        return Err(bad(format!(
            "dynamic artifact has {dims} dims, expected {D}"
        )));
    }
    let _reserved = le::read_u64(&mut r)?;
    let model_version = le::read_u64(&mut r)?;
    let base_version = le::read_u64(&mut r)?;
    let base_len = le::read_u64(&mut r)? as usize;
    if base_len > r.len() {
        return Err(bad("dynamic artifact base length overruns the file"));
    }
    let (base, mut r) = r.split_at(base_len);
    let base_model = ClusterModel::<D>::from_bytes(base)?;
    let mut model = DynamicModel::from_parts(
        base_model.points,
        base_model.tree,
        base_model.min_pts,
        base_model.min_cluster_size,
        base_model.core_distances,
        base_model.dendrogram,
        base_model.condensed,
        base_version,
    )
    .map_err(bad)?;
    let n_batches = le::read_u64(&mut r)? as usize;
    let mut journal = Vec::with_capacity(n_batches.min(1 << 16));
    for b in 0..n_batches {
        let n_ins = le::read_u64(&mut r)? as usize;
        let mut inserts = Vec::with_capacity(n_ins.min(1 << 20));
        for _ in 0..n_ins {
            let mut c = [0.0; D];
            for slot in c.iter_mut() {
                *slot = le::read_f64(&mut r)?;
            }
            inserts.push(Point(c));
        }
        let n_del = le::read_u64(&mut r)? as usize;
        let mut deletes = Vec::with_capacity(n_del.min(1 << 20));
        for _ in 0..n_del {
            deletes.push(le::read_u64(&mut r)? as usize);
        }
        let batch = MutationBatch { inserts, deletes };
        model
            .apply(&batch)
            // analyze:allow(hotpath-alloc-in-loop) — load path: replay errors are terminal
            .map_err(|e| bad(format!("journal batch {b} failed to replay: {e}")))?;
        journal.push(batch);
    }
    if model.version() != model_version {
        return Err(bad(format!(
            "journal replay reached version {}, header claims {model_version}",
            model.version()
        )));
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes after dynamic artifact payload"));
    }
    Ok(Arc::new(DynEntry {
        state: Mutex::new(DynState {
            handle: handle_for_model(current_model(&mut model)),
            model,
            base: base.to_vec(),
            base_version,
            journal,
        }),
    }))
}

/// Dimensionality of a dynamic wrapper (header peek, offset shared with
/// the base artifact format).
pub fn peek_dyn_dims(bytes: &[u8]) -> io::Result<usize> {
    if bytes.len() < 12 || &bytes[0..4] != DYN_MAGIC {
        return Err(bad("bad dynamic artifact magic"));
    }
    Ok(u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize)
}

/// Load a `"PCDY"` dynamic artifact, dispatching on its stored
/// dimensionality.
pub fn load_dynamic_path(path: &Path) -> io::Result<Arc<dyn DynModelHandle>> {
    let bytes = std::fs::read(path)?;
    let dims = peek_dyn_dims(&bytes)?;
    if !crate::SUPPORTED_DIMS.contains(&dims) {
        return Err(bad(format!(
            "dynamic artifact {} has unsupported dimensionality {dims} (supported: {:?})",
            path.display(),
            crate::SUPPORTED_DIMS
        )));
    }
    Ok(with_model_dims!(dims, |D| from_bytes::<D>(&bytes)?))
}

/// Wrap an ordinary `"PCSM"` artifact at `path` as a fresh dynamic model
/// (empty journal, version 1). [`DynConfig`] has no fields; the parameter
/// keeps existing callers compiling.
pub fn wrap_artifact_path(path: &Path, _cfg: DynConfig) -> io::Result<Arc<dyn DynModelHandle>> {
    let bytes = std::fs::read(path)?;
    let dims = crate::artifact::peek_dims(path)?;
    if !crate::SUPPORTED_DIMS.contains(&dims) {
        return Err(bad(format!(
            "artifact {} has unsupported dimensionality {dims} (supported: {:?})",
            path.display(),
            crate::SUPPORTED_DIMS
        )));
    }
    Ok(with_model_dims!(dims, |D| {
        let model = ClusterModel::<D>::from_bytes(&bytes)?;
        DynEntry::<D>::from_artifact(model, bytes)?
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn blob_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point([rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)]))
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parclust-dyn-serve-{}-{name}", std::process::id()));
        p
    }

    fn entry_for(pts: &[Point<2>], seed: u64) -> Arc<dyn DynModelHandle> {
        let model = ClusterModel::build(pts, 4, 3);
        let path = tmp(&format!("base-{seed}.pcsm"));
        model.save(&path).unwrap();
        let entry = wrap_artifact_path(&path, DynConfig::default()).unwrap();
        std::fs::remove_file(&path).ok();
        entry
    }

    #[test]
    fn mutate_republishes_and_versions_advance() {
        let registry = ModelRegistry::new();
        let entry = entry_for(&blob_points(60, 1), 1);
        registry.insert("m", entry.query_handle()).unwrap();
        assert_eq!(registry.snapshot().get("m").unwrap().num_points(), 60);
        let report = entry
            .mutate(&registry, "m", &[9.0, 9.0, 9.5, 9.5], &[0])
            .unwrap();
        assert_eq!(report.get("n").and_then(Value::as_u64), Some(61));
        assert_eq!(report.get("version").and_then(Value::as_u64), Some(2));
        assert_eq!(registry.snapshot().get("m").unwrap().num_points(), 61);
        // Empty and malformed batches are rejected without a version bump.
        assert!(entry.mutate(&registry, "m", &[], &[]).is_err());
        assert!(entry.mutate(&registry, "m", &[1.0], &[]).is_err());
        assert!(entry.mutate(&registry, "m", &[f64::NAN, 0.0], &[]).is_err());
        assert_eq!(entry.version(), 2);
    }

    #[test]
    fn wrapper_roundtrips_with_journal_replay() {
        let registry = ModelRegistry::new();
        let entry = entry_for(&blob_points(50, 2), 2);
        registry.insert("m", entry.query_handle()).unwrap();
        entry
            .mutate(&registry, "m", &[8.0, 8.0, 8.25, 8.25, 8.5, 8.5], &[3, 7])
            .unwrap();
        entry.mutate(&registry, "m", &[], &[0, 10]).unwrap();
        let path = tmp("roundtrip.pcdy");
        entry.save(&path).unwrap();
        let back = load_dynamic_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dims(), 2);
        assert_eq!(back.version(), entry.version());
        let a = entry.info();
        let b = back.info();
        assert_eq!(a.get("n"), b.get("n"));
        assert_eq!(a.get("journal_batches"), b.get("journal_batches"));
        // The replayed model serves the same labeling.
        let spec = crate::engine::LabelingSpec::Eom {
            cluster_selection_epsilon: 0.0,
        };
        assert_eq!(
            entry.query_handle().labeling(spec).labels,
            back.query_handle().labeling(spec).labels
        );
    }

    #[test]
    fn compact_rebases_and_empties_the_journal() {
        let registry = ModelRegistry::new();
        let entry = entry_for(&blob_points(40, 3), 3);
        registry.insert("m", entry.query_handle()).unwrap();
        entry.mutate(&registry, "m", &[7.0, 7.0], &[]).unwrap();
        let path = tmp("compacted.pcdy");
        let spec = crate::engine::LabelingSpec::Eom {
            cluster_selection_epsilon: 0.0,
        };
        let before = entry.query_handle().labeling(spec).labels.clone();
        let report = entry.compact(&registry, "m", Some(&path)).unwrap();
        assert_eq!(
            report.get("journal_batches").and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(report.get("version").and_then(Value::as_u64), Some(3));
        // Compaction is a rebase, not a semantic change.
        assert_eq!(entry.query_handle().labeling(spec).labels, before);
        let back = load_dynamic_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.version(), 3);
        assert_eq!(back.query_handle().labeling(spec).labels, before);
    }

    /// kd-trees this thread builds while `f` runs, counted from the
    /// `kdtree.build` spans in this thread's trace ring.
    fn tree_builds<T>(f: impl FnOnce() -> T) -> (T, usize) {
        parclust_obs::trace::enable();
        let count = || {
            drop(parclust_obs::span!("test.count_tree_builds"));
            let events = parclust_obs::export::drain();
            let me = events
                .iter()
                .rev()
                .find(|e| e.name == "test.count_tree_builds")
                .expect("marker span recorded")
                .tid;
            events
                .iter()
                .filter(|e| e.tid == me && e.name == "kdtree.build")
                .count()
        };
        let before = count();
        let out = f();
        (out, count() - before)
    }

    #[test]
    fn each_model_version_builds_exactly_one_kd_tree() {
        let (model, builds) = tree_builds(|| ClusterModel::build(&blob_points(50, 5), 4, 3));
        assert_eq!(builds, 1, "ClusterModel::build");
        let path = tmp("one-tree.pcsm");
        model.save(&path).unwrap();
        let (_, builds) = tree_builds(|| ClusterModel::<2>::load(&path).unwrap());
        assert_eq!(builds, 1, "ClusterModel::load rebuilds the tree");
        let (entry, builds) =
            tree_builds(|| wrap_artifact_path(&path, DynConfig::default()).unwrap());
        assert_eq!(builds, 1, "wrapping an artifact reuses the loaded tree");
        let registry = ModelRegistry::new();
        let (_, builds) = tree_builds(|| registry.load_path("frozen", &path).unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(builds, 1, "registry.load_path on a .pcsm");

        let (_, builds) = tree_builds(|| registry.insert("m", entry.query_handle()).unwrap());
        assert_eq!(builds, 0, "query_handle hands out the published handle");
        let (_, builds) = tree_builds(|| entry.mutate(&registry, "m", &[9.0, 9.0], &[0]).unwrap());
        assert_eq!(builds, 1, "mutate");
        let served = registry.snapshot().get("m").unwrap();
        assert!(Arc::ptr_eq(&entry.query_handle(), &served));

        let wrapper = tmp("one-tree.pcdy");
        entry.save(&wrapper).unwrap();
        let (_, builds) = tree_builds(|| load_dynamic_path(&wrapper).unwrap());
        std::fs::remove_file(&wrapper).ok();
        assert_eq!(builds, 2, "base version + one replayed batch");
        let (_, builds) = tree_builds(|| entry.compact(&registry, "m", None).unwrap());
        assert_eq!(builds, 1, "compact");
        parclust_obs::trace::disable();
    }

    #[test]
    fn wrappers_with_a_stored_pair_cap_still_load() {
        // Before the reserved field, a capped model stored its pair cap at
        // byte 12; the cap never changed the hierarchy, so such a wrapper
        // loads exactly.
        let registry = ModelRegistry::new();
        let entry = entry_for(&blob_points(50, 6), 6);
        registry.insert("m", entry.query_handle()).unwrap();
        entry
            .mutate(&registry, "m", &[8.0, 8.0, 8.5, 8.5], &[2])
            .unwrap();
        let path = tmp("capped.pcdy");
        entry.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes[12..20], [0; 8], "this build writes the field as 0");
        bytes[12..20].copy_from_slice(&200_000u64.to_le_bytes());
        let plen = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..plen]).to_le_bytes();
        bytes[plen..].copy_from_slice(&sum);
        let back = load_dynamic_path_bytes(&bytes).unwrap();
        assert_eq!(back.version(), 2);
        // From scratch over the live set: index 2 deleted, inserts appended.
        let mut live = blob_points(50, 6);
        live.remove(2);
        live.extend([Point([8.0, 8.0]), Point([8.5, 8.5])]);
        let scratch = handle_for_model(ClusterModel::build(&live, 4, 3));
        let spec = crate::engine::LabelingSpec::Eom {
            cluster_selection_epsilon: 0.0,
        };
        assert_eq!(
            back.query_handle().labeling(spec).labels,
            scratch.labeling(spec).labels
        );
    }

    #[test]
    fn corrupt_wrappers_are_rejected() {
        let entry = entry_for(&blob_points(30, 4), 4);
        let path = tmp("corrupt.pcdy");
        entry.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Bit flip anywhere → checksum mismatch.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x10;
        assert!(load_dynamic_path_bytes(&flipped).is_err());
        // Truncation → clean error.
        assert!(load_dynamic_path_bytes(&bytes[..bytes.len() / 2]).is_err());
        // Wrong magic → not a dynamic artifact.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(load_dynamic_path_bytes(&wrong).is_err());
        // An embedded base of the tree-carrying version 2, both checksums
        // recomputed → the base artifact's version check rejects it.
        let base_at = 4 + 4 + 4 + 8 + 8 + 8 + 8;
        let base_len = u64::from_le_bytes(bytes[base_at - 8..base_at].try_into().unwrap());
        let base_end = base_at + base_len as usize;
        let mut old = bytes.clone();
        old[base_at + 4..base_at + 8].copy_from_slice(&2u32.to_le_bytes());
        let sum = fnv1a64(&old[base_at..base_end - 8]).to_le_bytes();
        old[base_end - 8..base_end].copy_from_slice(&sum);
        let plen = old.len() - 8;
        let sum = fnv1a64(&old[..plen]).to_le_bytes();
        old[plen..].copy_from_slice(&sum);
        let err = match load_dynamic_path_bytes(&old) {
            Err(e) => e,
            Ok(_) => panic!("a version-2 base must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("artifact version 2 ")
                && err.to_string().contains("serve build"),
            "{err}"
        );
    }

    /// Test shim: run the load path over in-memory bytes.
    fn load_dynamic_path_bytes(bytes: &[u8]) -> io::Result<Arc<dyn DynModelHandle>> {
        let dims = peek_dyn_dims(bytes)?;
        if !crate::SUPPORTED_DIMS.contains(&dims) {
            return Err(bad("unsupported dims"));
        }
        Ok(with_model_dims!(dims, |D| from_bytes::<D>(bytes)?))
    }
}
