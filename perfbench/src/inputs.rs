//! Seeded inputs. Every stream a run uses — the order of the training
//! points, queries, inserts, deletes — is derived from the one `--seed`,
//! so the same seed gives the same inputs; the programs under test only
//! ever see the generated points.

use parclust_data::{gps_like, sensor_like};
use parclust_dyn::MutationBatch;
use parclust_geom::Point;
use rand::prelude::*;

pub const MIN_PTS: usize = 10;
pub const MIN_CLUSTER_SIZE: usize = 50;
/// Query points per assign request.
pub const BATCH_POINTS: usize = 256;
/// Distinct query batches a run cycles through.
pub const QUERY_BATCHES: usize = 64;
pub const INSERTS_PER_BATCH: usize = 64;
pub const DELETES_PER_BATCH: usize = 16;

const TRAIN: u64 = 1;
const QUERY: u64 = 2;
const INSERT: u64 = 3;
const DELETE: u64 = 4;
const HOUSEHOLD: u64 = 5;

/// Independent seed for one input stream of a run (SplitMix64 finalizer).
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator seed of the training and EMST point sets. These sets are
/// part of the workload, like their size: MemoGFK's peak live pairs (and
/// so the peak heap) move by a third between two sets drawn from the same
/// generator, even between jittered copies of one set, so a set drawn
/// from `--seed` would make every run a different workload. `--seed`
/// shuffles the order of the points instead (which permutes kd-tree
/// positions, original indices and labels) and draws every query, insert
/// and delete.
const SHAPE_SEED: u64 = 42;

fn shuffled<const D: usize>(mut points: Vec<Point<D>>, seed: u64) -> Vec<Point<D>> {
    points.shuffle(&mut StdRng::seed_from_u64(seed));
    points
}

/// 3D GeoLife-like training points.
pub fn geolife(n: usize, seed: u64) -> Vec<Point<3>> {
    shuffled(gps_like(n, SHAPE_SEED), stream_seed(seed, TRAIN))
}

/// 7D Household-like points.
pub fn household(n: usize, seed: u64) -> Vec<Point<7>> {
    shuffled(
        sensor_like::<7>(n, SHAPE_SEED, 8),
        stream_seed(seed, HOUSEHOLD),
    )
}

/// One GPS-noise-sized step of `gps_like`.
const GPS_STEP: [f64; 3] = [1e-3, 1e-3, 5e-3];

/// A point one GPS-noise-sized step away from `base` — in distribution
/// for GeoLife-like data.
fn jitter(rng: &mut StdRng, base: &Point<3>) -> Point<3> {
    let mut c = *base.coords();
    for (x, s) in c.iter_mut().zip(GPS_STEP) {
        *x += rng.gen_range(-s..s);
    }
    Point(c)
}

/// `QUERY_BATCHES` batches of `BATCH_POINTS` in-distribution queries.
pub fn query_batches(train: &[Point<3>], seed: u64) -> Vec<Vec<Point<3>>> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, QUERY));
    (0..QUERY_BATCHES)
        .map(|_| {
            (0..BATCH_POINTS)
                .map(|_| {
                    let i = rng.gen_range(0..train.len());
                    jitter(&mut rng, &train[i])
                })
                .collect()
        })
        .collect()
}

/// The seeded sequence of mutation batches, and the live set it leads to.
/// Each batch inserts `INSERTS_PER_BATCH` jittered copies of live points
/// and deletes `DELETES_PER_BATCH` distinct live indices; [`next_batch`] also
/// applies the batch to [`MutationStream::live`] with the dynamic model's
/// semantics (survivors keep their order, inserts append).
///
/// [`next_batch`]: MutationStream::next_batch
pub struct MutationStream {
    ins: StdRng,
    del: StdRng,
    pub live: Vec<Point<3>>,
}

impl MutationStream {
    pub fn new(base: &[Point<3>], seed: u64) -> Self {
        MutationStream {
            ins: StdRng::seed_from_u64(stream_seed(seed, INSERT)),
            del: StdRng::seed_from_u64(stream_seed(seed, DELETE)),
            live: base.to_vec(),
        }
    }

    pub fn next_batch(&mut self) -> MutationBatch<3> {
        let n = self.live.len();
        let inserts: Vec<Point<3>> = (0..INSERTS_PER_BATCH)
            .map(|_| {
                let i = self.ins.gen_range(0..n);
                jitter(&mut self.ins, &self.live[i])
            })
            .collect();
        let mut deletes: Vec<usize> = Vec::with_capacity(DELETES_PER_BATCH);
        while deletes.len() < DELETES_PER_BATCH {
            let d = self.del.gen_range(0..n);
            if !deletes.contains(&d) {
                deletes.push(d);
            }
        }
        let mut dead = deletes.clone();
        dead.sort_unstable();
        let mut i = 0usize;
        self.live.retain(|_| {
            let keep = dead.binary_search(&i).is_err();
            i += 1;
            keep
        });
        self.live.extend_from_slice(&inserts);
        MutationBatch { inserts, deletes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(geolife(500, 7), geolife(500, 7));
        assert_ne!(geolife(500, 7), geolife(500, 8));
        let (mut a, mut b) = (geolife(500, 7), geolife(500, 8));
        a.sort_by(|p, q| p.coords().partial_cmp(q.coords()).unwrap());
        b.sort_by(|p, q| p.coords().partial_cmp(q.coords()).unwrap());
        assert_eq!(a, b, "seeds permute one point set");
        assert_ne!(stream_seed(7, TRAIN), stream_seed(7, QUERY));
        assert_eq!(geolife(1001, 7).len(), 1001);
        assert_eq!(household(999, 7).len(), 999);
        let train = geolife(500, 7);
        assert_eq!(query_batches(&train, 7), query_batches(&train, 7));
    }

    #[test]
    fn mutation_stream_tracks_the_live_set() {
        let base = geolife(1000, 3);
        let mut s = MutationStream::new(&base, 3);
        let b = s.next_batch();
        assert_eq!(b.inserts.len(), INSERTS_PER_BATCH);
        assert_eq!(b.deletes.len(), DELETES_PER_BATCH);
        assert_eq!(s.live.len(), 1000 + INSERTS_PER_BATCH - DELETES_PER_BATCH);
        assert_eq!(s.live[s.live.len() - INSERTS_PER_BATCH..], b.inserts[..]);
        let first_deleted = *b.deletes.iter().min().unwrap();
        assert_eq!(s.live[..first_deleted], base[..first_deleted]);
    }
}
