//! Axis-aligned bounding boxes and derived bounding balls.
//!
//! kd-tree nodes carry an [`Aabb`]; the WSPD's well-separation test and the
//! MemoGFK weight bounds are phrased on the *bounding spheres* of the boxes
//! (Table 1 of the paper: `d(A,B)` is the minimum distance between bounding
//! spheres, `A_diam` the sphere diameter), so the ball view lives here too.

use crate::point::Point;

/// Axis-aligned bounding box. An *empty* box has `lo > hi` in every
/// dimension and absorbs any point on [`Aabb::extend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    pub lo: Point<D>,
    pub hi: Point<D>,
}

impl<const D: usize> Default for Aabb<D> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<const D: usize> Aabb<D> {
    /// The empty box (identity for [`Aabb::merge`]).
    pub fn empty() -> Self {
        Aabb {
            lo: Point([f64::INFINITY; D]),
            hi: Point([f64::NEG_INFINITY; D]),
        }
    }

    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.lo[i] > self.hi[i])
    }

    /// Smallest box containing all `points`.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.extend(p);
        }
        b
    }

    /// Grow to contain `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point<D>) {
        for i in 0..D {
            self.lo[i] = self.lo[i].min(p[i]);
            self.hi[i] = self.hi[i].max(p[i]);
        }
    }

    /// Smallest box containing both boxes.
    #[inline]
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = *self;
        for i in 0..D {
            out.lo[i] = out.lo[i].min(other.lo[i]);
            out.hi[i] = out.hi[i].max(other.hi[i]);
        }
        out
    }

    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Box center = bounding-ball center.
    #[inline]
    pub fn center(&self) -> Point<D> {
        self.lo.midpoint(&self.hi)
    }

    /// Squared length of the box diagonal (= squared bounding-ball diameter).
    #[inline]
    pub fn diag_sq(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.hi[i] - self.lo[i];
            acc += d * d;
        }
        acc
    }

    /// Bounding-ball diameter (`A_diam` in the paper).
    #[inline]
    pub fn diameter(&self) -> f64 {
        self.diag_sq().sqrt()
    }

    /// Bounding-ball radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        0.5 * self.diameter()
    }

    /// Index of the widest dimension (split dimension for the spatial-median
    /// kd-tree).
    pub fn widest_dim(&self) -> usize {
        let mut best = 0;
        let mut best_w = f64::NEG_INFINITY;
        for i in 0..D {
            let w = self.hi[i] - self.lo[i];
            if w > best_w {
                best_w = w;
                best = i;
            }
        }
        best
    }

    /// Squared minimum distance from `p` to this box (0 if inside).
    #[inline]
    pub fn dist_sq_to_point(&self, p: &Point<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = if p[i] < self.lo[i] {
                self.lo[i] - p[i]
            } else if p[i] > self.hi[i] {
                p[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Squared minimum distance between two boxes (0 if overlapping).
    #[inline]
    pub fn min_dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = if other.hi[i] < self.lo[i] {
                self.lo[i] - other.hi[i]
            } else if other.lo[i] > self.hi[i] {
                other.lo[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Minimum distance between the bounding *spheres* of the two boxes —
    /// the paper's `d(A, B)` (Table 1). Clamped at zero when the spheres
    /// intersect.
    #[inline]
    pub fn sphere_min_dist(&self, other: &Self) -> f64 {
        let c = crate::dist(&self.center(), &other.center());
        (c - self.radius() - other.radius()).max(0.0)
    }

    /// Callahan–Kosaraju well-separation with separation constant `s`: the
    /// bounding balls, each grown to the larger radius `r`, must be at least
    /// `s * r` apart.
    #[inline]
    pub fn well_separated(&self, other: &Self, s: f64) -> bool {
        let r = self.radius().max(other.radius());
        let gap = crate::dist(&self.center(), &other.center()) - 2.0 * r;
        gap >= s * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_absorbs() {
        let mut b = Aabb::<2>::empty();
        assert!(b.is_empty());
        b.extend(&Point([1.0, 2.0]));
        assert!(!b.is_empty());
        assert_eq!(b.lo, Point([1.0, 2.0]));
        assert_eq!(b.hi, Point([1.0, 2.0]));
        assert_eq!(b.diameter(), 0.0);
    }

    #[test]
    fn from_points_and_contains() {
        let pts = [Point([0.0, 0.0]), Point([2.0, 1.0]), Point([1.0, 3.0])];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.lo, Point([0.0, 0.0]));
        assert_eq!(b.hi, Point([2.0, 3.0]));
        assert!(b.contains(&Point([1.0, 1.0])));
        assert!(!b.contains(&Point([3.0, 1.0])));
        assert_eq!(b.center(), Point([1.0, 1.5]));
    }

    #[test]
    fn widest_dim_picks_largest_extent() {
        let b = Aabb {
            lo: Point([0.0, 0.0, 0.0]),
            hi: Point([1.0, 5.0, 2.0]),
        };
        assert_eq!(b.widest_dim(), 1);
    }

    #[test]
    fn point_box_distance() {
        let b = Aabb {
            lo: Point([0.0, 0.0]),
            hi: Point([1.0, 1.0]),
        };
        assert_eq!(b.dist_sq_to_point(&Point([0.5, 0.5])), 0.0);
        assert_eq!(b.dist_sq_to_point(&Point([2.0, 0.5])), 1.0);
        assert_eq!(b.dist_sq_to_point(&Point([2.0, 2.0])), 2.0);
    }

    #[test]
    fn box_box_distances() {
        let a = Aabb {
            lo: Point([0.0, 0.0]),
            hi: Point([1.0, 1.0]),
        };
        let b = Aabb {
            lo: Point([3.0, 0.0]),
            hi: Point([4.0, 1.0]),
        };
        assert_eq!(a.min_dist_sq(&b), 4.0);
        // Overlapping boxes: zero min distance.
        let c = Aabb {
            lo: Point([0.5, 0.5]),
            hi: Point([2.0, 2.0]),
        };
        assert_eq!(a.min_dist_sq(&c), 0.0);
    }

    #[test]
    fn sphere_bounds_sandwich_point_distances() {
        // For any points u ∈ A, v ∈ B: sphere_min ≤ d(u,v).
        let a = Aabb::from_points(&[Point([0.0, 0.0]), Point([1.0, 2.0])]);
        let b = Aabb::from_points(&[Point([5.0, 5.0]), Point([6.0, 4.0])]);
        let pts_a = [Point([0.0, 0.0]), Point([1.0, 2.0]), Point([0.5, 1.7])];
        let pts_b = [Point([5.0, 5.0]), Point([6.0, 4.0]), Point([5.5, 4.2])];
        for u in &pts_a {
            for v in &pts_b {
                let d = u.dist(v);
                assert!(a.sphere_min_dist(&b) <= d + 1e-12);
            }
        }
    }

    #[test]
    fn well_separation_scaling() {
        let a = Aabb::from_points(&[Point([0.0, 0.0]), Point([1.0, 0.0])]);
        let far = Aabb::from_points(&[Point([10.0, 0.0]), Point([11.0, 0.0])]);
        let near = Aabb::from_points(&[Point([1.5, 0.0]), Point([2.5, 0.0])]);
        assert!(a.well_separated(&far, 2.0));
        assert!(!a.well_separated(&near, 2.0));
        // Higher separation constants are strictly harder to satisfy.
        assert!(!a.well_separated(&far, 20.0));
    }

    #[test]
    fn merge_is_union_bound() {
        let a = Aabb::from_points(&[Point([0.0, 0.0])]);
        let b = Aabb::from_points(&[Point([5.0, -1.0])]);
        let m = a.merge(&b);
        assert!(m.contains(&Point([0.0, 0.0])));
        assert!(m.contains(&Point([5.0, -1.0])));
        assert_eq!(m.lo, Point([0.0, -1.0]));
        assert_eq!(m.hi, Point([5.0, 0.0]));
    }
}
