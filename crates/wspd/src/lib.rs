//! Well-separated pair decomposition (WSPD) and bichromatic closest pairs.
//!
//! This crate implements Algorithm 1 of the paper — the parallel WSPD over a
//! spatial-median kd-tree — generalized over a [`SeparationPolicy`] so that
//! one traversal serves:
//!
//! * **EMST** — Callahan–Kosaraju geometric well-separation with `s = 2`
//!   ([`policy::GeometricSep`]), Euclidean edge weights;
//! * **HDBSCAN\* (Gan–Tao baseline)** — the same geometric separation but
//!   mutual-reachability weights and bounds
//!   ([`policy::MutualReachSep`] in [`policy::SepMode::Standard`] mode);
//! * **HDBSCAN\* (improved)** — the paper's new notion of well-separation
//!   (Section 3.2.2): *geometrically-separated* OR *mutually-unreachable*
//!   ([`policy::SepMode::Combined`]), which terminates the recursion
//!   earlier and yields asymptotically fewer pairs;
//! * **approximate OPTICS** — geometric separation with
//!   `s = sqrt(8/ρ)` (Appendix C).
//!
//! Algorithm 1 is written once, in [`traverse::wspd_resume`]: it runs the
//! traversal from a frontier of open node and pair states and returns the
//! pair states its hooks keep, so each of MemoGFK's `GetRho`/`GetPairs`
//! rounds (Algorithm 3) resumes where the last round stopped instead of
//! re-walking the tree. [`traverse::wspd_traverse`] is the one-shot walk
//! from the root with a pruning hook, and [`traverse::wspd_materialize`]
//! collects the whole decomposition. [`bccp`] provides the exact
//! BCCP/BCCP\* branch-and-bound used to turn well-separated pairs into
//! candidate MST edges.

pub mod bccp;
pub mod policy;
pub mod traverse;

pub use bccp::{bccp, Bccp};
pub use policy::{GeometricSep, MutualReachSep, SepMode, SeparationPolicy};
pub use traverse::{wspd_materialize, wspd_resume, wspd_traverse, NodePair, OpenState, Step};
