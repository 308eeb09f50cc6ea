//! The binary batch assignment protocol: a length-framed, checksummed wire
//! format for high-volume out-of-sample assignment, served alongside JSON
//! (`POST .../assign_binary`) so hot clients stop paying JSON parse and
//! float-format costs. Built on [`parclust_data::io::le`], the same
//! little-endian section codec as the model artifact and the `.pcls`
//! point files.
//!
//! Request frame (all little-endian):
//!
//! ```text
//! "PCAB" | version u32 | id_len u32 | model id (UTF-8)
//! spec tag u8 (0=Eom, 1=Cut, 2=CutK) | param f64 (k as u64 for CutK)
//! max_dist f64 | dims u32 | count u64 | coords count·dims f64
//! checksum u64   — FNV-1a 64 of every preceding byte
//! ```
//!
//! Response frame:
//!
//! ```text
//! "PCAR" | version u32 | count u64
//! labels u32·count ([`NOISE`](parclust::NOISE) encoded as-is)
//! neighbors u32·count | distances f64·count
//! checksum u64   — FNV-1a 64 of every preceding byte
//! ```
//!
//! Decoders are strict: bad magic or version, truncated frames, trailing
//! bytes, bit flips (checksum), NaN parameters/coordinates, and oversized
//! model ids or point counts are all `Err`, never panics — mirroring the
//! artifact loader's corruption contract. The embedded model id lets the
//! server reject a frame routed at the wrong model even when a proxy
//! rewrites paths.

use crate::engine::LabelingSpec;
use parclust_data::io::{fnv1a64, le};

/// Request frame magic: "ParClust Assign Batch".
pub const REQ_MAGIC: &[u8; 4] = b"PCAB";
/// Response frame magic: "ParClust Assign Response".
pub const RESP_MAGIC: &[u8; 4] = b"PCAR";
/// Wire version; readers reject anything else.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on the embedded model id (far above [`crate::registry`]'s
/// own id limit; bounds allocation from a corrupt length field).
pub const MAX_ID_LEN: usize = 4096;
/// Upper bound on points per frame (coords alone would be 256 MiB at 16D;
/// the HTTP layer's body cap rejects such frames earlier anyway).
pub const MAX_POINTS: u64 = 1 << 21;

const TAG_EOM: u8 = 0;
const TAG_CUT: u8 = 1;
const TAG_CUTK: u8 = 2;

/// A decoded batch-assignment request.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignRequest {
    /// Model the client believes it is talking to; the server rejects the
    /// frame if this does not match the routed model.
    pub model_id: String,
    pub spec: LabelingSpec,
    pub max_dist: f64,
    pub dims: u32,
    /// Row-major query coordinates, `dims` per point.
    pub coords: Vec<f64>,
}

/// A decoded batch-assignment response (parallel arrays, request order).
#[derive(Debug, Clone, PartialEq)]
pub struct AssignResponse {
    pub labels: Vec<u32>,
    pub neighbors: Vec<u32>,
    pub distances: Vec<f64>,
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn write_spec(out: &mut Vec<u8>, spec: LabelingSpec) {
    match spec {
        LabelingSpec::Eom {
            cluster_selection_epsilon,
        } => {
            out.push(TAG_EOM);
            le::write_f64(out, cluster_selection_epsilon).unwrap();
        }
        LabelingSpec::Cut { eps } => {
            out.push(TAG_CUT);
            le::write_f64(out, eps).unwrap();
        }
        LabelingSpec::CutK { k } => {
            out.push(TAG_CUTK);
            le::write_u64(out, k as u64).unwrap();
        }
    }
}

fn read_spec(r: &mut &[u8]) -> std::io::Result<LabelingSpec> {
    let mut tag = [0u8; 1];
    std::io::Read::read_exact(r, &mut tag)?;
    let spec = match tag[0] {
        TAG_EOM => {
            let eps = le::read_f64(r)?;
            if eps.is_nan() || eps < 0.0 {
                return Err(bad("cluster_selection_epsilon must be non-negative"));
            }
            LabelingSpec::Eom {
                cluster_selection_epsilon: eps,
            }
        }
        TAG_CUT => {
            let eps = le::read_f64(r)?;
            if eps.is_nan() {
                return Err(bad("cut eps must not be NaN"));
            }
            LabelingSpec::Cut { eps }
        }
        TAG_CUTK => {
            let k = le::read_u64(r)?;
            let k = usize::try_from(k).map_err(|_| bad("cut k overflows usize"))?;
            LabelingSpec::CutK { k }
        }
        other => return Err(bad(format!("unknown labeling-spec tag {other}"))),
    };
    Ok(spec)
}

impl AssignRequest {
    /// Number of query points framed (`coords.len() / dims`).
    pub fn count(&self) -> usize {
        if self.dims == 0 {
            0
        } else {
            self.coords.len() / self.dims as usize
        }
    }

    /// Encode into a checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.model_id.len() <= MAX_ID_LEN, "model id too long");
        assert!(self.dims > 0, "dims must be positive");
        assert_eq!(
            self.coords.len() % self.dims as usize,
            0,
            "coords must be a whole number of points"
        );
        let mut out = Vec::with_capacity(64 + self.model_id.len() + 8 * self.coords.len());
        out.extend_from_slice(REQ_MAGIC);
        le::write_u32(&mut out, PROTO_VERSION).unwrap();
        le::write_u32(&mut out, self.model_id.len() as u32).unwrap();
        out.extend_from_slice(self.model_id.as_bytes());
        write_spec(&mut out, self.spec);
        le::write_f64(&mut out, self.max_dist).unwrap();
        le::write_u32(&mut out, self.dims).unwrap();
        le::write_u64(&mut out, self.count() as u64).unwrap();
        for &c in &self.coords {
            le::write_f64(&mut out, c).unwrap();
        }
        let sum = fnv1a64(&out);
        le::write_u64(&mut out, sum).unwrap();
        out
    }

    /// Decode and validate a frame produced by [`AssignRequest::encode`].
    pub fn decode(bytes: &[u8]) -> std::io::Result<Self> {
        let payload = checked_payload(bytes, REQ_MAGIC, "assign request")?;
        let mut r = &payload[8..]; // past magic + version
        let id_len = le::read_u32(&mut r)? as usize;
        if id_len > MAX_ID_LEN {
            return Err(bad(format!("model id of {id_len} bytes exceeds cap")));
        }
        if r.len() < id_len {
            return Err(bad("frame truncated inside model id"));
        }
        let model_id = std::str::from_utf8(&r[..id_len])
            .map_err(|_| bad("model id is not UTF-8"))?
            .to_string();
        r = &r[id_len..];
        let spec = read_spec(&mut r)?;
        let max_dist = le::read_f64(&mut r)?;
        if max_dist.is_nan() || max_dist < 0.0 {
            return Err(bad("max_dist must be non-negative"));
        }
        let dims = le::read_u32(&mut r)?;
        if dims == 0 {
            return Err(bad("dims must be positive"));
        }
        let count = le::read_u64(&mut r)?;
        if count > MAX_POINTS {
            return Err(bad(format!("{count} points exceeds the frame cap")));
        }
        let ncoords = count as usize * dims as usize;
        if r.len() != 8 * ncoords {
            return Err(bad(format!(
                "coordinate section holds {} bytes, frame promises {}",
                r.len(),
                8 * ncoords
            )));
        }
        let mut coords = Vec::with_capacity(ncoords);
        for _ in 0..ncoords {
            let c = le::read_f64(&mut r)?;
            if c.is_nan() {
                return Err(bad("coordinate must not be NaN"));
            }
            coords.push(c);
        }
        Ok(AssignRequest {
            model_id,
            spec,
            max_dist,
            dims,
            coords,
        })
    }
}

impl AssignResponse {
    pub fn encode(&self) -> Vec<u8> {
        let n = self.labels.len();
        assert_eq!(self.neighbors.len(), n);
        assert_eq!(self.distances.len(), n);
        let mut out = Vec::with_capacity(24 + 16 * n);
        out.extend_from_slice(RESP_MAGIC);
        le::write_u32(&mut out, PROTO_VERSION).unwrap();
        le::write_u64(&mut out, n as u64).unwrap();
        for &l in &self.labels {
            le::write_u32(&mut out, l).unwrap();
        }
        for &nb in &self.neighbors {
            le::write_u32(&mut out, nb).unwrap();
        }
        for &d in &self.distances {
            le::write_f64(&mut out, d).unwrap();
        }
        let sum = fnv1a64(&out);
        le::write_u64(&mut out, sum).unwrap();
        out
    }

    pub fn decode(bytes: &[u8]) -> std::io::Result<Self> {
        let payload = checked_payload(bytes, RESP_MAGIC, "assign response")?;
        let mut r = &payload[8..];
        let count = le::read_u64(&mut r)?;
        if count > MAX_POINTS {
            return Err(bad(format!("{count} results exceeds the frame cap")));
        }
        let n = count as usize;
        if r.len() != 16 * n {
            return Err(bad("response sections do not match framed count"));
        }
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(le::read_u32(&mut r)?);
        }
        let mut neighbors = Vec::with_capacity(n);
        for _ in 0..n {
            neighbors.push(le::read_u32(&mut r)?);
        }
        let mut distances = Vec::with_capacity(n);
        for _ in 0..n {
            distances.push(le::read_f64(&mut r)?);
        }
        Ok(AssignResponse {
            labels,
            neighbors,
            distances,
        })
    }
}

/// Shared frame validation: length floor, trailing checksum, magic,
/// version. Returns the payload (everything before the checksum).
fn checked_payload<'a>(bytes: &'a [u8], magic: &[u8; 4], what: &str) -> std::io::Result<&'a [u8]> {
    if bytes.len() < 4 + 4 + 8 {
        return Err(bad(format!("{what} frame too short")));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a64(payload) != stored {
        return Err(bad(format!("{what} checksum mismatch (corrupt frame)")));
    }
    if &payload[0..4] != magic {
        return Err(bad(format!("bad {what} magic")));
    }
    let version = u32::from_le_bytes(payload[4..8].try_into().unwrap());
    if version != PROTO_VERSION {
        return Err(bad(format!(
            "unsupported {what} version {version} (this build speaks {PROTO_VERSION})"
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> AssignRequest {
        AssignRequest {
            model_id: "geo-3d".into(),
            spec: LabelingSpec::Cut { eps: 1.25 },
            max_dist: f64::INFINITY,
            dims: 3,
            coords: vec![0.0, 1.0, 2.0, -3.5, 4.25, 1e-3],
        }
    }

    #[test]
    fn request_roundtrip_all_spec_kinds() {
        for spec in [
            LabelingSpec::Eom {
                cluster_selection_epsilon: 0.5,
            },
            LabelingSpec::Cut { eps: 2.0 },
            LabelingSpec::CutK { k: 9 },
        ] {
            let req = AssignRequest {
                spec,
                ..sample_request()
            };
            let back = AssignRequest::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.count(), 2);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = AssignResponse {
            labels: vec![0, parclust::NOISE, 3],
            neighbors: vec![7, 8, 9],
            distances: vec![0.5, f64::MAX, 1e-300],
        };
        assert_eq!(AssignResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let req = AssignRequest {
            coords: Vec::new(),
            ..sample_request()
        };
        let back = AssignRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.count(), 0);
        let resp = AssignResponse {
            labels: vec![],
            neighbors: vec![],
            distances: vec![],
        };
        assert_eq!(AssignResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn rejects_malformed_frames() {
        let good = sample_request().encode();
        // Truncation at every boundary class.
        for cut in [0, 4, 11, good.len() - 9, good.len() - 1] {
            assert!(
                AssignRequest::decode(&good[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
        // Trailing garbage breaks the checksum.
        let mut long = good.clone();
        long.push(0);
        assert!(AssignRequest::decode(&long).is_err());
        // Wrong magic (checksum recomputed so the magic is what rejects).
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        refresh_checksum(&mut wrong_magic);
        assert!(AssignRequest::decode(&wrong_magic).is_err());
        // Future version.
        let mut wrong_version = good.clone();
        wrong_version[4] = 99;
        refresh_checksum(&mut wrong_version);
        assert!(AssignRequest::decode(&wrong_version).is_err());
        // NaN coordinate (valid checksum, rejected by validation).
        let mut nan = sample_request();
        nan.coords[2] = f64::NAN;
        assert!(AssignRequest::decode(&nan.encode()).is_err());
        // NaN / negative parameters.
        for spec in [
            LabelingSpec::Cut { eps: f64::NAN },
            LabelingSpec::Eom {
                cluster_selection_epsilon: -1.0,
            },
        ] {
            let req = AssignRequest {
                spec,
                ..sample_request()
            };
            assert!(AssignRequest::decode(&req.encode()).is_err());
        }
        let mut neg_dist = sample_request();
        neg_dist.max_dist = -2.0;
        assert!(AssignRequest::decode(&neg_dist.encode()).is_err());
    }

    fn refresh_checksum(frame: &mut [u8]) {
        let plen = frame.len() - 8;
        let sum = fnv1a64(&frame[..plen]).to_le_bytes();
        frame[plen..].copy_from_slice(&sum);
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let good = sample_request().encode();
        for pos in (0..good.len()).step_by(7) {
            let mut bytes = good.clone();
            bytes[pos] ^= 0x04;
            assert!(
                AssignRequest::decode(&bytes).is_err(),
                "bit flip at {pos} must not decode cleanly"
            );
        }
    }
}
