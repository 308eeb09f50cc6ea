//! Point-set IO: CSV (interoperability), the chunked point format
//! ([`ChunkedWriter`]/[`ChunkedReader`], `.pcls`) that generators write
//! without a whole-file buffer and [`read_chunked`] reads back with strict
//! framing and a verified checksum, and the low-level little-endian section
//! codec ([`le`]) that downstream binary formats (e.g. `parclust-serve`'s
//! model artifact) build on.

use parclust_geom::Point;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Little-endian primitive and slice codec shared by every parclust binary
/// format. Writers are total; readers fail with `InvalidData`/`UnexpectedEof`
/// on malformed input and bound allocations by what the stream can actually
/// supply (a corrupt length prefix never triggers a huge up-front alloc).
pub mod le {
    use std::io::{self, Read, Write};

    /// Cap on a single up-front `Vec` reservation while reading a
    /// length-prefixed section; longer sections grow incrementally so a
    /// corrupted length cannot OOM the reader before hitting EOF.
    const MAX_PREALLOC_BYTES: usize = 1 << 24;

    pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    /// Length-prefixed (`u64`) slice of `u32`.
    pub fn write_u32_slice<W: Write>(w: &mut W, vs: &[u32]) -> io::Result<()> {
        write_u64(w, vs.len() as u64)?;
        for &v in vs {
            write_u32(w, v)?;
        }
        Ok(())
    }

    /// Length-prefixed (`u64`) slice of `f64`.
    pub fn write_f64_slice<W: Write>(w: &mut W, vs: &[f64]) -> io::Result<()> {
        write_u64(w, vs.len() as u64)?;
        for &v in vs {
            write_f64(w, v)?;
        }
        Ok(())
    }

    pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    fn checked_len(len: u64, elem_size: usize) -> io::Result<usize> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "section length overflow"))?;
        len.checked_mul(elem_size)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "section length overflow"))?;
        Ok(len)
    }

    /// Read a slice written by [`write_u32_slice`].
    pub fn read_u32_vec<R: Read>(r: &mut R) -> io::Result<Vec<u32>> {
        let len = checked_len(read_u64(r)?, 4)?;
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC_BYTES / 4));
        for _ in 0..len {
            out.push(read_u32(r)?);
        }
        Ok(out)
    }

    /// Read a slice written by [`write_f64_slice`].
    pub fn read_f64_vec<R: Read>(r: &mut R) -> io::Result<Vec<f64>> {
        let len = checked_len(read_u64(r)?, 8)?;
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC_BYTES / 8));
        for _ in 0..len {
            out.push(read_f64(r)?);
        }
        Ok(out)
    }
}

/// Write points as CSV, one point per row.
pub fn write_csv<const D: usize>(path: &Path, points: &[Point<D>]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for p in points {
        for (i, c) in p.coords().iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            // {:?} preserves full f64 round-trip precision.
            write!(w, "{c:?}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Read CSV points; every row must have exactly `D` columns.
pub fn read_csv<const D: usize>(path: &Path) -> io::Result<Vec<Point<D>>> {
    let r = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    let mut line = String::new();
    let mut r = r;
    let mut lineno = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut c = [0.0; D];
        let mut fields = trimmed.split(',');
        for (d, slot) in c.iter_mut().enumerate() {
            let f = fields.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: expected {D} fields, got {d}"),
                )
            })?;
            *slot = f.trim().parse::<f64>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}, field {d}: {e}"),
                )
            })?;
        }
        if fields.next().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: more than {D} fields"),
            ));
        }
        out.push(Point(c));
    }
    Ok(out)
}

// --------------------------------------------------------------------
// Chunked streaming format
// --------------------------------------------------------------------

const CHUNK_MAGIC: &[u8; 4] = b"PCLS";
const CHUNK_VERSION: u32 = 1;
/// Byte offset of the `count` header field (patched by
/// [`ChunkedWriter::finish`] once the point count is known).
const COUNT_OFFSET: u64 = 20;
/// Upper bound on `chunk_len` accepted by the reader: bounds the per-chunk
/// allocation a corrupted header can request.
const MAX_CHUNK_LEN: u64 = 1 << 24;

/// Default chunk length for the streaming format: 64Ki points per chunk
/// keeps the ingestion working set in the low megabytes at any dimension.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Incremental FNV-1a (64-bit). The chunked format checksums every chunk
/// byte (not the header, whose `count` field is patched after streaming
/// writes complete); header corruption is instead caught by the strict
/// framing checks.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Header of a chunked point file, readable without fixing the const
/// dimension (callers dispatch on `dims`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedHeader {
    pub dims: u32,
    pub chunk_len: u64,
    pub count: u64,
}

fn read_chunked_header<R: Read>(r: &mut R) -> io::Result<ChunkedHeader> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != CHUNK_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad chunked-format magic",
        ));
    }
    let version = le::read_u32(r)?;
    if version != CHUNK_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported chunked-format version {version}"),
        ));
    }
    let dims = le::read_u32(r)?;
    let chunk_len = le::read_u64(r)?;
    if chunk_len == 0 || chunk_len > MAX_CHUNK_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("chunk length {chunk_len} out of range"),
        ));
    }
    let count = le::read_u64(r)?;
    Ok(ChunkedHeader {
        dims,
        chunk_len,
        count,
    })
}

/// Peek a chunked file's header (dimensionality dispatch for readers that
/// learn `D` at runtime).
pub fn chunked_header(path: &Path) -> io::Result<ChunkedHeader> {
    read_chunked_header(&mut BufReader::new(std::fs::File::open(path)?))
}

/// Streaming writer for the chunked format:
/// `PCLS | version | dims | chunk_len | count` header, then
/// length-prefixed chunks of little-endian coordinates, then a trailing
/// FNV-1a checksum over every chunk byte. Points are pushed one at a time
/// or in slices; nothing beyond one chunk is buffered, so a multi-million
/// point file can be produced straight from a generator.
pub struct ChunkedWriter<const D: usize, W: Write + Seek> {
    w: W,
    chunk_len: usize,
    buf: Vec<Point<D>>,
    scratch: Vec<u8>,
    count: u64,
    sum: Fnv1a64,
}

impl<const D: usize> ChunkedWriter<D, BufWriter<std::fs::File>> {
    /// Create `path` and write the (provisional) header.
    pub fn create(path: &Path, chunk_len: usize) -> io::Result<Self> {
        Self::new(BufWriter::new(std::fs::File::create(path)?), chunk_len)
    }
}

impl<const D: usize, W: Write + Seek> ChunkedWriter<D, W> {
    pub fn new(mut w: W, chunk_len: usize) -> io::Result<Self> {
        assert!(
            chunk_len >= 1 && chunk_len as u64 <= MAX_CHUNK_LEN,
            "chunk_len out of range"
        );
        w.write_all(CHUNK_MAGIC)?;
        le::write_u32(&mut w, CHUNK_VERSION)?;
        le::write_u32(&mut w, D as u32)?;
        le::write_u64(&mut w, chunk_len as u64)?;
        le::write_u64(&mut w, 0)?; // count, patched by finish()
        Ok(ChunkedWriter {
            w,
            chunk_len,
            buf: Vec::with_capacity(chunk_len),
            scratch: Vec::new(),
            count: 0,
            sum: Fnv1a64::new(),
        })
    }

    pub fn push(&mut self, p: Point<D>) -> io::Result<()> {
        self.buf.push(p);
        self.count += 1;
        if self.buf.len() == self.chunk_len {
            self.flush_chunk()?;
        }
        Ok(())
    }

    pub fn push_all(&mut self, pts: &[Point<D>]) -> io::Result<()> {
        for &p in pts {
            self.push(p)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        le::write_u64(&mut self.scratch, self.buf.len() as u64)?;
        for p in &self.buf {
            for &c in p.coords() {
                le::write_f64(&mut self.scratch, c)?;
            }
        }
        self.sum.update(&self.scratch);
        self.w.write_all(&self.scratch)?;
        self.buf.clear();
        Ok(())
    }

    /// Flush the final partial chunk, append the checksum trailer, patch
    /// the point count into the header, and return the count.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_chunk()?;
        le::write_u64(&mut self.w, self.sum.finish())?;
        self.w.seek(SeekFrom::Start(COUNT_OFFSET))?;
        le::write_u64(&mut self.w, self.count)?;
        self.w.flush()?;
        Ok(self.count)
    }
}

/// Streaming reader for the chunked format.
///
/// Framing is strict — every chunk must hold exactly
/// `min(chunk_len, remaining)` points — and the trailing checksum is
/// verified *before* the final chunk is handed out, so a truncated or
/// corrupted file can never complete a read.
pub struct ChunkedReader<const D: usize, R: Read = BufReader<std::fs::File>> {
    r: R,
    header: ChunkedHeader,
    remaining: u64,
    sum: Fnv1a64,
    scratch: Vec<u8>,
    verified: bool,
}

impl<const D: usize> ChunkedReader<D> {
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::new(BufReader::new(std::fs::File::open(path)?))
    }
}

impl<const D: usize, R: Read> ChunkedReader<D, R> {
    pub fn new(mut r: R) -> io::Result<Self> {
        let header = read_chunked_header(&mut r)?;
        if header.dims as usize != D {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file has {} dims, expected {D}", header.dims),
            ));
        }
        Ok(ChunkedReader {
            r,
            header,
            remaining: header.count,
            sum: Fnv1a64::new(),
            scratch: Vec::new(),
            verified: false,
        })
    }

    pub fn header(&self) -> ChunkedHeader {
        self.header
    }

    fn verify_trailer(&mut self) -> io::Result<()> {
        if self.verified {
            return Ok(());
        }
        let stored = le::read_u64(&mut self.r)?;
        if stored != self.sum.finish() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chunked-file checksum mismatch (corrupt file)",
            ));
        }
        self.verified = true;
        Ok(())
    }

    /// Clear and refill `buf` with the next chunk and return the number of
    /// points delivered; `Ok(0)` means the file is exhausted (and its
    /// checksum verified). Reusing one `buf` keeps a read at `O(chunk)`.
    pub fn next_chunk(&mut self, buf: &mut Vec<Point<D>>) -> io::Result<usize> {
        buf.clear();
        if self.remaining == 0 {
            // Covers count == 0 files too: the trailer must still be
            // present and correct before we report a clean EOF.
            self.verify_trailer()?;
            return Ok(0);
        }
        let expect = self.header.chunk_len.min(self.remaining);
        let mut frame = [0u8; 8];
        self.r.read_exact(&mut frame)?;
        self.sum.update(&frame);
        let got = u64::from_le_bytes(frame);
        if got != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("chunk frames {got} points, expected {expect}"),
            ));
        }
        // Read the payload in bounded slabs (multiples of one point) so a
        // corrupted header can never trigger a huge up-front allocation.
        let stride = D * 8;
        let slab_points = ((1usize << 16) / stride).max(1);
        let mut left = expect as usize;
        buf.reserve(left.min(slab_points));
        while left > 0 {
            let k = left.min(slab_points);
            self.scratch.resize(k * stride, 0);
            self.r.read_exact(&mut self.scratch)?;
            self.sum.update(&self.scratch);
            for chunk in self.scratch.chunks_exact(stride) {
                let mut c = [0.0; D];
                for (slot, b) in c.iter_mut().zip(chunk.chunks_exact(8)) {
                    *slot = f64::from_le_bytes(b.try_into().unwrap());
                }
                buf.push(Point(c));
            }
            left -= k;
        }
        self.remaining -= expect;
        if self.remaining == 0 {
            // Eager verification: fail before the last chunk is consumed.
            self.verify_trailer()?;
        }
        Ok(expect as usize)
    }

    /// Read every remaining point into one `Vec`, reusing a single chunk
    /// buffer. The up-front reservation is capped in *bytes* (like the
    /// slab reads) so a corrupt header count cannot trigger a huge
    /// allocation before any payload is validated.
    pub fn read_all(&mut self) -> io::Result<Vec<Point<D>>> {
        let prealloc_cap = (1usize << 24) / std::mem::size_of::<Point<D>>().max(1);
        let count = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        let mut out = Vec::with_capacity(count.min(prealloc_cap));
        let mut buf = Vec::new();
        while self.next_chunk(&mut buf)? > 0 {
            out.extend_from_slice(&buf);
        }
        Ok(out)
    }
}

/// Write a full slice in the chunked format (streaming writes go through
/// [`ChunkedWriter`] directly).
pub fn write_chunked<const D: usize>(
    path: &Path,
    points: &[Point<D>],
    chunk_len: usize,
) -> io::Result<()> {
    let mut w = ChunkedWriter::<D, _>::create(path, chunk_len)?;
    w.push_all(points)?;
    w.finish()?;
    Ok(())
}

/// Read an entire chunked file into memory ([`ChunkedReader::read_all`]).
pub fn read_chunked<const D: usize>(path: &Path) -> io::Result<Vec<Point<D>>> {
    ChunkedReader::<D>::open(path)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform_fill;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parclust-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn csv_roundtrip() {
        let pts = uniform_fill::<3>(100, 1);
        let path = tmp("roundtrip.csv");
        write_csv(&path, &pts).unwrap();
        let back: Vec<Point<3>> = read_csv(&path).unwrap();
        assert_eq!(pts, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_wrong_arity() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "1.0,2.0\n3.0\n").unwrap();
        assert!(read_csv::<2>(&path).is_err());
        std::fs::write(&path, "1.0,2.0,9.0\n").unwrap();
        assert!(read_csv::<2>(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_skips_comments_and_blanks() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n\n1.0,2.0\n").unwrap();
        let pts: Vec<Point<2>> = read_csv(&path).unwrap();
        assert_eq!(pts, vec![Point([1.0, 2.0])]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn le_codec_roundtrip() {
        let mut buf = Vec::new();
        le::write_u32(&mut buf, 7).unwrap();
        le::write_u64(&mut buf, u64::MAX - 3).unwrap();
        le::write_f64(&mut buf, -0.125).unwrap();
        le::write_u32_slice(&mut buf, &[1, 2, u32::MAX]).unwrap();
        le::write_f64_slice(&mut buf, &[f64::INFINITY, 0.5]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(le::read_u32(&mut r).unwrap(), 7);
        assert_eq!(le::read_u64(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(le::read_f64(&mut r).unwrap(), -0.125);
        assert_eq!(le::read_u32_vec(&mut r).unwrap(), vec![1, 2, u32::MAX]);
        assert_eq!(le::read_f64_vec(&mut r).unwrap(), vec![f64::INFINITY, 0.5]);
        assert!(r.is_empty(), "everything consumed");
    }

    /// Write `pts` in the chunked format and return the file's bytes.
    fn chunked_bytes<const D: usize>(pts: &[Point<D>], chunk_len: usize) -> Vec<u8> {
        let path = tmp(&format!("chunk-{D}-{chunk_len}-{}.pcls", pts.len()));
        let mut w = ChunkedWriter::<D, _>::create(&path, chunk_len).unwrap();
        w.push_all(pts).unwrap();
        assert_eq!(w.finish().unwrap(), pts.len() as u64);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn chunked_roundtrip_boundaries() {
        // n spanning: zero, one, below/equal/above chunk multiples.
        for &(n, chunk) in &[
            (0usize, 4usize),
            (1, 4),
            (3, 4),
            (4, 4),
            (5, 4),
            (257, 64),
            (1024, 64),
        ] {
            let pts = uniform_fill::<3>(n, 5);
            let bytes = chunked_bytes(&pts, chunk);
            let mut r = ChunkedReader::<3, _>::new(bytes.as_slice()).unwrap();
            assert_eq!(r.header().count, n as u64);
            let mut got = Vec::new();
            let mut buf = Vec::new();
            loop {
                let k = r.next_chunk(&mut buf).unwrap();
                if k == 0 {
                    break;
                }
                assert!(k <= chunk, "chunk of {k} exceeds cap {chunk}");
                got.extend_from_slice(&buf);
            }
            assert_eq!(got, pts, "n={n} chunk={chunk}");
            // Repeated EOF calls stay Ok(0).
            assert_eq!(r.next_chunk(&mut buf).unwrap(), 0);
        }
    }

    #[test]
    fn chunked_file_roundtrip_and_header_peek() {
        let pts = uniform_fill::<2>(1000, 9);
        let path = tmp("roundtrip.pcls");
        write_chunked(&path, &pts, 33).unwrap();
        let h = chunked_header(&path).unwrap();
        assert_eq!(
            h,
            ChunkedHeader {
                dims: 2,
                chunk_len: 33,
                count: 1000
            }
        );
        assert_eq!(read_chunked::<2>(&path).unwrap(), pts);
        // Wrong dimensionality is rejected at open.
        assert!(ChunkedReader::<3>::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_read_all_equals_written_points() {
        let pts = uniform_fill::<5>(513, 3);
        let bytes = chunked_bytes(&pts, 100);
        let mut r = ChunkedReader::<5, _>::new(bytes.as_slice()).unwrap();
        assert_eq!(r.read_all().unwrap(), pts);
        // A drained reader reads nothing more.
        assert_eq!(r.read_all().unwrap(), Vec::new());
    }

    #[test]
    fn chunked_rejects_truncation() {
        let pts = uniform_fill::<2>(100, 7);
        let bytes = chunked_bytes(&pts, 16);
        // Truncate at many positions: missing trailer, mid-chunk, mid-frame.
        for cut in [bytes.len() - 1, bytes.len() - 8, bytes.len() - 9, 40, 21] {
            // Rejection may happen at open (header cut) or while reading.
            let mut r = match ChunkedReader::<2, _>::new(&bytes[..cut]) {
                Err(_) => continue,
                Ok(r) => r,
            };
            let mut buf = Vec::new();
            let mut err = false;
            for _ in 0..200 {
                match r.next_chunk(&mut buf) {
                    Err(_) => {
                        err = true;
                        break;
                    }
                    Ok(0) => break,
                    Ok(_) => {}
                }
            }
            assert!(err, "truncation at {cut} must not read cleanly");
        }
    }

    #[test]
    fn chunked_rejects_bit_corruption() {
        let pts = uniform_fill::<2>(64, 8);
        let mut bytes = chunked_bytes(&pts, 16);
        // Flip one payload bit (past the 28-byte header).
        let mid = 28 + (bytes.len() - 28 - 8) / 2;
        bytes[mid] ^= 0x10;
        let mut r = ChunkedReader::<2, _>::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        let mut failed = false;
        for _ in 0..200 {
            match r.next_chunk(&mut buf) {
                Err(_) => {
                    failed = true;
                    break;
                }
                Ok(0) => break,
                Ok(_) => {}
            }
        }
        assert!(failed, "bit flip must fail the checksum before EOF");
    }

    #[test]
    fn chunked_rejects_garbage_and_bad_header() {
        assert!(ChunkedReader::<2, _>::new(&b"not a chunked file"[..]).is_err());
        // Zero chunk_len is rejected.
        let mut bad = Vec::new();
        bad.extend_from_slice(b"PCLS");
        le::write_u32(&mut bad, 1).unwrap();
        le::write_u32(&mut bad, 2).unwrap();
        le::write_u64(&mut bad, 0).unwrap(); // chunk_len = 0
        le::write_u64(&mut bad, 10).unwrap();
        assert!(ChunkedReader::<2, _>::new(bad.as_slice()).is_err());
    }

    #[test]
    fn chunked_empty_file_still_checksummed() {
        let bytes = chunked_bytes::<2>(&[], 8);
        let mut r = ChunkedReader::<2, _>::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        assert_eq!(r.next_chunk(&mut buf).unwrap(), 0);
        // An empty file missing its trailer is truncated, not empty.
        let mut r = ChunkedReader::<2, _>::new(&bytes[..bytes.len() - 8]).unwrap();
        assert!(r.next_chunk(&mut buf).is_err());
    }

    #[test]
    fn fnv_incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut a = Fnv1a64::new();
        a.update(data);
        let mut b = Fnv1a64::new();
        for chunk in data.chunks(5) {
            b.update(chunk);
        }
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), Fnv1a64::new().finish());
    }

    #[test]
    fn le_codec_rejects_truncation_and_huge_lengths() {
        assert!(le::read_u64(&mut [1u8, 2].as_slice()).is_err());
        // A length prefix promising far more data than the stream holds must
        // error out (not OOM on the reservation).
        let mut buf = Vec::new();
        le::write_u64(&mut buf, u64::MAX / 2).unwrap();
        assert!(le::read_u32_vec(&mut buf.as_slice()).is_err());
        let mut short = Vec::new();
        le::write_u32_slice(&mut short, &[1, 2, 3]).unwrap();
        short.truncate(short.len() - 2);
        assert!(le::read_u32_vec(&mut short.as_slice()).is_err());
    }
}
