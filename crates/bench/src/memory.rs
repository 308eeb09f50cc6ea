//! Memory budgeting and measurement for the scale harness.
//!
//! The `repro scale` experiment runs the streaming pipeline under a
//! `--max-memory` bound: [`MemoryBudget`] converts that bound into a WSPD
//! batch capacity (total budget minus the estimated fixed per-point cost,
//! divided by a conservative per-pair working-set estimate), and
//! [`peak_rss_bytes`] reads the process high-water mark so the bench JSON
//! records whether the run actually stayed inside the bound.

/// Conservative estimate of the resident bytes each point costs the
/// pipeline at dimension `dims`: the caller's input `Vec`, the kd-tree's
/// permuted copy + index + node array (n − 1 internal nodes of
/// `16·dims + 16` bytes; leaves are not stored), union-find, forest edges,
/// and allocator slack. The value predates the leaf-free tree, which saves
/// another `16·dims + 16` bytes a point; it is kept as headroom, so the
/// `repro scale` batch capacities stay as they were.
pub fn fixed_bytes_per_point(dims: usize) -> u64 {
    (48 * dims + 96) as u64
}

/// Conservative per-pair working-set estimate for one streaming batch:
/// the `NodePair`, the `Option<Edge>` candidate slot, the absorbed `Edge`,
/// and sort scratch.
pub const BYTES_PER_PAIR: u64 = 96;

/// Smallest batch capacity the budget will ever hand out — below this the
/// per-batch component-annotation overhead dominates.
pub const MIN_BATCH_PAIRS: usize = 4_096;

/// A total working-set bound (bytes) for a streaming run.
#[derive(Debug, Clone, Copy)]
pub struct MemoryBudget {
    pub bytes: u64,
}

impl MemoryBudget {
    pub fn new(bytes: u64) -> Self {
        MemoryBudget { bytes }
    }

    /// Estimated fixed cost of `n` points at dimension `dims`.
    pub fn fixed_bytes(&self, n: usize, dims: usize) -> u64 {
        n as u64 * fixed_bytes_per_point(dims)
    }

    /// WSPD batch capacity that keeps the streaming working set inside the
    /// budget: `(bytes − fixed) / BYTES_PER_PAIR`, floored at
    /// [`MIN_BATCH_PAIRS`]. A budget smaller than the fixed cost still
    /// returns the floor — the batches stay bounded, but the caller should
    /// surface that the points themselves exceed the bound.
    pub fn batch_cap(&self, n: usize, dims: usize) -> usize {
        let remaining = self.bytes.saturating_sub(self.fixed_bytes(n, dims));
        let cap = (remaining / BYTES_PER_PAIR) as usize;
        cap.clamp(MIN_BATCH_PAIRS, 1 << 26)
    }
}

/// Parse a human byte size: a plain integer is bytes; `K`/`M`/`G` suffixes
/// (case-insensitive, optional trailing `B` or `iB`) scale by powers of
/// 1024; a fractional mantissa is allowed (`1.5G`).
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let lower = t.to_ascii_lowercase();
    let (num, mult) = if let Some(p) = lower.strip_suffix("kib").or(lower.strip_suffix("kb")) {
        (p, 1u64 << 10)
    } else if let Some(p) = lower.strip_suffix("mib").or(lower.strip_suffix("mb")) {
        (p, 1 << 20)
    } else if let Some(p) = lower.strip_suffix("gib").or(lower.strip_suffix("gb")) {
        (p, 1 << 30)
    } else if let Some(p) = lower.strip_suffix('k') {
        (p, 1 << 10)
    } else if let Some(p) = lower.strip_suffix('m') {
        (p, 1 << 20)
    } else if let Some(p) = lower.strip_suffix('g') {
        (p, 1 << 30)
    } else if let Some(p) = lower.strip_suffix('b') {
        (p, 1)
    } else {
        (lower.as_str(), 1)
    };
    let num = num.trim();
    let v: f64 = num
        .parse()
        .map_err(|_| format!("cannot parse byte size {s:?}"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("byte size {s:?} out of range"));
    }
    Ok((v * mult as f64) as u64)
}

/// Peak resident set size of this process (bytes), from `/proc` on Linux;
/// `None` where the kernel interface is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Format bytes for table cells.
pub fn fmt_bytes(b: u64) -> String {
    const G: f64 = (1u64 << 30) as f64;
    const M: f64 = (1u64 << 20) as f64;
    let x = b as f64;
    if x >= G {
        format!("{:.2}GiB", x / G)
    } else if x >= M {
        format!("{:.1}MiB", x / M)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("1K").unwrap(), 1024);
        assert_eq!(parse_bytes("2m").unwrap(), 2 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("1.5G").unwrap(), 3 << 29);
        assert_eq!(parse_bytes("512MiB").unwrap(), 512 << 20);
        assert_eq!(parse_bytes("64kb").unwrap(), 64 << 10);
        assert_eq!(parse_bytes(" 10 ").unwrap(), 10);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("-1G").is_err());
    }

    #[test]
    fn budget_caps_scale_with_headroom() {
        let n = 2_000_000;
        let tight = MemoryBudget::new(parse_bytes("512M").unwrap());
        let roomy = MemoryBudget::new(parse_bytes("4G").unwrap());
        let c_tight = tight.batch_cap(n, 3);
        let c_roomy = roomy.batch_cap(n, 3);
        assert!(c_tight >= MIN_BATCH_PAIRS);
        assert!(c_roomy > c_tight, "{c_roomy} vs {c_tight}");
        // A budget below the fixed cost still returns the bounded floor.
        let starved = MemoryBudget::new(1);
        assert_eq!(starved.batch_cap(n, 3), MIN_BATCH_PAIRS);
    }

    #[test]
    fn rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM available");
            assert!(rss > 1 << 20, "a test process uses at least a MiB");
        }
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert_eq!(fmt_bytes(1 << 30), "1.00GiB");
    }
}
