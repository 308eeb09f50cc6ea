//! Memory measurement for the scale harness.
//!
//! The `repro scale` experiment runs MemoGFK under a `--max-memory` bound:
//! [`parse_bytes`] reads that bound, and [`peak_rss_bytes`] reads the
//! process high-water mark so the bench JSON records whether the run
//! actually stayed inside it.

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
