//! Small helpers: order statistics, digests, memory.

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `v` without its lowest and highest tenth (rounded down), so
/// a round that a preemption stretched does not move it.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest percentile with at least ten samples beyond it: the
/// value at sorted rank `n - 11`, and its percentile `100 (n - 10) / n`.
/// Below 21 samples that rank falls under the median, so the maximum is
/// returned instead, marked by a `None` percentile.
pub fn tail(v: &[f64]) -> (f64, Option<f64>) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 21 {
        return (s.last().copied().unwrap_or(f64::NAN), None);
    }
    (s[n - 11], Some(100.0 * (n - 10) as f64 / n as f64))
}

/// 64-bit FNV-1a, as hex: the digest pinned for every job's
/// `results_json` and for rendered figure text.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
