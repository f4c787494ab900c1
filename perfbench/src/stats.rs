//! Measurement helpers: percentiles with a tail-size rule, medians, the
//! memory fields of `/proc/self/status`, and a stable digest.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is too thin to mean anything.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (0–1) of weighted samples `(value, weight)`: the
/// smallest value whose cumulative weight reaches `ceil(q × total)`.
/// `None` when there is no positive weight, or when fewer than
/// [`MIN_TAIL`] samples hold a value strictly greater than the answer.
pub fn percentile(samples: &[(u64, u64)], q: f64) -> Option<u64> {
    let mut sorted: Vec<(u64, u64)> = samples.iter().copied().filter(|&(_, w)| w > 0).collect();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    // The epsilon keeps float noise (0.99 × 1000 = 990.000…1) from
    // pushing the rank one sample further out.
    let target = ((q.clamp(0.0, 1.0) * total as f64 - 1e-9).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    let at = sorted.iter().position(|&(_, w)| {
        seen += w;
        seen >= target
    })?;
    let value = sorted[at].0;
    let beyond = sorted[at + 1..].iter().filter(|&&(v, _)| v > value).count();
    (beyond >= MIN_TAIL).then_some(value)
}

/// The same rule over unweighted samples.
pub fn percentile_unweighted(samples: &[u64], q: f64) -> Option<u64> {
    let weighted: Vec<(u64, u64)> = samples.iter().map(|&v| (v, 1)).collect();
    percentile(&weighted, q)
}

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resident-set figures of one process, in KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStatus {
    /// `VmRSS`: resident now.
    pub rss_kb: u64,
    /// `VmHWM`: the resident high-water mark since the process started.
    pub hwm_kb: u64,
}

/// Parses `VmRSS` and `VmHWM` out of the text of `/proc/<pid>/status`.
pub fn parse_status(text: &str) -> Option<MemStatus> {
    let field = |name: &str| {
        text.lines().find_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix(':')?;
            let mut parts = rest.split_whitespace();
            let value = parts.next()?.parse().ok()?;
            (parts.next() == Some("kB")).then_some(value)
        })
    };
    Some(MemStatus { rss_kb: field("VmRSS")?, hwm_kb: field("VmHWM")? })
}

/// This process's current [`MemStatus`].
///
/// # Panics
///
/// When `/proc/self/status` is missing or malformed: the benchmark's
/// memory metrics cannot be measured on such a system.
pub fn mem_status() -> MemStatus {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    parse_status(&text).expect("/proc/self/status carries VmRSS and VmHWM")
}

/// 64-bit FNV-1a, folded over successive byte strings.
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a's offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: derives well-spread per-session seeds from the workload
/// seed and a session index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1..=1000: p99 is 990, and exactly ten samples (991..=1000) lie
        // beyond it.
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_unweighted(&samples, 0.99), Some(990));
        assert_eq!(percentile_unweighted(&samples, 0.5), Some(500));
        // With 999 samples p99 sits at 990 with only nine beyond: refused.
        assert_eq!(percentile_unweighted(&samples[..999], 0.99), None);
        // Ties do not count as beyond.
        let mut tied = vec![5u64; 990];
        tied.extend(std::iter::repeat_n(7, 9));
        assert_eq!(percentile_unweighted(&tied, 0.5), None);
        tied.push(8);
        assert_eq!(percentile_unweighted(&tied, 0.5), Some(5));
    }

    #[test]
    fn percentile_weighs_samples_and_ignores_empty_ones() {
        let mut samples = vec![(100, 90), (0, 0)];
        samples.extend((1..=10).map(|i| (1_000 + i, 1)));
        assert_eq!(percentile(&samples, 0.5), Some(100));
        assert_eq!(percentile(&samples, 0.9), Some(100));
        assert_eq!(percentile(&samples, 0.91), None, "fewer than ten samples beyond");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[(3, 0)], 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn status_parser_reads_rss_and_high_water_mark() {
        let text = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\n\
                    VmRSS:\t    6789 kB\nThreads:\t3\n";
        assert_eq!(parse_status(text), Some(MemStatus { rss_kb: 6789, hwm_kb: 12345 }));
        assert_eq!(parse_status("VmRSS:\t1 kB\n"), None, "VmHWM missing");
        assert_eq!(parse_status("VmRSS:\tx kB\nVmHWM:\t2 kB\n"), None, "not a number");
        assert_eq!(parse_status("VmRSS:\t1 MB\nVmHWM:\t2 kB\n"), None, "unexpected unit");
        // `VmRSSx` is another field, not `VmRSS`.
        assert_eq!(parse_status("VmRSSx:\t1 kB\nVmHWM:\t2 kB\n"), None);
        assert!(parse_status(&std::fs::read_to_string("/proc/self/status").unwrap()).is_some());
    }

    #[test]
    fn mix_spreads_seeds() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
