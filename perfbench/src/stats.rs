//! Order statistics, a query-latency histogram, and the process's peak memory.

/// The `p`-th percentile (0–100) of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of the middle 80% of `values`: a few stalls at either end are
/// dropped, and unlike the median the result moves smoothly when the host
/// alternates between a fast and a slow speed within one run.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Nanosecond latencies at 1 ns resolution up to [`LatencyHist::EXACT_NS`], exact
/// values above it (rare: preemptions).
#[derive(Clone, Debug)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    over: Vec<u64>,
    count: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: vec![0; Self::EXACT_NS as usize],
            over: Vec::new(),
            count: 0,
        }
    }
}

impl LatencyHist {
    pub const EXACT_NS: u64 = 1 << 14;

    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        match self.buckets.get_mut(ns as usize) {
            Some(slot) => *slot += 1,
            None => self.over.push(ns),
        }
    }

    /// The smallest recorded value with at least `p`% of the sample at or below it.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ns as f64;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(target - seen - 1) as usize] as f64
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_histograms_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut stalled: Vec<f64> = (1..=9).map(f64::from).collect();
        stalled.push(1000.0);
        assert_eq!(trimmed_mean(&stalled), 5.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        let mut h = LatencyHist::default();
        for ns in [10, 20, 30, 40, 1 << 20] {
            h.record(ns);
        }
        assert_eq!(h.percentile(50.0), 30.0);
        assert_eq!(h.percentile(100.0), (1u64 << 20) as f64);
    }
}
