//! The summary statistics the benchmark reports, kept small enough to
//! test exhaustively: medians, quartiles, nearest-rank percentiles with
//! their sample counts, failure accounting and the peak-RSS read.

/// The median of `values` (mean of the middle two for an even count);
/// `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of `values`, exactly as Python's
/// `statistics.quantiles(values, n=4)` (default "exclusive" method)
/// computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p/100 * samples)`.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples rank above it: a p99 over fewer than ten such
    /// samples is close to the maximum and should be read as one.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`;
/// `None` when there are no values.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// One line describing a sample: count, quartiles and p99 with the
/// number of samples beyond it.
pub fn describe(values: &[f64]) -> String {
    match (quartiles(values), percentile(values, 99.0)) {
        (Some([q1, q2, q3]), Some(p)) => format!(
            "n={} q1={q1:.3} median={q2:.3} q3={q3:.3} p99={:.3} ({} beyond)",
            p.samples, p.value, p.beyond
        ),
        (None, Some(p)) => format!("n={} value={:.3}", p.samples, p.value),
        _ => "n=0".to_string(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations attempted and failed. An operation fails on a transport
/// error, a non-200 response, an output that differs from its
/// reference, or an evaluation error the reference did not produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome was wrong or missing.
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `count` operations that all failed (e.g. a batch whose
    /// call errored before delivering any output).
    pub fn fail_all(&mut self, count: u64) {
        self.attempted += count;
        self.failed += count;
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`, or `1.0` when nothing was attempted (a run
    /// that checked nothing proved nothing).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Parses the `VmHWM` line (peak resident set, in kB) of a
/// `/proc/<pid>/status` text into MiB.
pub fn vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB (Linux only).
pub fn peak_rss_mib() -> Option<f64> {
    vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values are Python 3's statistics.quantiles(v, n=4).
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[0.5, 2.5, 1.5, 4.0, 3.0, 10.0], [1.25, 2.75, 5.5]),
        ];
        for (values, expected) in cases {
            assert_eq!(quartiles(values), Some(expected), "{values:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank_with_its_sample_count() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let p99 = percentile(&values, 99.0).unwrap();
        assert_eq!(
            p99,
            Percentile {
                value: 198.0,
                samples: 200,
                beyond: 2
            }
        );
        let p50 = percentile(&values, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (100.0, 100));
        // With few samples p99 is the maximum, and says so.
        let small = percentile(&[2.0, 9.0, 4.0], 99.0).unwrap();
        assert_eq!((small.value, small.samples, small.beyond), (9.0, 3, 0));
        assert_eq!(percentile(&[], 99.0), None);
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 1.0, "nothing checked is not a pass");
        for ok in [true, true, false, true] {
            t.check(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_frac(), 0.25);
        let mut batch = Tally::default();
        batch.fail_all(4);
        t.absorb(batch);
        assert_eq!((t.attempted, t.failed), (8, 5));
        assert_eq!(t.fail_frac(), 0.625);
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  20480 kB\nVmHWM:\t    3072 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(3.0));
        assert_eq!(vm_hwm_mib("VmRSS:\t1024 kB\n"), None);
        assert_eq!(vm_hwm_mib("VmHWM:\t1024 MB\n"), None);
        let live = peak_rss_mib().expect("Linux exposes VmHWM");
        assert!(live > 0.0);
    }
}
