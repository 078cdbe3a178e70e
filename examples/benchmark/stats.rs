//! Order statistics over repeated host-time samples.
//!
//! The simulation is deterministic, so every rep of a workload does the
//! same work; what varies between reps is the shared host. Interference
//! only ever adds time, so the low quantile is the steady estimate of the
//! program's own cost — the benchmark reports the 10th percentile and
//! prints min / median / p75 beside it so the noise itself stays visible.

/// The estimator every host-time metric reports.
pub const ESTIMATOR: &str = "p10";

/// IQR/median above which a host-time sample set is flagged `noisy`.
pub const NOISY_IQR_SHARE: f64 = 0.15;

/// Linear-interpolated quantile `q` (0..=1) of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summary of one host-time metric over the timed reps of a run.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            p10: quantile(&sorted, 0.10),
            p25: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.50),
            p75: quantile(&sorted, 0.75),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.p75 - self.p25) / self.median
    }

    pub fn noisy(&self) -> bool {
        self.iqr_share() > NOISY_IQR_SHARE
    }
}

/// Nearest-rank median of integer samples (the runtime's own percentile
/// definition), 0 for an empty sample.
pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    sod::runtime::percentile_nearest_rank(values, 50)
}
