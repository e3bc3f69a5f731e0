//! Host wall-clock profiling of real kernels.
//!
//! The co-design workflow of Fig. 4 combines analytic cost models with measured runtime
//! performance (the authors use the PyTorch profiler and the TVM runtime). This module
//! provides the measured branch: it times closures on the host machine, with warm-up
//! and repetition, and produces per-stage records that can be compared against the
//! platform-model estimates.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One profiled stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileRecord {
    /// Stage name.
    pub name: String,
    /// Number of measured repetitions.
    pub repetitions: usize,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Minimum latency in milliseconds.
    pub min_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
}

/// A simple wall-clock profiler collecting named records.
///
/// # Example
///
/// ```
/// use ispot_codesign::profiler::HostProfiler;
///
/// let profiler = HostProfiler::new(1, 3);
/// let record = profiler.measure("sum", || {
///     (0..1000u64).sum::<u64>()
/// });
/// assert_eq!(record.name, "sum");
/// assert!(record.mean_ms >= 0.0);
/// assert_eq!(profiler.records().len(), 1);
/// ```
#[derive(Debug)]
pub struct HostProfiler {
    warmup: usize,
    repetitions: usize,
    records: Mutex<Vec<ProfileRecord>>,
}

impl HostProfiler {
    /// Creates a profiler running `warmup` unmeasured and `repetitions` measured
    /// iterations per stage (repetitions is clamped to at least 1).
    pub fn new(warmup: usize, repetitions: usize) -> Self {
        HostProfiler {
            warmup,
            repetitions: repetitions.max(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Measures a closure, records and returns its timing statistics. The closure's
    /// return value is discarded but its computation is kept via `std::hint::black_box`.
    pub fn measure<T>(&self, name: &str, mut f: impl FnMut() -> T) -> ProfileRecord {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut times_ms = Vec::with_capacity(self.repetitions);
        for _ in 0..self.repetitions {
            let start = Instant::now();
            std::hint::black_box(f());
            times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let mean = times_ms.iter().sum::<f64>() / times_ms.len() as f64;
        let min = times_ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times_ms.iter().cloned().fold(0.0f64, f64::max);
        let record = ProfileRecord {
            name: name.to_string(),
            repetitions: self.repetitions,
            mean_ms: mean,
            min_ms: min,
            max_ms: max,
        };
        self.records.lock().push(record.clone());
        record
    }

    /// All records collected so far.
    pub fn records(&self) -> Vec<ProfileRecord> {
        self.records.lock().clone()
    }

    /// Sum of the mean latencies of all recorded stages, in milliseconds.
    pub fn total_mean_ms(&self) -> f64 {
        self.records.lock().iter().map(|r| r.mean_ms).sum()
    }

    /// Clears the collected records.
    pub fn clear(&self) {
        self.records.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_accumulates_records() {
        let profiler = HostProfiler::new(1, 5);
        let a = profiler.measure("fast", || 1 + 1);
        // `black_box` on the bound and the accumulator keeps the optimizer from
        // folding the loop to a closed form, so "slow" really does the work.
        let b = profiler.measure("slow", || {
            let mut acc = 0u64;
            for i in 0..std::hint::black_box(200_000u64) {
                acc = std::hint::black_box(acc.wrapping_add(i * i));
            }
            acc
        });
        assert!(a.min_ms <= a.mean_ms && a.mean_ms <= a.max_ms + 1e-12);
        assert!(b.mean_ms >= a.mean_ms);
        assert_eq!(profiler.records().len(), 2);
        assert!(profiler.total_mean_ms() >= b.mean_ms);
        profiler.clear();
        assert!(profiler.records().is_empty());
    }

    #[test]
    fn repetitions_are_clamped_to_at_least_one() {
        let profiler = HostProfiler::new(0, 0);
        let r = profiler.measure("noop", || ());
        assert_eq!(r.repetitions, 1);
    }
}
