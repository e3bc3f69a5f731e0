//! Per-stage latency accounting.
//!
//! The headline hardware result of the paper is an end-to-end frame latency of
//! 8.59 ms on a RasPi-4B-class device after co-design optimization (7.26× faster than
//! the baseline). The pipeline keeps per-stage wall-clock statistics so that experiment
//! E6 can report the same breakdown on the host machine.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated latency statistics for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageLatency {
    /// Number of timed invocations.
    pub invocations: usize,
    /// Total time in milliseconds.
    pub total_ms: f64,
    /// Maximum single-invocation time in milliseconds.
    pub max_ms: f64,
}

impl StageLatency {
    /// Mean time per invocation in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_ms / self.invocations as f64
        }
    }
}

/// A per-stage latency report for a processing run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    stages: BTreeMap<String, StageLatency>,
    frames: usize,
}

impl LatencyReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `elapsed_ms` for `stage`.
    ///
    /// Only the first record of a given stage name allocates (the key); every
    /// later record looks the entry up by `&str` and is heap-allocation-free, so
    /// per-frame latency accounting stays off the allocator in steady state.
    pub fn record(&mut self, stage: &str, elapsed_ms: f64) {
        let entry = match self.stages.get_mut(stage) {
            Some(entry) => entry,
            None => self.stages.entry(stage.to_string()).or_default(),
        };
        entry.invocations += 1;
        entry.total_ms += elapsed_ms;
        entry.max_ms = entry.max_ms.max(elapsed_ms);
    }

    /// Times a closure and records it under `stage`, returning the closure result.
    pub fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Increments the processed-frame counter.
    pub fn count_frame(&mut self) {
        self.frames += 1;
    }

    /// Number of processed frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Statistics for one stage, if it was ever recorded.
    pub fn stage(&self, stage: &str) -> Option<StageLatency> {
        self.stages.get(stage).copied()
    }

    /// All stages in name order.
    pub fn stages(&self) -> impl Iterator<Item = (&str, &StageLatency)> {
        self.stages.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total accumulated time across all stages, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.stages.values().map(|s| s.total_ms).sum()
    }

    /// Mean end-to-end time per processed frame, in milliseconds.
    pub fn mean_frame_ms(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_ms() / self.frames as f64
        }
    }
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "frames: {}  mean end-to-end: {:.3} ms/frame",
            self.frames,
            self.mean_frame_ms()
        )?;
        for (name, stage) in &self.stages {
            writeln!(
                f,
                "  {name:<14} mean {:.3} ms  max {:.3} ms  ({} calls)",
                stage.mean_ms(),
                stage.max_ms,
                stage.invocations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_and_aggregation() {
        let mut report = LatencyReport::new();
        report.record("features", 1.0);
        report.record("features", 3.0);
        report.record("detector", 2.0);
        report.count_frame();
        report.count_frame();
        let features = report.stage("features").unwrap();
        assert_eq!(features.invocations, 2);
        assert_eq!(features.mean_ms(), 2.0);
        assert_eq!(features.max_ms, 3.0);
        assert_eq!(report.total_ms(), 6.0);
        assert_eq!(report.mean_frame_ms(), 3.0);
        assert_eq!(report.frames(), 2);
    }

    #[test]
    fn time_closure_records_positive_duration() {
        let mut report = LatencyReport::new();
        let value = report.time("work", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(value > 0);
        assert!(report.stage("work").unwrap().total_ms >= 0.0);
    }

    #[test]
    fn display_lists_stages() {
        let mut report = LatencyReport::new();
        report.record("detector", 1.5);
        report.count_frame();
        let text = report.to_string();
        assert!(text.contains("detector"));
        assert!(text.contains("ms/frame"));
    }

    #[test]
    fn empty_report_has_zero_means() {
        let report = LatencyReport::new();
        assert_eq!(report.mean_frame_ms(), 0.0);
        assert_eq!(StageLatency::default().mean_ms(), 0.0);
    }
}
