//! Small numeric helpers: the chunk→frame completion mapping, quantiles with
//! the tail rule, windowed rates and a digest for outputs.

use ispot_core::events::PerceptionEvent;
use ispot_core::stages::FrameOutcome;
use ispot_ssl::multitrack::TrackStatus;

/// Index of the chunk whose arrival completes frame `k` of a stream framed at
/// `frame_len`/`hop` and fed in chunks of `chunk` samples:
/// ⌈(frame_len + hop·k) / chunk⌉ − 1.
pub fn completing_chunk(k: usize, frame_len: usize, hop: usize, chunk: usize) -> usize {
    (frame_len + hop * k).div_ceil(chunk) - 1
}

/// Number of frames complete once the first `chunks` chunks have arrived — the
/// inverse of [`completing_chunk`].
pub fn frames_after(chunks: usize, frame_len: usize, hop: usize, chunk: usize) -> usize {
    let samples = chunks * chunk;
    if samples < frame_len {
        0
    } else {
        (samples - frame_len) / hop + 1
    }
}

/// Levels, in thousandths, a tail metric may fall back to, highest first.
const TAIL_LEVELS: [usize; 7] = [999, 990, 950, 900, 750, 500, 0];

/// The highest percentile level, at most `wanted`, that leaves at least ten
/// of `n` samples beyond it (`0.0`, the minimum, when `n < 20`).
pub fn tail_level(n: usize, wanted: f64) -> f64 {
    let level = TAIL_LEVELS
        .into_iter()
        .filter(|&l| l as f64 <= wanted * 1000.0 + 1e-9)
        .find(|&l| n * (1000 - l) >= 10 * 1000)
        .unwrap_or(0);
    level as f64 / 1000.0
}

/// Nearest-rank quantile of an ascending slice; `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The small offset keeps `q · n` products such as 0.9 · 100 on their
    // exact rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns its median (`NaN` when empty).
pub fn median(values: &mut [f64]) -> f64 {
    sorted_quantile(values, 0.5)
}

/// Median and tail of a latency sample: `(p50, tail value, tail level)`,
/// the tail taken at [`tail_level`] of `wanted`.
pub fn median_and_tail(values: &mut [f64], wanted: f64) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let level = tail_level(values.len(), wanted);
    (quantile(values, 0.5), quantile(values, level), level)
}

/// Cumulative counters at one saturation window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Window {
    /// Worker CPU time since the phase began, s.
    pub cpu_s: f64,
    /// Frames delivered.
    pub frames: u64,
    /// Calibration kernel calls.
    pub calib_calls: u64,
    /// Total calibration kernel time, ns.
    pub calib_ns: u64,
}

/// Frames per worker CPU second in each window, in time order. A boundary
/// repeated with no CPU time elapsed adds no window.
pub fn window_rates(windows: &[Window]) -> Vec<f64> {
    windows
        .windows(2)
        .filter(|w| w[1].cpu_s > w[0].cpu_s)
        .map(|w| (w[1].frames - w[0].frames) as f64 / (w[1].cpu_s - w[0].cpu_s))
        .collect()
}

/// Each window's rate scaled to a worker whose calibration kernel takes
/// `reference_ns`: `rate · (kernel ns per call) / reference_ns`, in time
/// order. Windows without CPU time or without a kernel call are dropped.
pub fn calibrated_rates(windows: &[Window], reference_ns: f64) -> Vec<f64> {
    windows
        .windows(2)
        .filter(|w| w[1].cpu_s > w[0].cpu_s && w[1].calib_calls > w[0].calib_calls)
        .map(|w| {
            let rate = (w[1].frames - w[0].frames) as f64 / (w[1].cpu_s - w[0].cpu_s);
            let per_call = (w[1].calib_ns - w[0].calib_ns) as f64
                / (w[1].calib_calls - w[0].calib_calls) as f64;
            rate * per_call / reference_ns
        })
        .collect()
}

/// Mean calibration kernel time per call in each window with a call, ns,
/// in time order.
pub fn window_kernel_ns(windows: &[Window]) -> Vec<f64> {
    windows
        .windows(2)
        .filter(|w| w[1].calib_calls > w[0].calib_calls)
        .map(|w| {
            (w[1].calib_ns - w[0].calib_ns) as f64 / (w[1].calib_calls - w[0].calib_calls) as f64
        })
        .collect()
}

/// Sorts `values` and returns quantile `q` of them (`NaN` when empty).
pub fn sorted_quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q)
}

/// FNV-1a over 64-bit words: a cheap, allocation-free fingerprint of a
/// stream's outputs, folded on the worker thread as frames are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The fingerprint so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            None => self.word(u64::MAX),
            Some(x) => self.word(x.to_bits()),
        }
    }

    /// Folds a frame outcome, bit-exactly.
    pub fn outcome(&mut self, outcome: &FrameOutcome) {
        match *outcome {
            FrameOutcome::Gated => self.word(0),
            FrameOutcome::Analyzed => self.word(1),
            FrameOutcome::Detection {
                class,
                confidence,
                azimuth_deg,
                tracked_azimuth_deg,
            } => {
                self.word(2);
                self.word(class.index() as u64);
                self.word(confidence.to_bits());
                self.opt(azimuth_deg);
                self.opt(tracked_azimuth_deg);
            }
        }
    }

    /// Folds the parts of an event its frame outcome does not carry: frame
    /// index, time and every track.
    pub fn event(&mut self, event: &PerceptionEvent) {
        self.word(event.frame_index as u64);
        self.word(event.time_s.to_bits());
        for track in event.tracks.iter() {
            self.word(track.id.raw());
            self.word(track.azimuth_deg.to_bits());
            self.word(track.rate_deg_per_step.to_bits());
            self.word(match track.status {
                TrackStatus::Tentative => 0,
                TrackStatus::Confirmed => 1,
                TrackStatus::Coasting => 2,
            });
            self.word(u64::from(track.age) << 32 | u64::from(track.misses));
            self.word(track.strength.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completing_chunk_matches_the_frame_grid() {
        // 2048-sample frames every 1024 samples, fed 512 at a time: frame 0
        // needs chunks 0..=3, each later frame two more chunks.
        assert_eq!(completing_chunk(0, 2048, 1024, 512), 3);
        assert_eq!(completing_chunk(1, 2048, 1024, 512), 5);
        assert_eq!(completing_chunk(10, 2048, 1024, 512), 23);
        // Chunks that do not divide the hop round up.
        assert_eq!(completing_chunk(0, 2048, 1024, 300), 6);
        assert_eq!(completing_chunk(1, 2048, 1024, 300), 10);
        for k in 0..50 {
            for chunk in [128, 300, 512, 1000] {
                let c = completing_chunk(k, 2048, 1024, chunk);
                assert_eq!(frames_after(c + 1, 2048, 1024, chunk), k + 1);
                assert_eq!(frames_after(c, 2048, 1024, chunk), k);
            }
        }
        assert_eq!(frames_after(0, 2048, 1024, 512), 0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(10_000, 0.999), 0.999);
        assert_eq!(tail_level(9_999, 0.999), 0.99);
        assert_eq!(tail_level(1_000, 0.99), 0.99);
        assert_eq!(tail_level(999, 0.99), 0.95);
        assert_eq!(tail_level(200, 0.99), 0.95);
        assert_eq!(tail_level(100, 0.99), 0.9);
        assert_eq!(tail_level(40, 0.99), 0.75);
        assert_eq!(tail_level(20, 0.99), 0.5);
        assert_eq!(tail_level(19, 0.99), 0.0);
        assert_eq!(tail_level(0, 0.99), 0.0);
        // Never above the level asked for.
        assert_eq!(tail_level(1_000_000, 0.99), 0.99);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
        let mut w = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut w), 2.0);
        let mut lat: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(median_and_tail(&mut lat, 0.99), (500.0, 990.0, 0.99));
    }

    /// Boundaries of windows with the given CPU seconds, frames and kernel
    /// `(calls, ns)`.
    fn boundaries(windows: &[(f64, u64, u64, u64)]) -> Vec<Window> {
        let mut at = Window::default();
        let mut out = vec![at];
        for &(cpu_s, frames, calib_calls, calib_ns) in windows {
            at.cpu_s += cpu_s;
            at.frames += frames;
            at.calib_calls += calib_calls;
            at.calib_ns += calib_ns;
            out.push(at);
        }
        out
    }

    #[test]
    fn capacity_is_the_median_over_window_rates() {
        // Windows of 0.5 s at 100, 120, 4000 (a burst) and 110 frames/s.
        let w = boundaries(&[
            (0.5, 50, 1, 10),
            (0.5, 60, 1, 10),
            (0.5, 2000, 1, 10),
            (0.5, 55, 1, 10),
        ]);
        assert_eq!(window_rates(&w), vec![100.0, 120.0, 4000.0, 110.0]);
        // The burst does not move the median.
        assert_eq!(median(&mut window_rates(&w)), 110.0);
        // Uneven windows are rated by their own length.
        let uneven = boundaries(&[(0.25, 25, 0, 0), (1.0, 100, 0, 0), (0.25, 25, 0, 0)]);
        assert_eq!(window_rates(&uneven), vec![100.0; 3]);
        // A repeated boundary (no CPU time elapsed) is skipped, not divided by.
        let repeated = boundaries(&[(0.5, 50, 0, 0), (0.0, 0, 0, 0), (0.5, 50, 0, 0)]);
        assert_eq!(window_rates(&repeated), vec![100.0, 100.0]);
        assert!(window_rates(&boundaries(&[])).is_empty());
    }

    #[test]
    fn calibration_scales_each_window_by_its_kernel_time() {
        // The second window's CPU ran the kernel twice as slow, and the host
        // at half the rate: both read the same once calibrated.
        let w = boundaries(&[(1.0, 400, 4, 80), (1.0, 200, 4, 160), (1.0, 100, 0, 0)]);
        assert_eq!(window_rates(&w), vec![400.0, 200.0, 100.0]);
        // The window without a kernel call is dropped.
        assert_eq!(calibrated_rates(&w, 20.0), vec![400.0, 400.0]);
        assert_eq!(calibrated_rates(&w, 40.0), vec![200.0, 200.0]);
        assert_eq!(window_kernel_ns(&w), vec![20.0, 40.0]);
    }

    #[test]
    fn digest_separates_outcomes() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.outcome(&FrameOutcome::Gated);
        b.outcome(&FrameOutcome::Analyzed);
        assert_ne!(a, b);
        let detection = |confidence: f64| FrameOutcome::Detection {
            class: ispot_sed::EventClass::WailSiren,
            confidence,
            azimuth_deg: Some(10.0),
            tracked_azimuth_deg: None,
        };
        let (mut c, mut d) = (Digest::default(), Digest::default());
        c.outcome(&detection(0.5));
        d.outcome(&detection(0.5 + f64::EPSILON));
        assert_ne!(c, d);
        let mut e = Digest::default();
        e.outcome(&detection(0.5));
        assert_eq!(c, e);
    }
}
