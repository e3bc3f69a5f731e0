//! A fixed calibration kernel run on the host's worker thread, from the
//! benchmark's sink, once every [`EVERY`] delivered frames.
//!
//! Other tenants of a shared machine slow the worker's CPU down for seconds
//! or whole runs at a time, and the host's frame rate with it. The kernel
//! runs on the same CPU at the same moments, so its time tracks that
//! slowdown, and capacity is reported as if the kernel had taken
//! [`REFERENCE_NS`]. Set-up time, measured right after, is scaled by the
//! kernel's median time over the saturation windows.
//!
//! The kernel shares no code with the program under test. Only its second
//! pass over a cache-resident buffer is timed, so its time does not depend
//! on what the program left in the caches either: a first, untimed pass
//! loads the buffer. Timing a cold pass instead made the calibration follow
//! the host's own cache footprint, which moved it by a third between runs
//! of the same code on park-idle and would let a program change that
//! thrashes the caches hide part of its cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Frames delivered between two kernel calls.
pub const EVERY: u64 = 64;
/// `f32` elements the kernel streams through: 128 KiB, which stays in a
/// core's level-2 cache between the two passes.
const LEN: usize = 32 * 1024;
/// Timed-pass time per call at which capacity is reported unscaled: about
/// its median on an uncontended 2-vCPU Xeon VM.
pub const REFERENCE_NS: f64 = 7_000.0;

static FRAMES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static BUF: Vec<f32> = (0..LEN).map(|i| ((i * 7) % 97) as f32 * 1e-3).collect();
}

/// Kernel calls and their total time in ns so far. Both are statistics that
/// publish no other data, so relaxed loads suffice.
pub fn totals() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), NS.load(Ordering::Relaxed))
}

/// Counts one delivered frame and runs the kernel on every [`EVERY`]th.
pub fn on_frame() {
    if FRAMES.fetch_add(1, Ordering::Relaxed).is_multiple_of(EVERY) {
        NS.fetch_add(time_kernel(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the kernel twice on the calling thread and returns the time of the
/// second pass in ns.
fn time_kernel() -> u64 {
    std::hint::black_box(kernel());
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_nanos() as u64
}

/// One pass over the buffer: sixteen independent multiply-add chains, the
/// vector arithmetic and streaming loads the pipeline's stages are made of.
fn kernel() -> f32 {
    BUF.with(|buf| {
        let mut acc = [0f32; 16];
        for lanes in buf.chunks_exact(16) {
            for (l, a) in acc.iter_mut().enumerate() {
                *a = *a * 0.999 + lanes[l] * lanes[(l + 3) % 16];
            }
        }
        acc.iter().sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_once_every_period() {
        // The counters are process-wide; this is the only test that moves
        // them.
        let (calls, ns) = totals();
        for _ in 0..3 * EVERY {
            on_frame();
        }
        let (later_calls, later_ns) = totals();
        assert_eq!(later_calls - calls, 3);
        assert!(later_ns > ns);
        assert!(kernel().is_finite());
    }
}
