//! The hosted run: set-up, warm-up, a paced phase and a saturation phase on
//! one `SessionHost`, with every time taken by this file's own code around
//! public calls.
//!
//! * **Paced (open loop).** Each stream gets one chunk every 32 ms, the
//!   streams' phases evenly staggered. A frame's latency runs from the time
//!   its completing chunk was *due* to the sink's `on_frame` for it, so a
//!   late generator or a stalled worker both count.
//! * **Saturation (closed loop).** Each stream keeps at most
//!   [`OUTSTANDING`] chunks unprocessed, far below the shed watermark, so the
//!   worker never idles and never degrades. Capacity is read from short
//!   windows of frames delivered per second of worker CPU time, taken from
//!   the worker's `schedstat`, so time the hypervisor steals from the VM is
//!   not charged to the host, and from the [`calib`] kernel's time in each
//!   window.

use crate::bank::{Bank, Sequence, CHUNK, SAMPLE_RATE};
use crate::calib;
use crate::procfs::{self, CpuTimes, SchedStat};
use crate::stats::{completing_chunk, frames_after, Digest, Window};
use crate::workload::{sequence_of, Workload};
use ispot_core::api::PipelineBuilder;
use ispot_core::events::PerceptionEvent;
use ispot_core::sink::EventSink;
use ispot_core::stages::FrameOutcome;
use ispot_serve::{HostConfig, MetricsSnapshot, SessionHost, StreamId};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker threads: one, so the worker and the generator fit two cores.
pub const WORKERS: usize = 1;
/// Frame length and hop of the default pipeline configuration.
pub const FRAME_LEN: usize = 2048;
/// Hop between frames, samples.
pub const HOP: usize = 1024;
/// Most chunks a stream keeps unprocessed in the saturation phase: one hop,
/// so each stream is topped up only once its last frame is delivered and the
/// worker finds exactly one frame's chunks on every visit, as on the paced
/// schedule. A deeper backlog lets the worker run two or three of a stream's
/// frames back to back, in a mix that varies from run to run and moved
/// capacity by a quarter between runs of the same code. Far below the 0.75
/// shed watermark of the 8-chunk rings.
pub const OUTSTANDING: usize = HOP / CHUNK;
/// Length of one capacity window.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Pause between the closed-loop generator's sweeps over the streams.
const SWEEP: Duration = Duration::from_micros(500);
/// Warm-up before the paced phase, on the same paced schedule.
pub const WARM_UP: Duration = Duration::from_secs(1);
/// Name of the host's worker thread.
const WORKER_THREAD: &str = "ispot-serve-0";

/// Nanoseconds since `epoch`.
fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// What a stream's sink saw, shared with the benchmark.
#[derive(Debug, Default)]
pub struct Delivery {
    /// `on_frame` time of every frame, ns since the run's epoch.
    pub frame_ns: Vec<u64>,
    /// Fingerprint of every outcome and event, in delivery order.
    pub digest: Digest,
    /// Events delivered.
    pub events: u64,
}

/// A stream's delivery record and the frame count the closed loop reads.
#[derive(Debug, Default)]
pub struct Probe {
    frames: AtomicU64,
    delivery: Mutex<Delivery>,
}

impl Probe {
    fn with_capacity(frames: usize) -> Arc<Probe> {
        let probe = Probe::default();
        probe.lock().frame_ns.reserve(frames);
        Arc::new(probe)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Delivery> {
        self.delivery
            .lock()
            .expect("a sink panicked while holding its delivery record")
    }

    /// Frames delivered so far.
    pub fn frames(&self) -> u64 {
        // Pairs with the Release increment in `on_frame`: the frame count
        // never runs ahead of the record.
        self.frames.load(Ordering::Acquire)
    }
}

/// The sink every hosted stream reports to.
struct ProbeSink {
    probe: Arc<Probe>,
    epoch: Instant,
}

impl EventSink for ProbeSink {
    fn on_event(&mut self, event: &PerceptionEvent) {
        let mut d = self.probe.lock();
        d.digest.event(event);
        d.events += 1;
    }

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        let t = ns_since(self.epoch);
        {
            let mut d = self.probe.lock();
            d.frame_ns.push(t);
            d.digest.outcome(outcome);
        }
        self.probe.frames.fetch_add(1, Ordering::Release);
        calib::on_frame();
    }
}

/// Times of one chunk pushed on the paced schedule, ns since the run's
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct ChunkTimes {
    /// When the chunk was due.
    pub due: u64,
    /// When `push_chunk` was first called for it.
    pub start: u64,
    /// When the accepting `push_chunk` returned.
    pub ret: u64,
}

/// One stream's view of the run.
#[derive(Debug)]
pub struct StreamRecord {
    /// Index of the sequence the stream replays.
    pub sequence: usize,
    /// Chunks pushed.
    pub chunks: usize,
    /// Times of the chunks pushed on the paced schedule — the warm-up and
    /// the paced phase — which are the stream's first chunks.
    pub paced: Vec<ChunkTimes>,
    /// What the sink received.
    pub delivery: Delivery,
}

/// Timings of one set-up.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Engine build to the last `open_stream`, excluding the `/proc` read
    /// between them.
    pub seconds: f64,
    /// Duration of each `open_stream`, µs.
    pub open_us: Vec<f64>,
    /// Resident memory with the host built and no stream open, kB.
    pub rss_before_open_kb: u64,
}

/// Builds the engine and the host and opens one stream per probe.
///
/// # Errors
///
/// Returns the pipeline or serve error that stopped the set-up.
pub fn set_up(
    workload: &Workload,
    probes: &[Arc<Probe>],
    epoch: Instant,
) -> Result<(SessionHost, Vec<StreamId>, Setup), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let engine = PipelineBuilder::new(SAMPLE_RATE)
        .array(&crate::bank::array())
        .mode(workload.mode)
        .build_engine()?;
    let host = SessionHost::new(
        engine,
        HostConfig {
            workers: WORKERS,
            max_sessions: workload.streams,
            max_chunk_len: CHUNK,
            ..HostConfig::default()
        },
    )?;
    let built = started.elapsed();
    let rss_before_open_kb = procfs::status_kb("VmRSS");
    let opening = Instant::now();
    let mut open_us = Vec::with_capacity(probes.len());
    let mut ids = Vec::with_capacity(probes.len());
    for probe in probes {
        let t = Instant::now();
        ids.push(host.open_stream(ProbeSink {
            probe: Arc::clone(probe),
            epoch,
        })?);
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let seconds = (built + opening.elapsed()).as_secs_f64();
    Ok((
        host,
        ids,
        Setup {
            seconds,
            open_us,
            rss_before_open_kb,
        },
    ))
}

/// Everything the hosted run measured.
#[derive(Debug)]
pub struct HostRun {
    /// The run's own set-up.
    pub setup: Setup,
    /// Resident memory after the warm-up, kB.
    pub rss_after_warm_up_kb: u64,
    /// Peak resident memory once both phases ran, kB.
    pub peak_rss_kb: u64,
    /// Per-stream records.
    pub streams: Vec<StreamRecord>,
    /// Paced phase bounds, ns since the epoch: frames whose completing chunk
    /// was due in `[start, end)` count.
    pub paced_ns: (u64, u64),
    /// Each window boundary of the saturation phase.
    pub windows: Vec<Window>,
    /// `push_chunk` calls and refusals (`Busy`/`Shed`) over the whole run.
    pub calls: (u64, u64),
    /// `push_chunk` calls and refusals in the saturation phase.
    pub saturation_calls: (u64, u64),
    /// Host counters after both phases.
    pub metrics: MetricsSnapshot,
    /// Worker scheduler statistics over the paced phase.
    pub worker_paced: SchedStat,
    /// Worker scheduler statistics over the saturation phase.
    pub worker_saturation: SchedStat,
    /// Wall time of the paced and saturation phases, s.
    pub phase_seconds: (f64, f64),
    /// Machine CPU times at the paced start and the saturation end.
    pub cpu: (CpuTimes, CpuTimes),
}

/// The chunk-pushing side of the run: stream handles, sequences and logs.
struct Generator<'a> {
    host: &'a SessionHost,
    ids: Vec<StreamId>,
    bank: &'a Bank,
    sequences: &'a [Sequence],
    pushed: Vec<usize>,
    paced: Vec<Vec<ChunkTimes>>,
    epoch: Instant,
    calls: u64,
    refused: u64,
}

impl Generator<'_> {
    /// Pushes stream `s`'s next chunk, logging its times when it was `due` on
    /// the paced schedule. On refusal, returns `false` without `retry`, and
    /// otherwise retries every 100 µs until accepted.
    fn push(
        &mut self,
        s: usize,
        due: Option<u64>,
        retry: bool,
    ) -> Result<bool, Box<dyn std::error::Error>> {
        let j = self.pushed[s];
        let seq = self.sequences[sequence_of(s, self.sequences.len())];
        let views = seq.chunk(self.bank, j);
        let start = ns_since(self.epoch);
        loop {
            self.calls += 1;
            match self.host.push_chunk(self.ids[s], &views) {
                Ok(()) => break,
                Err(e) if e.is_transient() => {
                    self.refused += 1;
                    if !retry {
                        return Ok(false);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(Box::new(e)),
            }
        }
        self.pushed[s] += 1;
        if let Some(due) = due {
            let ret = ns_since(self.epoch);
            self.paced[s].push(ChunkTimes { due, start, ret });
        }
        Ok(true)
    }

    /// Open loop: stream `g % n` gets its next chunk at `origin + g·step`,
    /// for every slot due before `until`.
    fn paced(
        &mut self,
        origin: u64,
        from_slot: u64,
        until: u64,
    ) -> Result<u64, Box<dyn std::error::Error>> {
        let n = self.ids.len() as u64;
        let step = CHUNK as f64 / SAMPLE_RATE * 1e9 / n as f64;
        let mut g = from_slot;
        loop {
            let due = origin + (g as f64 * step) as u64;
            if due >= until {
                return Ok(g);
            }
            let now = ns_since(self.epoch);
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            self.push((g % n) as usize, Some(due), true)?;
            g += 1;
        }
    }

    /// Closed loop until `until`: tops every stream up to [`OUTSTANDING`]
    /// unprocessed chunks, sampling delivered frames at window boundaries.
    fn saturate(
        &mut self,
        probes: &[Arc<Probe>],
        worker: &Path,
        until: u64,
    ) -> Result<Vec<Window>, Box<dyn std::error::Error>> {
        let origin = ns_since(self.epoch);
        let cpu_origin = procfs::schedstat(worker).run_ns;
        let sample = || {
            let (calib_calls, calib_ns) = calib::totals();
            Window {
                cpu_s: procfs::schedstat(worker).run_ns.saturating_sub(cpu_origin) as f64 * 1e-9,
                frames: probes.iter().map(|p| p.frames()).sum(),
                calib_calls,
                calib_ns,
            }
        };
        let mut windows = vec![sample()];
        let window_ns = WINDOW.as_nanos() as u64;
        let mut next_window = origin + window_ns;
        loop {
            let now = ns_since(self.epoch);
            if now >= next_window {
                windows.push(sample());
                next_window += window_ns;
            }
            if now >= until {
                return Ok(windows);
            }
            for (s, probe) in probes.iter().enumerate() {
                let frames = probe.frames() as usize;
                let processed = match frames {
                    0 => 0,
                    f => completing_chunk(f - 1, FRAME_LEN, HOP, CHUNK) + 1,
                };
                while self.pushed[s] - processed < OUTSTANDING {
                    if !self.push(s, None, false)? {
                        break;
                    }
                }
            }
            std::thread::sleep(SWEEP);
        }
    }
}

/// Runs set-up, warm-up, the paced phase and the saturation phase on one
/// host, then waits for it to drain.
///
/// # Errors
///
/// Returns a pipeline or serve error that stopped the run, or an error if the
/// host does not drain.
pub fn run(
    workload: &Workload,
    bank: &Bank,
    sequences: &[Sequence],
    paced: Duration,
    saturation: Duration,
) -> Result<HostRun, Box<dyn std::error::Error>> {
    let epoch = Instant::now();
    let n = workload.streams;
    // Room for every frame the run can deliver at up to 50 000 frames/s, so
    // the sinks never allocate; pages are only touched as frames arrive.
    let paced_s = (WARM_UP + paced).as_secs_f64();
    let paced_chunks = (paced_s * SAMPLE_RATE) as usize / CHUNK + 8;
    let capacity = paced_chunks / 2 + (saturation.as_secs_f64() * 50_000.0) as usize / n;
    let probes: Vec<Arc<Probe>> = (0..n).map(|_| Probe::with_capacity(capacity)).collect();
    let (host, ids, setup) = set_up(workload, &probes, epoch)?;
    let worker = procfs::thread_named(WORKER_THREAD)
        .ok_or("no readable schedstat for the host's worker thread")?;
    let mut gen = Generator {
        host: &host,
        ids,
        bank,
        sequences,
        pushed: vec![0; n],
        paced: (0..n).map(|_| Vec::with_capacity(paced_chunks)).collect(),
        epoch,
        calls: 0,
        refused: 0,
    };

    let origin = ns_since(epoch) + 1_000_000;
    let warm_end = origin + WARM_UP.as_nanos() as u64;
    let slot = gen.paced(origin, 0, warm_end)?;
    let rss_after_warm_up_kb = procfs::status_kb("VmRSS");

    let cpu_start = procfs::cpu_times();
    let sched_paced = procfs::schedstat(&worker);
    let paced_start = Instant::now();
    let paced_end = warm_end + paced.as_nanos() as u64;
    gen.paced(origin, slot, paced_end)?;
    let paced_seconds = paced_start.elapsed().as_secs_f64();
    let before_saturation = (gen.calls, gen.refused);

    let sched_saturation = procfs::schedstat(&worker);
    let saturation_start = Instant::now();
    let until = ns_since(epoch) + saturation.as_nanos() as u64;
    let windows = gen.saturate(&probes, &worker, until)?;
    let saturation_seconds = saturation_start.elapsed().as_secs_f64();
    let sched_end = procfs::schedstat(&worker);
    let cpu_end = procfs::cpu_times();
    let saturation_calls = (
        gen.calls - before_saturation.0,
        gen.refused - before_saturation.1,
    );
    if !host.wait_idle(Duration::from_secs(60)) {
        return Err("the host did not drain within 60 s".into());
    }
    let metrics = host.metrics();
    let peak_rss_kb = procfs::status_kb("VmHWM");
    let (pushed, paced_times) = (
        std::mem::take(&mut gen.pushed),
        std::mem::take(&mut gen.paced),
    );
    let calls = (gen.calls, gen.refused);
    drop(host);

    let streams = pushed
        .into_iter()
        .zip(paced_times)
        .zip(&probes)
        .enumerate()
        .map(|(s, ((chunks, paced), probe))| StreamRecord {
            sequence: sequence_of(s, sequences.len()),
            chunks,
            paced,
            delivery: std::mem::take(&mut *probe.lock()),
        })
        .collect::<Vec<_>>();
    for record in &streams {
        let expected = frames_after(record.chunks, FRAME_LEN, HOP, CHUNK);
        if record.delivery.frame_ns.len() != expected {
            return Err(format!(
                "a stream delivered {} frames for {} chunks (expected {expected})",
                record.delivery.frame_ns.len(),
                record.chunks
            )
            .into());
        }
    }
    Ok(HostRun {
        setup,
        rss_after_warm_up_kb,
        peak_rss_kb,
        streams,
        paced_ns: (warm_end, paced_end),
        windows,
        calls,
        saturation_calls,
        metrics,
        worker_paced: sched_paced.until(&sched_saturation),
        worker_saturation: sched_saturation.until(&sched_end),
        phase_seconds: (paced_seconds, saturation_seconds),
        cpu: (cpu_start, cpu_end),
    })
}

/// Times one more set-up (engine build to the last `open_stream`) and tears
/// the host down again.
///
/// # Errors
///
/// Returns the pipeline or serve error that stopped the set-up.
pub fn time_set_up(workload: &Workload) -> Result<Setup, Box<dyn std::error::Error>> {
    let probes: Vec<Arc<Probe>> = (0..workload.streams)
        .map(|_| Probe::with_capacity(0))
        .collect();
    let (host, _, setup) = set_up(workload, &probes, Instant::now())?;
    drop(host);
    Ok(setup)
}

impl HostRun {
    /// Per-frame `(latency from due, residence from push return)` in ms, and
    /// per-chunk `(generator lateness ms, submit µs)`, for the paced phase.
    pub fn paced_samples(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (from, to) = self.paced_ns;
        let (mut latency, mut residence, mut late, mut submit) = (vec![], vec![], vec![], vec![]);
        for record in &self.streams {
            for (k, &done) in record.delivery.frame_ns.iter().enumerate() {
                let Some(chunk) = record.paced.get(completing_chunk(k, FRAME_LEN, HOP, CHUNK))
                else {
                    break;
                };
                if (from..to).contains(&chunk.due) {
                    latency.push(done.saturating_sub(chunk.due) as f64 * 1e-6);
                    residence.push(done.saturating_sub(chunk.ret) as f64 * 1e-6);
                }
            }
            for chunk in record.paced.iter().filter(|c| (from..to).contains(&c.due)) {
                late.push(chunk.start.saturating_sub(chunk.due) as f64 * 1e-6);
                submit.push((chunk.ret - chunk.start) as f64 * 1e-3);
            }
        }
        (latency, residence, late, submit)
    }
}
