//! Single-threaded replays: the correctness gate and the traced run.
//!
//! * **Correctness.** Each distinct chunk sequence runs through one bare
//!   `Session`; every hosted stream's frame count, event count and output
//!   fingerprint must equal the replay's after the same number of chunks.
//! * **Traced run.** One clip's worth of every sequence runs twice per
//!   repetition: through `Session::push_chunk_with`, timed as a whole, and
//!   through a stage chain this file assembles from the public stage
//!   constructors, timing each `gate`, `classify`, `localize_peaks` and
//!   `track_peaks` call. The chain must reproduce the Session's frame
//!   outcomes exactly.

use crate::bank::{Bank, Sequence, CHANNELS, CHUNK, CLIP_CHUNKS, SAMPLE_RATE};
use crate::fleet::{HostRun, FRAME_LEN, HOP};
use crate::stats::{frames_after, Digest};
use crate::workload::Workload;
use ispot_core::api::{Engine, PipelineBuilder};
use ispot_core::events::PerceptionEvent;
use ispot_core::latency::LatencyReport;
use ispot_core::mode::OperatingMode;
use ispot_core::sink::EventSink;
use ispot_core::stages::{DetectStage, FrameOutcome, LocalizeStage, TrackStage, TriggerStage};
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::SrpConfig;
use std::sync::Arc;
use std::time::Instant;

/// Builds the engine the host runs, for replays.
///
/// # Errors
///
/// Returns the pipeline error of an invalid configuration.
pub fn engine(workload: &Workload) -> Result<Engine, Box<dyn std::error::Error>> {
    Ok(PipelineBuilder::new(SAMPLE_RATE)
        .array(&crate::bank::array())
        .mode(workload.mode)
        .build_engine()?)
}

/// Folds a session's outputs exactly as the hosted streams' sinks do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct DigestSink {
    frames: usize,
    events: u64,
    digest: Digest,
}

impl EventSink for DigestSink {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.digest.event(event);
        self.events += 1;
    }

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        self.digest.outcome(outcome);
        self.frames += 1;
    }
}

/// Replays every sequence through a bare session and counts the hosted
/// streams whose outputs differ from it.
///
/// # Errors
///
/// Returns the pipeline error of a failing replay.
pub fn mismatched_streams(
    workload: &Workload,
    bank: &Bank,
    sequences: &[Sequence],
    run: &HostRun,
) -> Result<usize, Box<dyn std::error::Error>> {
    let engine = engine(workload)?;
    let mut mismatched = 0;
    for (q, seq) in sequences.iter().enumerate() {
        let streams: Vec<_> = run.streams.iter().filter(|r| r.sequence == q).collect();
        let longest = streams.iter().map(|r| r.chunks).max().unwrap_or(0);
        let mut session = engine.open_session();
        let mut sink = DigestSink::default();
        let mut after = Vec::with_capacity(longest + 1);
        after.push(sink);
        for j in 0..longest {
            session.push_chunk_with(&seq.chunk(bank, j), &mut sink)?;
            after.push(sink);
        }
        for record in streams {
            let hosted = DigestSink {
                frames: record.delivery.frame_ns.len(),
                events: record.delivery.events,
                digest: record.delivery.digest,
            };
            if hosted != after[record.chunks] {
                mismatched += 1;
            }
        }
    }
    Ok(mismatched)
}

/// The four timed stage kinds of the chain, plus the chain's frame span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One frame through the chain, mixdown included.
    Frame,
    /// `TriggerStage::gate`.
    Trigger,
    /// `DetectStage::classify`.
    Detect,
    /// `LocalizeStage::localize_peaks`.
    Localize,
    /// `TrackStage::track_peaks`.
    Track,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Frame => "frame",
            SpanKind::Trigger => "trigger",
            SpanKind::Detect => "detect",
            SpanKind::Localize => "localize",
            SpanKind::Track => "track",
        }
    }
}

/// One timed call of the chain. Stage spans are children of the frame span
/// with the same `(sequence, frame)`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub kind: SpanKind,
    /// Sequence index.
    pub sequence: u32,
    /// Frame index within the sequence.
    pub frame: u32,
    /// Start, ns since the traced run began.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Results of the traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Frames per pass.
    pub frames: usize,
    /// Session pass wall time per repetition, ns; the first repetition
    /// warms caches.
    pub session_ns: Vec<f64>,
    /// Sum of timed stage calls per chain repetition, ns.
    pub stage_ns: Vec<f64>,
    /// Per-call `gate` durations over every repetition but the first, µs.
    pub trigger_us: Vec<f64>,
    /// Per-call `classify` durations, µs.
    pub detect_us: Vec<f64>,
    /// Per-call `localize_peaks` durations, µs.
    pub localize_us: Vec<f64>,
    /// Per-call `track_peaks` durations, µs.
    pub track_us: Vec<f64>,
    /// Calls per pass.
    pub trigger_calls: usize,
    /// Trigger calls that woke the graph, per pass.
    pub wakes: usize,
    /// `classify` calls per pass.
    pub detect_calls: usize,
    /// Confident event detections per pass.
    pub confident: usize,
    /// `localize_peaks` calls per pass.
    pub localize_calls: usize,
    /// Peaks returned per pass.
    pub peaks: usize,
    /// `track_peaks` calls per pass.
    pub track_calls: usize,
    /// Frames whose chain outcome differed from the Session's.
    pub mismatched_frames: usize,
    /// Spans of the last repetition.
    pub spans: Vec<Span>,
}

/// Chunks of each sequence the traced run replays: one clip loop.
pub const TRACE_CHUNKS: usize = CLIP_CHUNKS;

/// Collects a session's frame outcomes.
struct OutcomeSink<'a>(&'a mut Vec<FrameOutcome>);

impl EventSink for OutcomeSink<'_> {
    fn on_event(&mut self, _event: &PerceptionEvent) {}

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        self.0.push(*outcome);
    }
}

/// Runs the traced replay: `reps` repetitions of a Session pass and a chain
/// pass over [`TRACE_CHUNKS`] chunks of every sequence.
///
/// # Errors
///
/// Returns the pipeline error of a failing stage or session.
pub fn traced(
    workload: &Workload,
    bank: &Bank,
    sequences: &[Sequence],
    reps: usize,
) -> Result<Trace, Box<dyn std::error::Error>> {
    let engine = engine(workload)?;
    let config = engine.config();
    let frames_per_seq = frames_after(TRACE_CHUNKS, FRAME_LEN, HOP, CHUNK);
    let frames = frames_per_seq * sequences.len();
    // The chain's shared parts, built the way the engine builds its own.
    let detector = Arc::clone(DetectStage::new(SAMPLE_RATE)?.detector());
    let srp = Arc::new(SrpPhatFast::with_search(
        SrpConfig {
            frame_len: config.frame_len,
            num_directions: config.num_directions,
            freq_max_hz: (SAMPLE_RATE / 2.0 - 200.0).max(1000.0),
            ..SrpConfig::default()
        },
        config.search,
        &crate::bank::array(),
        SAMPLE_RATE,
    )?);
    let gate_on_trigger = config.mode == OperatingMode::Park;
    let localize_enabled = config.mode.localization_enabled();

    let mut trace = Trace {
        frames,
        ..Trace::default()
    };
    let mut expected = Vec::with_capacity(frames);
    let mut bufs = vec![vec![0.0; FRAME_LEN]; CHANNELS];
    let mut mono = vec![0.0; FRAME_LEN];
    let origin = Instant::now();
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    for rep in 0..reps {
        // Session pass.
        expected.clear();
        let mut session_ns = 0u128;
        for seq in sequences {
            let mut session = engine.open_session();
            let mut sink = OutcomeSink(&mut expected);
            let t = Instant::now();
            for j in 0..TRACE_CHUNKS {
                session.push_chunk_with(&seq.chunk(bank, j), &mut sink)?;
            }
            session_ns += t.elapsed().as_nanos();
        }
        trace.session_ns.push(session_ns as f64);

        // Chain pass.
        let last = rep + 1 == reps;
        let first = rep == 0;
        let mut stage_ns = 0u64;
        let mut latency = LatencyReport::new();
        let mut timed =
            |kind: SpanKind, q: usize, k: usize, t0: Instant, t1: Instant, out: &mut Trace| {
                let dur = t1.duration_since(t0).as_nanos() as u64;
                if kind != SpanKind::Frame && !first {
                    stage_ns += dur;
                    let us = dur as f64 * 1e-3;
                    match kind {
                        SpanKind::Trigger => out.trigger_us.push(us),
                        SpanKind::Detect => out.detect_us.push(us),
                        SpanKind::Localize => out.localize_us.push(us),
                        SpanKind::Track => out.track_us.push(us),
                        SpanKind::Frame => {}
                    }
                }
                if last {
                    out.spans.push(Span {
                        kind,
                        sequence: q as u32,
                        frame: k as u32,
                        start_ns: ns(t0),
                        dur_ns: dur,
                    });
                }
            };
        for (q, seq) in sequences.iter().enumerate() {
            let mut trigger = TriggerStage::new(config.trigger);
            let mut detect = DetectStage::shared(Arc::clone(&detector));
            let mut localize = LocalizeStage::shared(Some(Arc::clone(&srp)), config.tracking);
            let mut track = TrackStage::with_config(config.tracking)?;
            for k in 0..frames_per_seq {
                seq.copy_samples(bank, k * HOP, &mut bufs);
                let frame: [&[f64]; CHANNELS] = std::array::from_fn(|c| bufs[c].as_slice());
                let frame_start = Instant::now();
                // The stage graph's mixdown, verbatim.
                let scale = 1.0 / frame.len() as f64;
                for (i, slot) in mono.iter_mut().enumerate() {
                    *slot = frame.iter().map(|c| c[i]).sum::<f64>() * scale;
                }
                let outcome = 'frame: {
                    if gate_on_trigger {
                        let t0 = Instant::now();
                        let woke = trigger.gate(&mono, &mut latency);
                        timed(SpanKind::Trigger, q, k, t0, Instant::now(), &mut trace);
                        if first {
                            trace.trigger_calls += 1;
                            trace.wakes += usize::from(woke);
                        }
                        if !woke {
                            break 'frame FrameOutcome::Gated;
                        }
                    }
                    let t0 = Instant::now();
                    let (class, confidence) = detect.classify(&mono, &mut latency)?;
                    timed(SpanKind::Detect, q, k, t0, Instant::now(), &mut trace);
                    let confident = class.is_event() && confidence >= config.confidence_threshold;
                    if first {
                        trace.detect_calls += 1;
                        trace.confident += usize::from(confident);
                    }
                    if !confident {
                        break 'frame FrameOutcome::Analyzed;
                    }
                    let (mut azimuth_deg, mut tracked_azimuth_deg) = (None, None);
                    if localize_enabled {
                        let t0 = Instant::now();
                        let peaks = localize.localize_peaks(&frame, &mut latency)?;
                        timed(SpanKind::Localize, q, k, t0, Instant::now(), &mut trace);
                        if let Some(peaks) = peaks {
                            if first {
                                trace.localize_calls += 1;
                                trace.peaks += peaks.len();
                            }
                            azimuth_deg = peaks.first().map(|p| p.azimuth_deg);
                            let t0 = Instant::now();
                            tracked_azimuth_deg = track.track_peaks(peaks, &mut latency);
                            timed(SpanKind::Track, q, k, t0, Instant::now(), &mut trace);
                            if first {
                                trace.track_calls += 1;
                            }
                        }
                    }
                    FrameOutcome::Detection {
                        class,
                        confidence,
                        azimuth_deg,
                        tracked_azimuth_deg,
                    }
                };
                timed(
                    SpanKind::Frame,
                    q,
                    k,
                    frame_start,
                    Instant::now(),
                    &mut trace,
                );
                if expected.get(q * frames_per_seq + k) != Some(&outcome) {
                    trace.mismatched_frames += 1;
                }
            }
        }
        trace.stage_ns.push(stage_ns as f64);
    }
    Ok(trace)
}

/// Writes the spans as tab-separated lines: kind, sequence, frame, start and
/// duration in ns.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind\tsequence\tframe\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.kind.label(),
            s.sequence,
            s.frame,
            s.start_ns,
            s.dur_ns
        )?;
    }
    out.flush()
}
