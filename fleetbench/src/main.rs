//! `fleetbench` — end-to-end and per-layer benchmark of the `ispot-serve`
//! session host.
//!
//! ```text
//! fleetbench --workload <drive-mix|siren-saturate|park-idle> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! A run renders a seeded clip bank, sets the host up (one worker, a 4-mic
//! 0.2 m array, 512-sample chunks, default pipeline settings, tracing off),
//! warms it up, then measures a paced phase and a saturation phase on it.
//! Every stream's outputs are checked against a bare-`Session` replay, and
//! set-up is timed again in fresh child processes. With `--trace 1` a
//! single-threaded traced replay breaks the work down by layer.
//! The last line of standard output is one JSON object: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. The process exits
//! with 1 if the correctness gate fails and 2 on bad arguments or errors.

mod bank;
mod calib;
mod fleet;
mod procfs;
mod replay;
mod stats;
mod workload;

use bank::Bank;
use stats::{
    calibrated_rates, median, median_and_tail, quantile, sorted_quantile, window_kernel_ns,
    window_rates,
};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::Workload;

/// Frames per stream-second: one 1024-sample hop at 16 kHz.
const FRAMES_PER_STREAM_SECOND: f64 = bank::SAMPLE_RATE / fleet::HOP as f64;
/// Set-ups timed per run, each in a fresh process; `setup_s` is their
/// median.
const SETUPS: usize = 25;
/// Repetitions of the traced replay, the first of them a warm-up.
const TRACE_REPS: usize = 6;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric. A per-layer metric names the end-to-end metric and
/// workload it should move.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    moves: &'static str,
}

fn e2e(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        moves: "",
    }
}

fn layer(name: &'static str, value: f64, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        moves,
    }
}

// What each group of per-layer metrics should move.
const DEMOTED: &str = "end-to-end latency, reported per layer: unsteady on a shared VM";
const SERVE_LATENCY: &str = "serve.frame_latency_p50_ms and its p99 tail on park-idle";
const SERVE_CAPACITY: &str = "full_quality_streams_per_core on all workloads";
const CORE: &str = "full_quality_streams_per_core on park-idle";
const SED: &str = "full_quality_streams_per_core and serve.frame_latency_p50_ms on drive-mix, \
                   less on siren-saturate, not park-idle";
const SSL: &str = "full_quality_streams_per_core on siren-saturate, barely drive-mix and park-idle";
const VALIDITY: &str = "nothing: shows whether the run is valid";

/// Mean of a sample, 0 when empty (a stage that never ran).
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Tail of a per-call sample at the highest percentile ≤ p99 it supports;
/// 0 when empty.
fn tail(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median_and_tail(values, 0.99).1
    }
}

fn run(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let w = args.workload;
    let bank = Bank::render(w.clips, args.seed)?;
    let sequences = w.sequences(&bank, args.seed);
    println!(
        "fleetbench {} seed {}: {} streams over {} sequences, {} worker, bank of {} clips \
         ({:.1} MiB), digest {:016x}",
        w.name,
        args.seed,
        w.streams,
        sequences.len(),
        fleet::WORKERS,
        bank.clips.len(),
        bank.mib(),
        bank.digest()
    );
    for (i, clip) in bank.clips.iter().enumerate() {
        println!("  clip {i}: {:?}, {}", clip.kind, clip.label);
    }

    let paced = Duration::from_secs_f64(0.25 * args.seconds);
    let saturation = Duration::from_secs_f64(0.75 * args.seconds);
    let host = fleet::run(&w, &bank, &sequences, paced, saturation)?;

    // Correctness gate: every stream equals its replay, and the saturation
    // phase neither refused a chunk nor shed a frame.
    let mismatched = replay::mismatched_streams(&w, &bank, &sequences, &host)?;
    let m = &host.metrics;
    let (attempted, refused) = host.calls;
    let failed = refused + m.shed_frames + m.errors;
    let mut correct = mismatched == 0 && host.saturation_calls.1 == 0 && failed == refused;
    println!(
        "gate: {mismatched} streams differ from their replay; {} shed frames, {refused} refused \
         chunks ({} in saturation), {} errors, of {attempted} chunks attempted",
        m.shed_frames, host.saturation_calls.1, m.errors
    );

    // Set-up is timed in fresh processes: within this one, how much memory
    // the allocator kept from earlier hosts moved a drive-mix set-up between
    // 28 and 65 ms, and the median of 25 between runs by a third.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut open_us = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (seconds, open) = time_fresh_set_up(&w)?;
        setup_s.push(seconds);
        open_us.push(open);
    }

    let (mut latency, mut residence, mut late, mut submit) = host.paced_samples();
    let (lat_p50, lat_tail, lat_level) = median_and_tail(&mut latency, 0.99);
    // The first window holds the ramp-up and is not counted.
    let windows = &host.windows[1..];
    if windows.len() < 2 {
        return Err("the saturation phase is shorter than two windows".into());
    }
    let rates = window_rates(windows);
    let calibrated = calibrated_rates(windows, calib::REFERENCE_NS);
    let per_stream = FRAMES_PER_STREAM_SECOND * fleet::WORKERS as f64;
    let capacity = median(&mut calibrated.clone()) / per_stream;
    let raw_capacity = median(&mut rates.clone()) / per_stream;
    let calib_ns = median(&mut window_kernel_ns(windows));
    // Set-up runs in child processes right after the saturation phase, so it
    // is scaled by the worker's kernel time over that phase: the median over
    // windows, which a preempted kernel call does not move.
    let raw_setup_s = median(&mut setup_s);
    let mut report = vec![
        e2e("setup_s", raw_setup_s * calib::REFERENCE_NS / calib_ns, "s"),
        e2e("full_quality_streams_per_core", capacity, "streams"),
        e2e("peak_rss_mb", host.peak_rss_kb as f64 / 1024.0, "MB"),
    ];
    let end_to_end = report.len();

    // Run-validity diagnostics, printed with every run.
    let steal = host.cpu.0.steal_share_until(&host.cpu.1);
    let (paced_s, saturation_s) = host.phase_seconds;
    let runq = share(host.worker_saturation.wait_ns as f64 * 1e-9, saturation_s);
    let (late_p50, late_tail, late_level) = median_and_tail(&mut late, 0.99);
    println!(
        "validity: machine steal {steal:.4}; worker run-queue wait {runq:.4} of the saturation \
         phase; generator late p50 {late_p50:.3} ms, p{} {late_tail:.3} ms",
        100.0 * late_level
    );
    println!(
        "paced: {} frames, latency p50 {lat_p50:.3} ms, p{} {lat_tail:.3} ms",
        latency.len(),
        100.0 * lat_level,
    );
    let joined = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "saturation: {} windows of {} ms; frames per worker CPU second: {}",
        rates.len(),
        fleet::WINDOW.as_millis(),
        joined(&rates)
    );
    println!(
        "saturation: calibrated to a {:.0} us kernel (this run's took {:.1} us): {}",
        calib::REFERENCE_NS * 1e-3,
        calib_ns * 1e-3,
        joined(&calibrated)
    );
    for (label, values) in [("measured", &rates), ("calibrated", &calibrated)] {
        let mut sorted = values.clone();
        println!(
            "saturation: {label} window rate p10 {:.1}, p50 {:.1}, p90 {:.1}",
            sorted_quantile(&mut sorted, 0.1),
            quantile(&sorted, 0.5),
            quantile(&sorted, 0.9)
        );
    }

    if args.trace {
        let mut trace = replay::traced(&w, &bank, &sequences, TRACE_REPS)?;
        if trace.mismatched_frames > 0 {
            println!(
                "gate: the stage chain differs from the Session on {} frames",
                trace.mismatched_frames
            );
            correct = false;
        }
        let frames = trace.frames as f64;
        // The first repetition warms caches and is not counted.
        let session_ns = median(&mut trace.session_ns[1..]);
        let stage_ns = median(&mut trace.stage_ns[1..]);
        let replay_fps = frames / (session_ns * 1e-9);
        let (res_p50, res_tail, _) = median_and_tail(&mut residence, 0.99);
        let rss_growth = host
            .rss_after_warm_up_kb
            .saturating_sub(host.setup.rss_before_open_kb);
        let wake_share = if trace.trigger_calls == 0 {
            1.0
        } else {
            share(trace.wakes as f64, trace.trigger_calls as f64)
        };
        report.extend([
            layer(
                "serve.submit_us_p50",
                median(&mut submit),
                "us",
                SERVE_LATENCY,
            ),
            layer("serve.frame_latency_p50_ms", lat_p50, "ms", DEMOTED),
            layer("serve.residence_ms_p50", res_p50, "ms", SERVE_LATENCY),
            layer("serve.residence_ms_p99", res_tail, "ms", SERVE_LATENCY),
            layer("serve.frame_latency_p99_ms", lat_tail, "ms", DEMOTED),
            layer(
                "serve.worker_wakeups_per_frame",
                share(host.worker_paced.timeslices as f64, latency.len() as f64),
                "count",
                SERVE_LATENCY,
            ),
            // At the paced load: the saturation phase keeps the worker busy
            // by design, so its busy share reads 1 and measures nothing.
            layer(
                "serve.worker_busy_share",
                share(host.worker_paced.run_ns as f64 * 1e-9, paced_s),
                "share",
                SERVE_CAPACITY,
            ),
            layer("serve.worker_runq_share", runq, "share", VALIDITY),
            layer(
                "serve.overhead_share",
                1.0 - raw_capacity * per_stream / replay_fps,
                "share",
                SERVE_CAPACITY,
            ),
            layer(
                "serve.open_stream_us",
                median(&mut open_us),
                "us",
                "setup_s on park-idle",
            ),
            layer(
                "serve.rss_per_stream_kb",
                rss_growth as f64 / w.streams as f64,
                "kB",
                "peak_rss_mb on park-idle",
            ),
            layer("core.frame_us_mean", session_ns * 1e-3 / frames, "us", CORE),
            layer(
                "core.self_us_per_frame",
                (session_ns - stage_ns) * 1e-3 / frames,
                "us",
                CORE,
            ),
            layer("core.trigger_us_mean", mean(&trace.trigger_us), "us", CORE),
            layer(
                "core.trigger_calls",
                trace.trigger_calls as f64,
                "count",
                CORE,
            ),
            layer("core.wake_share", wake_share, "share", CORE),
            layer("sed.detect_us_mean", mean(&trace.detect_us), "us", SED),
            layer("sed.detect_us_p99", tail(&mut trace.detect_us), "us", SED),
            layer("sed.detect_calls", trace.detect_calls as f64, "count", SED),
            layer(
                "sed.confident_share",
                share(trace.confident as f64, trace.detect_calls as f64),
                "share",
                SED,
            ),
            layer("ssl.localize_us_mean", mean(&trace.localize_us), "us", SSL),
            layer(
                "ssl.localize_us_p99",
                tail(&mut trace.localize_us),
                "us",
                SSL,
            ),
            layer(
                "ssl.localize_calls",
                trace.localize_calls as f64,
                "count",
                SSL,
            ),
            layer(
                "ssl.peaks_per_call",
                share(trace.peaks as f64, trace.localize_calls as f64),
                "count",
                SSL,
            ),
            layer("ssl.track_us_mean", mean(&trace.track_us), "us", SSL),
            layer("ssl.track_calls", trace.track_calls as f64, "count", SSL),
            layer("gen.late_p50_ms", late_p50, "ms", VALIDITY),
            layer("gen.late_p99_ms", late_tail, "ms", VALIDITY),
            layer("gen.bank_mb", bank.mib(), "MB", VALIDITY),
            layer("machine.steal_share", steal, "share", VALIDITY),
            layer("machine.calib_us", calib_ns * 1e-3, "us", VALIDITY),
            layer("machine.uncalibrated_setup_s", raw_setup_s, "s", VALIDITY),
            layer(
                "machine.uncalibrated_streams_per_core",
                raw_capacity,
                "streams",
                VALIDITY,
            ),
        ]);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", w.name, args.seed));
        replay::write_spans(&path, &trace.spans)?;
        println!(
            "trace: {} spans of the last repetition in {}",
            trace.spans.len(),
            path.display()
        );
    }

    for m in &report {
        println!(
            "  {:<32} {:>12.4} {:<8} {}",
            m.name, m.value, m.unit, m.moves
        );
    }
    let shown = if args.trace {
        &report[end_to_end..]
    } else {
        &report[..end_to_end]
    };
    if let Some(bad) = shown.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name).into());
    }
    let body: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// First argument of a child process that times one set-up of the workload
/// named by the second and prints its seconds and median `open_stream` µs.
const SET_UP_ONLY: &str = "--set-up-only";

/// Times one set-up in a child process started from this executable.
fn time_fresh_set_up(w: &Workload) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args([SET_UP_ONLY, w.name])
        .output()?;
    if !out.status.success() {
        return Err(format!(
            "the set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    let text = String::from_utf8(out.stdout)?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(seconds)), Some(Ok(open_us))) => Ok((seconds, open_us)),
        _ => Err(format!("unexpected set-up process output {text:?}").into()),
    }
}

/// The child side of [`time_fresh_set_up`].
fn set_up_only(name: &str) -> Result<(), Box<dyn std::error::Error>> {
    let w = Workload::named(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut setup = fleet::time_set_up(&w)?;
    println!("{} {}", setup.seconds, median(&mut setup.open_us));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, name] = argv.as_slice() {
        if flag == SET_UP_ONLY {
            if let Err(error) = set_up_only(name) {
                eprintln!("fleetbench: {error}");
                std::process::exit(2);
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fleetbench: {message}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    match run(&args) {
        Ok(correct) => {
            eprintln!(
                "fleetbench: done in {:.1} s",
                started.elapsed().as_secs_f64()
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(error) => {
            eprintln!("fleetbench: {error}");
            std::process::exit(2);
        }
    }
}
