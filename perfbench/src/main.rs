//! The repository benchmark: one workload per process, end to end or per
//! layer.
//!
//! ```text
//! perfbench --workload <stream_fleet|offline_train|packet_capture>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed` first (timed as `setup_s`,
//! median of five set-ups), then drives three phases through the public
//! API: the workload's own phase for `--seconds`, and the other two as
//! fixed-size controls stepped between its slices, so every run reports
//! every end-to-end metric. All outputs are checked outside the timed
//! regions. `--trace 1` repeats the workload's own phase with the
//! benchmark's tracer on, replays the layers the phases call, and reports
//! the per-layer metrics instead. The last line of standard output is the
//! JSON result; the exit code is 0 only when every check passed. See
//! `perfbench/README.md`.

mod capture;
mod fleet;
mod offline;
mod report;
mod stats;
mod trace;

use std::time::Instant;

use report::Report;
use trace::Tracer;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "stream_records_per_s",
    "push_p50_us",
    "push_p99_us",
    "verdict_lag_p50_s",
    "verdict_lag_p99_s",
    "corpus_sessions_per_s",
    "train_s",
    "cv_s",
    "cv_accuracy",
    "packet_sessions_per_s",
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: &[&str] = &[
    "trace.overhead_pct",
    "simnet.generate_us_per_trace",
    "sim.session_ms",
    "sim.capture_session_ms",
    "sim.capture_share",
    "telemetry.sanitize_ns_per_record",
    "telemetry.packets_per_session",
    "telemetry.tls_records_per_session",
    "sessionid.incremental_ns_per_record",
    "sessionid.new_recall",
    "sessionid.false_split_rate",
    "features.extract_tls_us_per_session",
    "features.accum_ns_per_record",
    "features.extract_packet_ns_per_packet",
    "features.memory_ratio",
    "features.compute_ratio",
    "ml.fit_ms",
    "ml.fit_ms_serial",
    "ml.cv_ms",
    "ml.predict_us_per_row",
    "ml.predict_us_per_row_serial",
    "par.fit_speedup",
    "par.predict_speedup",
    "par.tasks",
    "par.steals",
    "stream.push_ns_p50",
    "stream.emit_push_us_p50",
    "stream.emit_push_us_p99",
    "stream.verdicts_per_emit",
    "stream.peak_open_sessions",
    "stream.peak_buffered_records",
    "stream.peak_ready_sessions",
    "stream.closed_by_boundary",
    "stream.closed_by_idle",
    "stream.closed_by_flush",
    "stream.late_dropped",
    "stream.quarantined",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Slices the workload's own phase runs in. The stream control steps
/// after every slice and the offline control after every second one, so
/// their samples span the run.
const ROUNDS: usize = 6;
/// Chunks of the fleet feed per round when `stream_fleet` is a control.
const CONTROL_CHUNKS: usize = 4;
/// Build-train-validate units when `offline_train` is a control.
const CONTROL_UNITS: usize = ROUNDS / 2;
/// Blocks of captured sessions, at the end, when `packet_capture` is a
/// control.
const CONTROL_BLOCKS: usize = 6;

const USAGE: &str = "usage: perfbench --workload <stream_fleet|offline_train|packet_capture> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StreamFleet,
    OfflineTrain,
    PacketCapture,
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "stream_fleet" => Workload::StreamFleet,
                    "offline_train" => Workload::OfflineTrain,
                    "packet_capture" => Workload::PacketCapture,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match run(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Everything generated from the seed before any timing starts.
struct Inputs {
    fleet: fleet::Fleet,
    pool: Vec<dtp_core::SessionConfig>,
}

fn run(args: Args) -> Result<bool, String> {
    let threads = dtp_par::thread_count();
    println!(
        "perfbench: workload {:?}, seed {}, {} s, trace {}, {threads} threads",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut report = Report::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let built = Inputs {
            fleet: fleet::Fleet::build(args.seed, threads)?,
            pool: capture::inputs(args.seed),
        };
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    report.median_of("setup_s", &setup_s, "s");
    // Warm-up chunk on a fresh engine: the allocator and caches settle.
    fleet::run(
        &inputs.fleet,
        fleet::Stop::Chunks(1),
        &mut Tracer::new(false),
    )?;

    if args.trace {
        let mut tracer = Tracer::new(true);
        traced(args, threads, &inputs, &mut tracer, &mut report)?;
        println!(
            "{:<32} {:>10} {:>12} {:>12}",
            "span", "count", "items", "total_s"
        );
        for (name, t) in tracer.summary() {
            println!(
                "{name:<32} {:>10} {:>12} {:>12.6}",
                t.count, t.items, t.total_s
            );
        }
        Ok(report.finish(PER_LAYER))
    } else {
        untraced(args, threads, &inputs, &mut report)?;
        Ok(report.finish(END_TO_END))
    }
}

/// The end-to-end run. The workload's own phase runs for `--seconds`, in
/// `ROUNDS` slices, with the stream and offline controls stepped between
/// them. Peak memory is read before the capture control, which runs last
/// because its packet captures would dominate any other workload's peak.
fn untraced(
    args: Args,
    threads: usize,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<(), String> {
    let own = args.workload;
    let mut stream = fleet::Run::new(&inputs.fleet)?;
    let mut units = Vec::new();
    let mut capture = capture::Pass::new(&inputs.pool);
    let mut off = Tracer::new(false);
    let mut own_s = 0.0;
    let mut own_steps = 0;
    for round in 1..=ROUNDS {
        let until = args.seconds * round as f64 / ROUNDS as f64;
        while own_s < until || own_steps < round {
            let t = Instant::now();
            match own {
                Workload::StreamFleet => stream.push_chunk(&mut off),
                Workload::OfflineTrain => {
                    units.push(offline::run_unit(args.seed, threads, &mut off))
                }
                Workload::PacketCapture => capture.run_block(),
            }
            own_s += t.elapsed().as_secs_f64();
            own_steps += 1;
        }
        if own != Workload::StreamFleet {
            for _ in 0..CONTROL_CHUNKS {
                stream.push_chunk(&mut off);
            }
        }
        if own != Workload::OfflineTrain && round % 2 == 0 {
            units.push(offline::run_unit(args.seed, threads, &mut off));
        }
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    if own != Workload::PacketCapture {
        for _ in 0..CONTROL_BLOCKS {
            capture.run_block();
        }
    }
    fleet::check_and_report(&inputs.fleet, &stream.finish(), report);
    offline::check_and_report(units, report);
    capture::check_and_report(&capture, report);
    Ok(())
}

/// The per-layer run. The workload's own phase runs untraced for
/// `--seconds`, then again over the same work with the tracer on; the
/// difference is the tracing overhead. Every phase, controls included,
/// then runs traced and replays its inputs through the layers it calls.
fn traced(
    args: Args,
    threads: usize,
    inputs: &Inputs,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let own = args.workload;
    let mut off = Tracer::new(false);
    let (own_work, untraced_s) = match own {
        Workload::StreamFleet => {
            let pass = fleet::run(&inputs.fleet, fleet::Stop::Seconds(args.seconds), &mut off)?;
            (pass.chunks(), pass.push_s())
        }
        Workload::OfflineTrain => {
            let (mut n, mut s) = (0, 0.0);
            while s < args.seconds {
                let t = Instant::now();
                offline::run_unit(args.seed, threads, &mut off);
                s += t.elapsed().as_secs_f64();
                n += 1;
            }
            (n, s)
        }
        Workload::PacketCapture => {
            let mut pass = capture::Pass::new(&inputs.pool);
            while pass.block_s() < args.seconds {
                pass.run_block();
            }
            (pass.blocks(), pass.block_s())
        }
    };
    let phases = [
        Workload::StreamFleet,
        Workload::OfflineTrain,
        Workload::PacketCapture,
    ];
    for phase in std::iter::once(own).chain(phases.into_iter().filter(|p| *p != own)) {
        let before = par_counters();
        // Reported as soon as the workload's own traced pass ends, before
        // its checks and replays add work of their own.
        let done = |traced_s: f64, report: &mut Report| {
            if phase == own {
                report_overhead(untraced_s, traced_s, before, report);
            }
        };
        match phase {
            Workload::StreamFleet => {
                let chunks = if phase == own {
                    own_work
                } else {
                    ROUNDS * CONTROL_CHUNKS
                };
                let pass = fleet::run(&inputs.fleet, fleet::Stop::Chunks(chunks), tracer)?;
                done(pass.push_s(), report);
                fleet::check_and_report(&inputs.fleet, &pass, report);
                fleet::trace_layers(&inputs.fleet, &pass, tracer, report);
            }
            Workload::OfflineTrain => {
                let n = if phase == own {
                    own_work
                } else {
                    CONTROL_UNITS
                };
                let t = Instant::now();
                let units: Vec<offline::Unit> = (0..n)
                    .map(|_| offline::run_unit(args.seed, threads, tracer))
                    .collect();
                done(t.elapsed().as_secs_f64(), report);
                if let Some(last) = offline::check_and_report(units, report) {
                    offline::trace_layers(args.seed, threads, &last, tracer, report);
                }
            }
            Workload::PacketCapture => {
                let blocks = if phase == own {
                    own_work
                } else {
                    CONTROL_BLOCKS
                };
                let mut pass = capture::Pass::new(&inputs.pool);
                for _ in 0..blocks {
                    pass.run_block();
                }
                done(pass.block_s(), report);
                capture::check_and_report(&pass, report);
                capture::trace_layers(&pass, tracer, report);
            }
        }
    }
    Ok(())
}

/// `par.tasks` and `par.steals` so far in this process.
fn par_counters() -> (u64, u64) {
    let obs = dtp_obs::global();
    (
        obs.counter("par.tasks").get(),
        obs.counter("par.steals").get(),
    )
}

/// Report the workload's own tracing overhead and `dtp-par` activity.
fn report_overhead(untraced_s: f64, traced_s: f64, before: (u64, u64), report: &mut Report) {
    let after = par_counters();
    let overhead = stats::Ratio {
        num: traced_s - untraced_s,
        den: untraced_s,
    };
    report.with_base(
        "trace.overhead_pct",
        overhead.value() * 100.0,
        "%",
        1,
        overhead.base(),
    );
    report.metric("par.tasks", (after.0 - before.0) as f64, "count", 1);
    report.metric("par.steals", (after.1 - before.1) as f64, "count", 1);
}

/// Peak resident set of this process (`VmHWM`), MB; `NaN` if unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload offline_train --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::OfflineTrain);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload stream_fleet --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload stream_fleet --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload stream_fleet --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        for (i, name) in all.iter().enumerate() {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
    }
}
