//! `packet_capture`: the paper's Table 4 path.
//!
//! Svc1 sessions are simulated with `capture_packets = true`; each
//! session's packet trace and TLS records are both turned into features.
//! Sessions run in blocks of 64, each block spread over the configured
//! threads. Every block holds the paper's environment and watch-duration
//! mix, stratified, because a session's cost grows with its duration and
//! a random mix of 64 would make a block's cost depend on the seed. The same
//! simulator runs in `offline_train` with capture off, so this workload is
//! its control.
//!
//! Checks: every feature of both views is finite, and the TLS view is the
//! cheaper one on both records held and extraction time.

use std::time::Instant;

use dtp_core::sim::{simulate_session, SessionConfig};
use dtp_core::ServiceId;
use dtp_features::{extract_packet_features, extract_tls_features};
use dtp_simnet::{TraceConfig, TraceKind};

use crate::report::Report;
use crate::stats::{capture_share, compute_ratio, memory_ratio, unit};
use crate::trace::Tracer;

/// Sessions per block. Each block holds the paper's environment and
/// watch-duration mix, stratified, so blocks cost about the same whatever
/// the seed.
pub const BLOCK: usize = 64;
/// Blocks in the input pool; runs cycle through it.
const BLOCKS: usize = 12;
/// Sessions per block by environment: the paper mix of 40% 3G, 35% LTE and
/// 25% broadband (`TraceCorpus::paper_mix`).
const KINDS: [(TraceKind, usize); 3] = [
    (TraceKind::Cellular3g, 26),
    (TraceKind::Lte, 22),
    (TraceKind::Broadband, 16),
];
/// Sessions the traced run simulates with capture on and off.
const SHARE_SESSIONS: usize = 16;

/// Watch duration at quantile `u` of the paper's mix (Fig. 3b, as in
/// `TraceCorpus::paper_mix`): 0–1 min 30%, 1–2 min 25%, 2–5 min 25%,
/// 5–20 min 20%, at least 10 s.
fn watch_duration_s(u: f64) -> f64 {
    let (lo, hi, from, share) = if u < 0.30 {
        (10.0, 60.0, 0.0, 0.30)
    } else if u < 0.55 {
        (60.0, 120.0, 0.30, 0.25)
    } else if u < 0.80 {
        (120.0, 300.0, 0.55, 0.25)
    } else {
        (300.0, 1200.0, 0.80, 0.20)
    };
    lo + (hi - lo) * (u - from) / share
}

/// The sessions to simulate, capture on: `BLOCKS` blocks, each with every
/// environment's sessions spread evenly over the duration quantiles (one
/// seeded draw per stratum), longest first.
pub fn inputs(seed: u64) -> Vec<SessionConfig> {
    let mut pool = Vec::with_capacity(BLOCK * BLOCKS);
    for b in 0..BLOCKS {
        let mut block: Vec<SessionConfig> = Vec::with_capacity(BLOCK);
        for (kind, n) in KINDS {
            for k in 0..n {
                let i = pool.len() + block.len();
                let draw = |salt: u64| dtp_par::task_seed(seed ^ salt, i as u64);
                let u = (k as f64 + unit(draw(0xca97_0000))) / n as f64;
                let watch = watch_duration_s(u);
                // Stalls stretch wall time past playback, as in paper_mix.
                let trace = TraceConfig {
                    kind,
                    duration_s: watch * 3.0 + 120.0,
                    seed: draw(0xca97_0001),
                };
                block.push(SessionConfig {
                    service: ServiceId::Svc1,
                    trace: trace.generate(),
                    kind,
                    watch_duration_s: watch,
                    seed: draw(0xca97_0003),
                    capture_packets: true,
                });
            }
        }
        debug_assert_eq!(block.len(), BLOCK, "block {b} holds the full mix");
        // Longest first: a block's wall time is then its work shared over
        // the threads, not where the longest sessions happened to land.
        block.sort_by(|a, b| b.watch_duration_s.total_cmp(&a.watch_duration_s));
        pool.extend(block);
    }
    pool
}

/// What one session cost.
#[derive(Debug, Clone, Copy)]
struct SessionCost {
    packets: usize,
    tls_records: usize,
    packet_extract_s: f64,
    tls_extract_s: f64,
    finite: bool,
}

fn run_session(cfg: &SessionConfig) -> SessionCost {
    let s = simulate_session(cfg);
    let t = Instant::now();
    let packet = extract_packet_features(&s.telemetry.packets);
    let packet_extract_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let tls = extract_tls_features(s.telemetry.tls.transactions());
    let tls_extract_s = t.elapsed().as_secs_f64();
    SessionCost {
        packets: s.telemetry.packets.len(),
        tls_records: s.telemetry.tls.len(),
        packet_extract_s,
        tls_extract_s,
        finite: packet.iter().chain(&tls).all(|x| x.is_finite()),
    }
}

/// Blocks run so far: per-session costs and per-block rates.
pub struct Pass<'a> {
    pool: &'a [SessionConfig],
    costs: Vec<SessionCost>,
    /// Sessions per second of each block.
    block_rates: Vec<f64>,
    /// Summed wall time of the blocks, seconds.
    block_s: f64,
}

impl<'a> Pass<'a> {
    /// Nothing run yet.
    pub fn new(pool: &'a [SessionConfig]) -> Self {
        Self {
            pool,
            costs: Vec::with_capacity(pool.len() * 4),
            block_rates: Vec::new(),
            block_s: 0.0,
        }
    }

    /// Run the pool's next block, spread over the worker threads.
    pub fn run_block(&mut self) {
        let blocks = self.pool.len() / BLOCK;
        let block = &self.pool[(self.block_rates.len() % blocks) * BLOCK..][..BLOCK];
        let t = Instant::now();
        self.costs
            .extend(dtp_par::par_map("perfbench.capture", block, |_, cfg| {
                run_session(cfg)
            }));
        let s = t.elapsed().as_secs_f64();
        self.block_rates.push(BLOCK as f64 / s);
        self.block_s += s;
    }

    /// Blocks run.
    pub fn blocks(&self) -> usize {
        self.block_rates.len()
    }

    /// Summed wall time of the blocks, seconds.
    pub fn block_s(&self) -> f64 {
        self.block_s
    }
}

/// Check a pass and report its end-to-end metric.
pub fn check_and_report(pass: &Pass, report: &mut Report) {
    let n = pass.costs.len() as u64;
    let not_finite = pass.costs.iter().filter(|c| !c.finite).count() as u64;
    report.ops(n, not_finite, || {
        "sessions with non-finite packet or TLS features".into()
    });
    let (packets, tls, packet_s, tls_s) = totals(pass);
    report.check(tls < packets, || {
        format!("TLS view held {tls} records, packets {packets}")
    });
    report.check(tls_s < packet_s, || {
        format!("TLS extraction took {tls_s:.6} s, packet extraction {packet_s:.6} s")
    });
    report.median_of("packet_sessions_per_s", &pass.block_rates, "sessions/s");
}

fn totals(pass: &Pass) -> (usize, usize, f64, f64) {
    pass.costs
        .iter()
        .fold((0, 0, 0.0, 0.0), |(p, t, ps, ts), c| {
            (
                p + c.packets,
                t + c.tls_records,
                ps + c.packet_extract_s,
                ts + c.tls_extract_s,
            )
        })
}

/// Per-layer metrics: packet and TLS record counts and extraction costs
/// from the pass, and the simulator's cost with capture on and off over the
/// same sessions.
pub fn trace_layers(pass: &Pass, tracer: &mut Tracer, report: &mut Report) {
    let n = pass.costs.len();
    let (packets, tls, packet_s, tls_s) = totals(pass);
    report.metric(
        "telemetry.packets_per_session",
        packets as f64 / n as f64,
        "count",
        n as u64,
    );
    report.metric(
        "telemetry.tls_records_per_session",
        tls as f64 / n as f64,
        "count",
        n as u64,
    );
    report.metric(
        "features.extract_packet_ns_per_packet",
        packet_s * 1e9 / packets as f64,
        "ns",
        packets as u64,
    );
    let memory = memory_ratio(packets, tls);
    report.with_base(
        "features.memory_ratio",
        memory.value(),
        "ratio",
        n as u64,
        memory.base(),
    );
    let compute = compute_ratio(packet_s, tls_s);
    report.with_base(
        "features.compute_ratio",
        compute.value(),
        "ratio",
        n as u64,
        compute.base(),
    );

    for cfg in pass.pool.iter().take(SHARE_SESSIONS) {
        tracer.span("sim.capture_on", 1, || simulate_session(cfg));
        let off = SessionConfig {
            capture_packets: false,
            ..cfg.clone()
        };
        tracer.span("sim.capture_off", 1, || simulate_session(&off));
    }
    let on = tracer.totals("sim.capture_on");
    let off = tracer.totals("sim.capture_off");
    report.metric(
        "sim.capture_session_ms",
        on.ms_per_span(),
        "ms",
        on.count as u64,
    );
    report.metric("sim.session_ms", off.ms_per_span(), "ms", off.count as u64);
    let share = capture_share(on.ms_per_span(), off.ms_per_span());
    report.with_base(
        "sim.capture_share",
        share.value(),
        "fraction",
        on.count as u64,
        share.base(),
    );
}
