//! `stream_fleet`: an ISP scoring sessions online from proxy logs.
//!
//! A model is trained, deployed through `to_json` → `from_json`, and a
//! fleet of clients is replayed through [`StreamEngine::push`] in a closed
//! loop from one driver thread. Each client streams back-to-back sessions
//! (`stitch_sessions`, services Svc1/2/3 in turn); the fleet is merged in
//! event time with every record delayed by up to 2.5 s, inside the
//! engine's 3 s reorder window. Each client's stream is simulated once and
//! tiled in event time: lap `k` repeats it shifted by `k` times the
//! client's own period, after a pause longer than the idle timeout, so a
//! long run needs no long set-up and the fleet never falls silent
//! together. The merged feed is produced in chunks outside the timed loop.
//! The engine runs the paper-default [`StreamConfig`].
//!
//! Checks, outside the timed loop: every verdict is bitwise-equal to the
//! offline reference (per client: `SessionSplitter::split` →
//! `extract_tls_features_batch` → `predict_proba_features_batch`, applied
//! to each stretch of the client's records between idle expiries, between
//! chunks as the stretch closes), every idle expiry follows a silence
//! longer than the idle timeout, records and verdicts are conserved, and
//! the deployed model's digest equals the trained one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use dtp_core::sessionid::{stitch_sessions, BackToBackStream, IncrementalSessionDetector};
use dtp_core::{DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId, SessionSplitter};
use dtp_features::{extract_tls_features, extract_tls_features_batch, TlsSessionAccumulator};
use dtp_stream::{CloseReason, EngineStats, SessionVerdict, StreamConfig, StreamEngine};
use dtp_telemetry::{sanitize_record, TlsTransactionRecord};

use crate::report::Report;
use crate::stats::{percentile_sorted, reportable, unit, IntSamples, Ratio};
use crate::trace::Tracer;

/// Clients in the fleet.
pub const CLIENTS: usize = 64;
/// Back-to-back sessions each client streams per lap.
pub const SESSIONS_PER_CLIENT: usize = 50;
/// Sessions in the corpus the deployed model is trained on.
const TRAIN_SESSIONS: usize = 200;
/// Largest delivery delay, seconds; below the 3 s reorder window, so no
/// record is late.
const MAX_DELAY_S: f64 = 2.5;
/// Pause between a client's last record of one lap and the first of the
/// next, seconds. It is longer than the engine's 120 s idle timeout, so
/// every lap closes by idle expiry and the verdict check holds at most
/// one lap of a client's verdicts.
const LAP_GAP_S: f64 = 150.0;
/// Records pushed per timed chunk; throughput is the median over chunks.
pub const CHUNK: usize = 1 << 16;
/// Push timings below this many nanoseconds are kept as exact counts.
const NS_CAP: usize = 1 << 16;
/// Verdict rows a chunk can return before its buffer reallocates; a chunk
/// returns about one verdict per 14 records.
const CHUNK_VERDICTS: usize = CHUNK / 4;
/// Resolution at which verdict lags are kept, seconds.
const LAG_TICK_S: f64 = 0.01;
/// Lags below this many ticks (about 22 minutes) are kept as counts.
const LAG_TICKS: usize = 1 << 17;
/// Engine gauges are sampled every this many pushes in traced passes.
const GAUGE_EVERY: usize = 1024;
const SERVICES: [ServiceId; 3] = [ServiceId::Svc1, ServiceId::Svc2, ServiceId::Svc3];

/// One client's simulated stream, ready to tile.
struct ClientFeed {
    /// The stream in delivery order.
    records: Vec<TlsTransactionRecord>,
    /// Delivery time of each record: its start plus a delay in
    /// `[0, MAX_DELAY_S)`.
    delivery_s: Vec<f64>,
    /// Event-time shift from one lap to the next, seconds.
    period_s: f64,
    /// Indices of `records` by start time, ties in delivery order.
    start_order: Vec<usize>,
}

/// The generated fleet and the deployed model.
pub struct Fleet {
    names: Vec<String>,
    clients: Vec<ClientFeed>,
    /// Each client's stitched stream with per-transaction truth.
    streams: Vec<BackToBackStream>,
    trained_digest: String,
    deployed: QoeEstimator,
}

impl Fleet {
    /// Simulate the fleet and train and deploy the model for `seed`.
    pub fn build(seed: u64, threads: usize) -> Result<Fleet, String> {
        let corpus = DatasetBuilder::new(ServiceId::Svc1)
            .sessions(TRAIN_SESSIONS)
            .seed(seed)
            .threads(threads)
            .build();
        let trained = QoeEstimator::train(&corpus, QoeMetricKind::Combined, seed);
        let trained_digest = trained.model_digest();
        let deployed = QoeEstimator::from_json(&trained.to_json())?;

        let streams = dtp_par::par_map_index("perfbench.stitch", CLIENTS, |c| {
            stitch_sessions(
                SERVICES[c % SERVICES.len()],
                SESSIONS_PER_CLIENT,
                client_seed(seed, c),
            )
        });
        let clients = streams
            .iter()
            .enumerate()
            .map(|(c, s)| {
                let mut keyed: Vec<(f64, TlsTransactionRecord)> = s
                    .transactions
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let bits = dtp_par::task_seed(client_seed(seed, c) ^ 0xde1a_7000, i as u64);
                        (t.start_s + unit(bits) * MAX_DELAY_S, t.clone())
                    })
                    .collect();
                // Stable: equal delivery times keep start order.
                keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
                let last = keyed
                    .iter()
                    .map(|(d, t)| d.max(t.end_s))
                    .fold(0.0, f64::max);
                let (delivery_s, records): (Vec<f64>, Vec<TlsTransactionRecord>) =
                    keyed.into_iter().unzip();
                let mut start_order: Vec<usize> = (0..records.len()).collect();
                start_order.sort_by(|&a, &b| records[a].start_s.total_cmp(&records[b].start_s));
                // The next lap starts after this lap's last delivery and
                // transfer, so laps neither overlap nor reorder.
                ClientFeed {
                    records,
                    delivery_s,
                    period_s: (last + LAP_GAP_S).ceil(),
                    start_order,
                }
            })
            .collect();
        Ok(Fleet {
            names: (0..CLIENTS).map(|c| format!("c{c:03}")).collect(),
            clients,
            streams,
            trained_digest,
            deployed,
        })
    }

    /// The `j`-th record client `c` delivers, counting across laps.
    fn record(&self, c: usize, j: usize) -> TlsTransactionRecord {
        let feed = &self.clients[c];
        let n = feed.records.len();
        let shift = (j / n) as f64 * feed.period_s;
        let mut rec = feed.records[j % n].clone();
        rec.start_s += shift;
        rec.end_s += shift;
        rec
    }

    /// Delivery time of client `c`'s `j`-th record.
    fn delivery_s(&self, c: usize, j: usize) -> f64 {
        let feed = &self.clients[c];
        let n = feed.delivery_s.len();
        feed.delivery_s[j % n] + (j / n) as f64 * feed.period_s
    }

    /// Client `c`'s first `delivered` deliveries in the order its tracker
    /// sees them (by start time, ties in delivery order), from position
    /// `from` of that order on. Laps do not overlap, so this is each lap's
    /// start order in turn. A record the engine has released is preceded
    /// in this order only by delivered records, so positions up to it do
    /// not depend on `delivered`.
    fn client_records(
        &self,
        c: usize,
        from: usize,
        delivered: usize,
    ) -> impl Iterator<Item = TlsTransactionRecord> + '_ {
        let feed = &self.clients[c];
        let n = feed.records.len();
        (from..)
            .map(move |p| p / n * n + feed.start_order[p % n])
            .take_while(move |&j| j / n <= delivered / n)
            .filter(move |&j| j < delivered)
            .map(move |j| self.record(c, j))
    }
}

/// The fleet's merged feed: every client's tiled stream, in delivery
/// order (ties go to the lower client index).
struct Feed<'a> {
    fleet: &'a Fleet,
    /// Next delivery per client, as (delivery-time bits, client); delivery
    /// times are non-negative, so their bits order like the times.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Records delivered per client.
    delivered: Vec<usize>,
}

impl<'a> Feed<'a> {
    fn new(fleet: &'a Fleet) -> Self {
        let heap = (0..CLIENTS)
            .map(|c| Reverse((fleet.delivery_s(c, 0).to_bits(), c)))
            .collect();
        Self {
            fleet,
            heap,
            delivered: vec![0; CLIENTS],
        }
    }

    /// Replace `out` with the next `n` deliveries.
    fn fill(&mut self, out: &mut Vec<(usize, TlsTransactionRecord)>, n: usize) {
        out.clear();
        for _ in 0..n {
            let Some(Reverse((_, c))) = self.heap.pop() else {
                return;
            };
            let j = self.delivered[c];
            out.push((c, self.fleet.record(c, j)));
            self.delivered[c] = j + 1;
            self.heap
                .push(Reverse((self.fleet.delivery_s(c, j + 1).to_bits(), c)));
        }
    }
}

fn client_seed(seed: u64, c: usize) -> u64 {
    dtp_par::task_seed(seed ^ 0x51e4_f1ee, c as u64)
}

/// What a verdict is checked against, kept compact (24 bytes).
#[derive(Debug, Clone, Copy)]
struct VerdictRow {
    /// FNV-1a over the session's first start time, feature bits,
    /// probability bits and predicted class.
    digest: u64,
    /// The engine's event clock (largest start time pushed) when the
    /// verdict was returned.
    emit_clock_s: f64,
    transactions: u32,
    client: u16,
    reason: CloseReason,
}

impl VerdictRow {
    fn new(v: &SessionVerdict, emit_clock_s: f64) -> Self {
        Self {
            digest: digest(v.start_s, &v.features, &v.probabilities, v.predicted),
            emit_clock_s,
            transactions: u32::try_from(v.transactions).unwrap_or(u32::MAX),
            client: v
                .client
                .get(1..)
                .and_then(|s| s.parse().ok())
                .unwrap_or(u16::MAX),
            reason: v.reason,
        }
    }
}

fn digest(start_s: f64, features: &[f64], probabilities: &[f64], predicted: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = features.iter().chain(probabilities).map(|x| x.to_bits());
    let all = std::iter::once(start_s.to_bits())
        .chain(words)
        .chain(std::iter::once(predicted as u64));
    for w in all {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// First-max argmax, the forest's own tie-break.
fn argmax(p: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in p.iter().enumerate() {
        if *v > p[best] {
            best = i;
        }
    }
    best
}

/// Checks verdicts against the offline reference while a pass runs, one
/// stretch of a client's records between idle expiries at a time (an
/// expired tracker starts afresh). Only the rows of stretches still open
/// are held, and lags are kept as counts, so the check's memory does not
/// grow with the verdicts a run returns.
struct Verifier {
    /// Per client: rows of the verdicts not yet checked.
    open: Vec<Vec<VerdictRow>>,
    /// Per client: records, in the order its tracker sees them, that the
    /// checked verdicts cover.
    covered: Vec<usize>,
    /// Event-time lag of every checked verdict, in `LAG_TICK_S` ticks.
    lags: IntSamples,
    /// Verdicts checked.
    verdicts: usize,
    /// What differed from the reference.
    errors: Vec<String>,
}

impl Verifier {
    fn new() -> Self {
        Self {
            open: vec![Vec::new(); CLIENTS],
            covered: vec![0; CLIENTS],
            lags: IntSamples::new(LAG_TICKS, 1024),
            verdicts: 0,
            errors: Vec::new(),
        }
    }

    fn add(&mut self, rows: impl IntoIterator<Item = VerdictRow>) {
        for v in rows {
            match self.open.get_mut(v.client as usize) {
                Some(open) => open.push(v),
                None => {
                    self.verdicts += 1;
                    self.errors
                        .push(format!("verdict for unknown client {}", v.client));
                }
            }
        }
    }

    /// Check every stretch that has closed, given the records delivered
    /// per client. With `last` the pass is over, and each client's
    /// remaining verdicts close its final stretch.
    fn settle(&mut self, fleet: &Fleet, delivered: &[usize], last: bool) {
        let idle_timeout_s = StreamConfig::default().idle_timeout_s;
        let parts = dtp_par::par_map_index("perfbench.reference", CLIENTS, |c| {
            check_client(
                fleet,
                c,
                (self.covered[c], delivered[c]),
                &self.open[c],
                last,
                idle_timeout_s,
            )
        });
        for (c, part) in parts.into_iter().enumerate() {
            self.open[c].drain(..part.rows);
            self.covered[c] += part.records;
            self.verdicts += part.rows;
            self.errors.extend(part.errors);
            for lag in part.lags {
                // Saturating cast: a lag is never negative.
                self.lags.record((lag / LAG_TICK_S).round() as u32);
            }
        }
    }
}

/// What checking one client's closed stretches found.
struct Checked {
    /// Verdict rows checked.
    rows: usize,
    /// Records those rows cover.
    records: usize,
    lags: Vec<f64>,
    errors: Vec<String>,
}

/// Check client `c`'s closed stretches: its unchecked verdict `rows`
/// against its records from position `from` on, among its first
/// `delivered` deliveries. An idle expiry or a flush closes a stretch;
/// with `last`, so does the final row.
fn check_client(
    fleet: &Fleet,
    c: usize,
    (from, delivered): (usize, usize),
    rows: &[VerdictRow],
    last: bool,
    idle_timeout_s: f64,
) -> Checked {
    let mut out = Checked {
        rows: 0,
        records: 0,
        lags: Vec::new(),
        errors: Vec::new(),
    };
    let mut records = fleet.client_records(c, from, delivered).peekable();
    let splitter = SessionSplitter::default();
    for (k, v) in rows.iter().enumerate() {
        let final_row = last && k + 1 == rows.len();
        let reason = v.reason;
        // A flush closes only a client's last session; the last session
        // closes by flush, or by idle expiry when the client fell silent.
        if (reason == CloseReason::Flush && !final_row)
            || (final_row && reason == CloseReason::Boundary)
        {
            let which = if final_row { "last" } else { "an earlier" };
            out.errors
                .push(format!("client {c}: {which} session closed by {reason:?}"));
        }
        if reason == CloseReason::Boundary && !final_row {
            continue;
        }
        let online = &rows[out.rows..=k];
        out.rows = k + 1;
        let sizes: Vec<usize> = online.iter().map(|v| v.transactions as usize).collect();
        let count: usize = sizes.iter().sum();
        out.records += count;
        let stretch: Vec<TlsTransactionRecord> = records.by_ref().take(count).collect();
        let starts: Vec<f64> = stretch.iter().map(|r| r.start_s).collect();
        let emits: Vec<f64> = online.iter().map(|v| v.emit_clock_s).collect();
        match lags_for_client(&starts, &sizes, &emits) {
            Ok(l) => out.lags.extend(l),
            Err(e) => {
                out.errors.push(format!("client {c}: {e}"));
                continue;
            }
        }
        if reason == CloseReason::IdleTimeout {
            if let (Some(next), Some(prev)) = (records.peek(), stretch.last()) {
                let silence = next.start_s - prev.start_s;
                if silence <= idle_timeout_s {
                    out.errors.push(format!(
                        "client {c}: idle expiry after {silence:.1} s at {} s",
                        prev.start_s
                    ));
                }
            }
        }
        let sessions = splitter.split(&stretch);
        let lens: Vec<usize> = sessions.iter().map(Vec::len).collect();
        if lens != sizes {
            out.errors.push(format!(
                "client {c}: sessions {lens:?} offline, {sizes:?} online"
            ));
            continue;
        }
        let features = extract_tls_features_batch(&sessions);
        let probas = fleet.deployed.predict_proba_features_batch(&features);
        for ((row, proba), (v, session)) in features
            .iter()
            .zip(&probas)
            .zip(online.iter().zip(&sessions))
        {
            if digest(session[0].start_s, row, proba, argmax(proba)) != v.digest {
                out.errors.push(format!(
                    "client {c}: session at {} s differs from the reference",
                    session[0].start_s
                ));
            }
        }
    }
    if last {
        let left = records.count();
        if left > 0 {
            out.errors.push(format!(
                "client {c}: {left} delivered records in no verdict"
            ));
        }
    }
    out
}

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first chunk that ends past this many seconds.
    Seconds(f64),
    /// After exactly this many chunks.
    Chunks(usize),
}

/// A finished closed-loop replay of the feed through one engine.
pub struct Pass {
    /// Push time of each chunk, seconds.
    chunk_s: Vec<f64>,
    /// Push timings of pushes that returned no verdict.
    quiet: IntSamples,
    /// (push time ns, verdicts returned) of pushes that returned verdicts.
    emits: Vec<(u32, usize)>,
    /// The verdicts, checked against the offline reference.
    checked: Verifier,
    stats: EngineStats,
    quarantined: usize,
    /// Traced passes: sampled peaks of open sessions, buffered records and
    /// ready sessions.
    peaks: [usize; 3],
}

impl Pass {
    /// Chunks replayed.
    pub fn chunks(&self) -> usize {
        self.chunk_s.len()
    }

    /// Summed push time of the chunks, seconds.
    pub fn push_s(&self) -> f64 {
        self.chunk_s.iter().sum()
    }

    /// Timings of every push.
    fn all_pushes(&self) -> IntSamples {
        let mut all = self.quiet.clone();
        for &(ns, _) in &self.emits {
            all.record(ns);
        }
        all
    }
}

/// A replay in progress: one engine fed one chunk at a time, so the
/// chunks can be spread over a run.
pub struct Run<'a> {
    fleet: &'a Fleet,
    engine: StreamEngine,
    feed: Feed<'a>,
    chunk: Vec<(usize, TlsTransactionRecord)>,
    /// Verdict rows of the chunk being pushed.
    rows: Vec<VerdictRow>,
    pass: Pass,
    clock: f64,
}

impl<'a> Run<'a> {
    /// A fresh engine, with its sample buffers allocated before timing.
    pub fn new(fleet: &'a Fleet) -> Result<Self, String> {
        let engine = StreamEngine::new(fleet.deployed.clone(), StreamConfig::default())
            .map_err(|e| e.to_string())?;
        Ok(Self {
            fleet,
            engine,
            feed: Feed::new(fleet),
            chunk: Vec::with_capacity(CHUNK),
            rows: Vec::with_capacity(CHUNK_VERDICTS),
            pass: Pass {
                chunk_s: Vec::with_capacity(1024),
                quiet: IntSamples::new(NS_CAP, CHUNK),
                emits: Vec::with_capacity(CHUNK / 4),
                checked: Verifier::new(),
                stats: EngineStats::default(),
                quarantined: 0,
                peaks: [0; 3],
            },
            clock: f64::NEG_INFINITY,
        })
    }

    /// Push the next chunk, timing every push, each inside a `stream.push`
    /// span of `tracer`; an enabled tracer also samples the engine's
    /// gauges. Then, untimed, check the verdicts of every stretch the
    /// chunk closed.
    pub fn push_chunk(&mut self, tracer: &mut Tracer) {
        self.feed.fill(&mut self.chunk, CHUNK);
        let p = &mut self.pass;
        let (engine, names, rows) = (&mut self.engine, &self.fleet.names, &mut self.rows);
        let sample_gauges = tracer.enabled();
        let chunk_start = Instant::now();
        for (i, (c, rec)) in self.chunk.drain(..).enumerate() {
            self.clock = self.clock.max(rec.start_s);
            let (out, ns) = tracer.span("stream.push", 1, || {
                let t0 = Instant::now();
                let out = engine.push(&names[c], rec);
                (
                    out,
                    u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX),
                )
            });
            if out.is_empty() {
                p.quiet.record(ns);
            } else {
                p.emits.push((ns, out.len()));
                rows.extend(out.iter().map(|v| VerdictRow::new(v, self.clock)));
            }
            if sample_gauges && i.is_multiple_of(GAUGE_EVERY) {
                p.peaks[0] = p.peaks[0].max(engine.open_sessions());
                p.peaks[1] = p.peaks[1].max(engine.buffered_records());
                p.peaks[2] = p.peaks[2].max(engine.ready_sessions());
            }
        }
        p.chunk_s.push(chunk_start.elapsed().as_secs_f64());
        p.checked.add(rows.drain(..));
        p.checked.settle(self.fleet, &self.feed.delivered, false);
    }

    /// Flush the engine, check the remaining verdicts and hand back
    /// everything the pass recorded.
    pub fn finish(mut self) -> Pass {
        let mut p = self.pass;
        let clock = self.clock;
        p.checked.add(
            self.engine
                .finish()
                .iter()
                .map(|v| VerdictRow::new(v, clock)),
        );
        p.checked.settle(self.fleet, &self.feed.delivered, true);
        p.stats = *self.engine.stats();
        p.quarantined = self.engine.ingest_stats().quarantined;
        p
    }
}

/// Replay the feed through a fresh engine until `stop`, every push inside
/// a span of `tracer`.
pub fn run(fleet: &Fleet, stop: Stop, tracer: &mut Tracer) -> Result<Pass, String> {
    let mut run = Run::new(fleet)?;
    let start = Instant::now();
    loop {
        let chunks = run.pass.chunks();
        let done = match stop {
            Stop::Chunks(n) => chunks >= n,
            Stop::Seconds(s) => chunks > 0 && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            return Ok(run.finish());
        }
        run.push_chunk(tracer);
    }
}

/// Report the end-to-end metrics of a checked `pass`, and its checks.
pub fn check_and_report(fleet: &Fleet, pass: &Pass, report: &mut Report) {
    report.check(
        fleet.trained_digest == fleet.deployed.model_digest(),
        || "deployed model digest differs from the trained one".into(),
    );
    let s = &pass.stats;
    let all = pass.all_pushes();
    let records = all.len();
    report.check(s.records_in == records, || {
        format!(
            "engine counted {} records in, {records} pushed",
            s.records_in
        )
    });
    report.check(
        s.records_in == s.accepted + pass.quarantined + s.late_dropped,
        || {
            format!(
                "records not conserved: in {} != accepted {} + quarantined {} + late {}",
                s.records_in, s.accepted, pass.quarantined, s.late_dropped
            )
        },
    );
    report.check(pass.quarantined == 0 && s.late_dropped == 0, || {
        format!(
            "clean in-window feed lost records: {} quarantined, {} late",
            pass.quarantined, s.late_dropped
        )
    });
    let checked = &pass.checked;
    let reasons = s.closed_by_boundary + s.closed_by_idle + s.closed_by_flush;
    report.check(
        checked.verdicts == s.sessions_emitted && s.sessions_emitted == reasons,
        || {
            format!(
                "verdicts not conserved: {} returned, {} emitted, {reasons} by close reason",
                checked.verdicts, s.sessions_emitted
            )
        },
    );
    report.ops(checked.verdicts as u64, checked.errors.len() as u64, || {
        format!(
            "verdicts differ from the offline reference, first: {}",
            checked.errors[0]
        )
    });

    report.check(reportable(records, 99.0), || {
        format!("{records} pushes: too few for p99")
    });
    let pct = |p| {
        all.percentile(p)
            .map_or(f64::NAN, |ns| f64::from(ns) * 1e-3)
    };
    let samples = records as u64;
    let rates: Vec<f64> = pass.chunk_s.iter().map(|s| CHUNK as f64 / s).collect();
    report.median_of("stream_records_per_s", &rates, "records/s");
    report.metric("push_p50_us", pct(50.0), "us", samples);
    report.metric("push_p99_us", pct(99.0), "us", samples);

    let lags = &checked.lags;
    report.check(reportable(lags.len(), 99.0), || {
        format!("{} verdicts: too few for p99", lags.len())
    });
    let lag = |p| {
        lags.percentile(p)
            .map_or(f64::NAN, |t| f64::from(t) * LAG_TICK_S)
    };
    let verdict_samples = lags.len() as u64;
    report.metric("verdict_lag_p50_s", lag(50.0), "s", verdict_samples);
    report.metric("verdict_lag_p99_s", lag(99.0), "s", verdict_samples);
}

/// Event-time verdict lags for one client: for each verdict (in emission
/// order, covering `sessions[k]` consecutive records of the client's
/// start-sorted `starts`), the engine clock when it was returned minus the
/// start of the session's last record.
///
/// # Errors
/// When the sessions do not cover the records exactly.
pub fn lags_for_client(
    starts: &[f64],
    sessions: &[usize],
    emit_clock_s: &[f64],
) -> Result<Vec<f64>, String> {
    let mut off = 0;
    let mut lags = Vec::with_capacity(sessions.len());
    for (&n, &emit) in sessions.iter().zip(emit_clock_s) {
        if n == 0 || off + n > starts.len() {
            return Err(format!(
                "a session of {n} records overruns {} records",
                starts.len()
            ));
        }
        off += n;
        lags.push(emit - starts[off - 1]);
    }
    if off != starts.len() {
        return Err(format!("sessions cover {off} of {} records", starts.len()));
    }
    Ok(lags)
}

/// Per-layer metrics of the traced pass and of the replays through the
/// layers the engine calls: ingest, session identification and features.
pub fn trace_layers(fleet: &Fleet, pass: &Pass, tracer: &mut Tracer, report: &mut Report) {
    let quiet_p50 = pass.quiet.percentile(50.0).map_or(f64::NAN, f64::from);
    report.metric(
        "stream.push_ns_p50",
        quiet_p50,
        "ns",
        pass.quiet.len() as u64,
    );
    let mut emit_ns: Vec<u32> = pass.emits.iter().map(|&(ns, _)| ns).collect();
    emit_ns.sort_unstable();
    let verdicts_emitted: usize = pass.emits.iter().map(|&(_, n)| n).sum();
    let emits = emit_ns.len() as u64;
    let emit_pct = |p| percentile_sorted(&emit_ns, p).map_or(f64::NAN, |ns| f64::from(ns) * 1e-3);
    report.metric("stream.emit_push_us_p50", emit_pct(50.0), "us", emits);
    let p99_ok = reportable(emit_ns.len(), 99.0);
    report.with_base(
        "stream.emit_push_us_p99",
        emit_pct(99.0),
        "us",
        emits,
        if p99_ok {
            String::new()
        } else {
            "fewer than 1000 emits: below the tail rule".into()
        },
    );
    let per_emit = Ratio {
        num: verdicts_emitted as f64,
        den: emit_ns.len() as f64,
    };
    report.with_base(
        "stream.verdicts_per_emit",
        per_emit.value(),
        "count",
        emits,
        per_emit.base(),
    );
    // Engine gauges sampled every GAUGE_EVERY pushes, then engine tallies.
    let sampled = (pass.chunks() * CHUNK / GAUGE_EVERY) as u64;
    let s = &pass.stats;
    let (sessions, records) = (s.sessions_emitted as u64, s.records_in as u64);
    for (name, value, samples) in [
        ("stream.peak_open_sessions", pass.peaks[0], sampled),
        ("stream.peak_buffered_records", pass.peaks[1], sampled),
        ("stream.peak_ready_sessions", pass.peaks[2], sampled),
        ("stream.closed_by_boundary", s.closed_by_boundary, sessions),
        ("stream.closed_by_idle", s.closed_by_idle, sessions),
        ("stream.closed_by_flush", s.closed_by_flush, sessions),
        ("stream.late_dropped", s.late_dropped, records),
        ("stream.quarantined", pass.quarantined, records),
    ] {
        report.metric(name, value as f64, "count", samples);
    }

    replay_sanitize(fleet, tracer, report);
    replay_sessionid(fleet, tracer, report);
    replay_features(fleet, tracer, report);
}

/// Replays repeat until they have run this long, for steadier per-item
/// times.
const REPLAY_S: f64 = 0.3;

fn replay_sanitize(fleet: &Fleet, tracer: &mut Tracer, report: &mut Report) {
    let records: Vec<&TlsTransactionRecord> =
        fleet.clients.iter().flat_map(|f| &f.records).collect();
    let mut out = Vec::with_capacity(records.len());
    let start = Instant::now();
    let mut bad = 0;
    while start.elapsed().as_secs_f64() < REPLAY_S {
        // Cloned before the span and dropped after it, so the span holds
        // only `sanitize_record`.
        let owned: Vec<TlsTransactionRecord> = records.iter().map(|&r| r.clone()).collect();
        tracer.span("telemetry.sanitize_record", records.len() as u64, || {
            out.extend(owned.into_iter().map(sanitize_record));
        });
        bad += black_box(&out).iter().filter(|r| r.is_err()).count();
        out.clear();
    }
    report.check(bad == 0, || {
        format!("{bad} simulated records quarantined by sanitize_record")
    });
    let t = tracer.totals("telemetry.sanitize_record");
    report.metric(
        "telemetry.sanitize_ns_per_record",
        t.ns_per_item(),
        "ns",
        t.items,
    );
}

fn replay_sessionid(fleet: &Fleet, tracer: &mut Tracer, report: &mut Report) {
    let records: usize = fleet.streams.iter().map(|s| s.transactions.len()).sum();
    let start = Instant::now();
    let mut decisions: Vec<Vec<bool>> = Vec::new();
    while start.elapsed().as_secs_f64() < REPLAY_S {
        // Cloned before the span and dropped after it, as for sanitize.
        let owned: Vec<Vec<TlsTransactionRecord>> = fleet
            .streams
            .iter()
            .map(|s| s.transactions.clone())
            .collect();
        let mut outs: Vec<Vec<_>> = owned
            .iter()
            .map(|txs| Vec::with_capacity(txs.len()))
            .collect();
        tracer.span("sessionid.incremental", records as u64, || {
            for (txs, out) in owned.into_iter().zip(&mut outs) {
                let mut det = IncrementalSessionDetector::default();
                for t in txs {
                    det.push(t, out);
                }
                out.extend(det.finish());
            }
        });
        decisions = outs
            .into_iter()
            .map(|out| out.into_iter().map(|(_, new)| new).collect())
            .collect();
    }
    let t = tracer.totals("sessionid.incremental");
    report.metric(
        "sessionid.incremental_ns_per_record",
        t.ns_per_item(),
        "ns",
        t.items,
    );
    let (mut tp, mut fneg, mut fp, mut tn) = (0usize, 0usize, 0usize, 0usize);
    for (s, d) in fleet.streams.iter().zip(&decisions) {
        for (&truth, &new) in s.truth_new.iter().zip(d) {
            match (truth, new) {
                (true, true) => tp += 1,
                (true, false) => fneg += 1,
                (false, true) => fp += 1,
                (false, false) => tn += 1,
            }
        }
    }
    let recall = Ratio {
        num: tp as f64,
        den: (tp + fneg) as f64,
    };
    let false_split = Ratio {
        num: fp as f64,
        den: (fp + tn) as f64,
    };
    report.with_base(
        "sessionid.new_recall",
        recall.value(),
        "fraction",
        records as u64,
        recall.base(),
    );
    report.with_base(
        "sessionid.false_split_rate",
        false_split.value(),
        "fraction",
        records as u64,
        false_split.base(),
    );
}

fn replay_features(fleet: &Fleet, tracer: &mut Tracer, report: &mut Report) {
    // The fleet's sessions, cut at the true boundaries.
    let mut sessions: Vec<&[TlsTransactionRecord]> = Vec::new();
    for s in &fleet.streams {
        let mut begin = 0;
        for i in 1..=s.transactions.len() {
            if i == s.transactions.len() || s.truth_new[i] {
                sessions.push(&s.transactions[begin..i]);
                begin = i;
            }
        }
    }
    let records: usize = sessions.iter().map(|s| s.len()).sum();
    let start = Instant::now();
    let mut unequal = 0;
    while start.elapsed().as_secs_f64() < REPLAY_S {
        let batch: Vec<Vec<f64>> =
            tracer.span("features.extract_tls", sessions.len() as u64, || {
                sessions.iter().map(|s| extract_tls_features(s)).collect()
            });
        let accumulated: Vec<Vec<f64>> = tracer.span("features.accumulate", records as u64, || {
            sessions
                .iter()
                .map(|s| {
                    let mut acc = TlsSessionAccumulator::new();
                    for t in s.iter() {
                        acc.push(t);
                    }
                    acc.features().0
                })
                .collect()
        });
        unequal = batch
            .iter()
            .zip(&accumulated)
            .filter(|(a, b)| {
                a.iter()
                    .map(|x| x.to_bits())
                    .ne(b.iter().map(|x| x.to_bits()))
            })
            .count();
    }
    report.check(unequal == 0, || {
        format!("{unequal} sessions: accumulator differs from batch extraction")
    });
    let t = tracer.totals("features.extract_tls");
    report.metric(
        "features.extract_tls_us_per_session",
        t.ns_per_item() * 1e-3,
        "us",
        t.items,
    );
    let t = tracer.totals("features.accumulate");
    report.metric(
        "features.accum_ns_per_record",
        t.ns_per_item(),
        "ns",
        t.items,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lag_on_a_two_client_feed() {
        // Delivery order of a hand-built feed: (client, start_s).
        let feed = [
            (0, 0.0),
            (1, 1.0),
            (0, 2.0),
            (1, 3.0),
            (0, 50.0),
            (1, 61.0),
            (0, 70.0),
        ];
        // The engine clock is the largest start pushed so far.
        let mut clock = Vec::new();
        let mut newest = f64::NEG_INFINITY;
        for &(_, start) in &feed {
            newest = f64::max(newest, start);
            clock.push(newest);
        }
        // Client 0's first session (0, 2) is returned by push 5 (client
        // 1's record at 61 s); its second session (50, 70) by the final
        // flush. Client 1's single session (1, 3, 61) also at the flush.
        let starts0: Vec<f64> = feed.iter().filter(|f| f.0 == 0).map(|f| f.1).collect();
        let starts1: Vec<f64> = feed.iter().filter(|f| f.0 == 1).map(|f| f.1).collect();
        let flush = *clock.last().expect("non-empty feed");
        let lags0 =
            lags_for_client(&starts0, &[2, 2], &[clock[5], flush]).expect("covers client 0");
        assert_eq!(lags0, vec![61.0 - 2.0, 70.0 - 70.0]);
        let lags1 = lags_for_client(&starts1, &[3], &[flush]).expect("covers client 1");
        assert_eq!(lags1, vec![70.0 - 61.0]);
        // Sessions must cover the client's records exactly.
        assert!(lags_for_client(&starts0, &[2], &[flush]).is_err());
        assert!(lags_for_client(&starts0, &[2, 3], &[flush, flush]).is_err());
        assert!(lags_for_client(&starts0, &[0, 4], &[flush, flush]).is_err());
    }

    #[test]
    fn laps_end_in_a_pause_past_the_idle_timeout() {
        assert!(LAP_GAP_S > StreamConfig::default().idle_timeout_s);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = digest(3.0, &[1.0, 2.0], &[0.5, 0.5], 0);
        assert_eq!(a, digest(3.0, &[1.0, 2.0], &[0.5, 0.5], 0));
        assert_ne!(
            a,
            digest(
                3.0,
                &[1.0, f64::from_bits(2.0f64.to_bits() + 1)],
                &[0.5, 0.5],
                0
            )
        );
        assert_ne!(a, digest(3.0, &[1.0, 2.0], &[0.5, 0.5], 1));
        assert_ne!(a, digest(3.5, &[1.0, 2.0], &[0.5, 0.5], 0));
        assert_eq!(argmax(&[0.2, 0.4, 0.4]), 1, "first maximum wins");
    }
}
