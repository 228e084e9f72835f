//! `offline_train`: a researcher or operator building a model.
//!
//! One unit builds the Svc1/2/3 corpora with [`DatasetBuilder`] (TLS only,
//! no packet capture), then trains a [`QoeEstimator`] and runs its k-fold
//! cross-validation for the Combined metric on each. Units repeat on the
//! same inputs, so every unit must reproduce the first one's models and
//! fold accuracies bit for bit.

use std::hint::black_box;
use std::time::Instant;

use dtp_core::{Corpus, DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId};
use dtp_ml::ConfusionMatrix;
use dtp_simnet::TraceCorpus;

use crate::report::Report;
use crate::stats::Ratio;
use crate::trace::Tracer;

/// Sessions per service corpus.
pub const SESSIONS: [(ServiceId, usize); 3] = [
    (ServiceId::Svc1, 600),
    (ServiceId::Svc2, 600),
    (ServiceId::Svc3, 600),
];
/// Rows in the scoring micro-batch (the stream engine's default).
const MICRO_BATCH: usize = 64;
/// Replays repeat until they have run this long.
const REPLAY_S: f64 = 0.3;

/// What one unit measured and produced.
pub struct Unit {
    build_s: f64,
    sessions: usize,
    train_s: f64,
    cv_s: f64,
    confusion: ConfusionMatrix,
    /// Model digests and fold-accuracy bits, per service.
    fingerprint: Vec<(String, Vec<u64>)>,
    corpora: Vec<Corpus>,
}

/// Build, train and cross-validate once.
pub fn run_unit(seed: u64, threads: usize, tracer: &mut Tracer) -> Unit {
    let mut unit = Unit {
        build_s: 0.0,
        sessions: 0,
        train_s: 0.0,
        cv_s: 0.0,
        confusion: ConfusionMatrix::new(3),
        fingerprint: Vec::new(),
        corpora: Vec::new(),
    };
    for (service, n) in SESSIONS {
        let t = Instant::now();
        let corpus = tracer.span("core.dataset_build", n as u64, || {
            DatasetBuilder::new(service)
                .sessions(n)
                .seed(seed)
                .threads(threads)
                .build()
        });
        unit.build_s += t.elapsed().as_secs_f64();
        unit.sessions += corpus.len();
        let t = Instant::now();
        let model = tracer.span("ml.train", n as u64, || {
            QoeEstimator::train(&corpus, QoeMetricKind::Combined, seed)
        });
        unit.train_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let cv = tracer.span("ml.cv", n as u64, || {
            QoeEstimator::evaluate(&corpus, QoeMetricKind::Combined, seed)
        });
        unit.cv_s += t.elapsed().as_secs_f64();
        unit.confusion.merge(&cv.confusion);
        let folds = cv.fold_accuracies.iter().map(|a| a.to_bits()).collect();
        unit.fingerprint.push((model.model_digest(), folds));
        unit.corpora.push(corpus);
    }
    unit
}

/// Check the units and report the end-to-end metrics. Returns the last
/// unit, whose corpora the layer replays reuse.
pub fn check_and_report(units: Vec<Unit>, report: &mut Report) -> Option<Unit> {
    let Some(first) = units.first() else {
        report.check(false, || "no offline unit ran".into());
        return None;
    };
    let features = dtp_features::tls_feature_names().len();
    for u in &units {
        let mut bad = 0;
        for (corpus, (_, n)) in u.corpora.iter().zip(SESSIONS) {
            let malformed = corpus
                .records
                .iter()
                .filter(|r| {
                    r.tls_features.len() != features
                        || !r.tls_features.iter().all(|x| x.is_finite())
                })
                .count();
            bad += malformed + n.abs_diff(corpus.len());
        }
        report.ops(u.sessions as u64, bad as u64, || {
            "corpus sessions missing or not finite".into()
        });
        report.check(u.fingerprint == first.fingerprint, || {
            "a repeated unit trained different models or fold accuracies".into()
        });
    }
    let accuracy = first.confusion.accuracy();
    report.check(accuracy > 1.0 / 3.0, || {
        format!("cv accuracy {accuracy} no better than chance")
    });

    let of = |f: fn(&Unit) -> f64| units.iter().map(f).collect::<Vec<f64>>();
    report.median_of(
        "corpus_sessions_per_s",
        &of(|u| u.sessions as f64 / u.build_s),
        "sessions/s",
    );
    report.median_of("train_s", &of(|u| u.train_s), "s");
    report.median_of("cv_s", &of(|u| u.cv_s), "s");
    report.with_base(
        "cv_accuracy",
        accuracy,
        "fraction",
        first.confusion.total() as u64,
        format!("pooled over {} services", SESSIONS.len()),
    );
    units.into_iter().last()
}

/// Per-layer metrics: trace generation, model fit and scoring, each at the
/// configured thread count and at one thread, and the fold check.
pub fn trace_layers(
    seed: u64,
    threads: usize,
    unit: &Unit,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let (_, n) = SESSIONS[0];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < REPLAY_S {
        tracer.span("simnet.paper_mix", n as u64, || {
            black_box(TraceCorpus::paper_mix(n, seed))
        });
    }
    let t = tracer.totals("simnet.paper_mix");
    report.metric(
        "simnet.generate_us_per_trace",
        t.ns_per_item() * 1e-3,
        "us",
        t.items,
    );

    let t = tracer.totals("ml.cv");
    report.metric("ml.cv_ms", t.ms_per_span(), "ms", t.count as u64);

    let corpus = &unit.corpora[0];
    let fit = || QoeEstimator::train(corpus, QoeMetricKind::Combined, seed);
    let mut models = Vec::new();
    for _ in 0..3 {
        models.push(tracer.span("ml.fit", n as u64, fit));
        models.push(tracer.span("ml.fit_serial", n as u64, || dtp_par::with_threads(1, fit)));
    }
    let digests: Vec<String> = models.iter().map(QoeEstimator::model_digest).collect();
    report.check(digests.iter().all(|d| *d == digests[0]), || {
        "forest fit differs between one thread and the configured count".into()
    });
    let parallel = tracer.totals("ml.fit");
    let serial = tracer.totals("ml.fit_serial");
    report.metric(
        "ml.fit_ms",
        parallel.ms_per_span(),
        "ms",
        parallel.count as u64,
    );
    report.metric(
        "ml.fit_ms_serial",
        serial.ms_per_span(),
        "ms",
        serial.count as u64,
    );
    let speedup = Ratio {
        num: serial.total_s,
        den: parallel.total_s,
    };
    report.with_base(
        "par.fit_speedup",
        speedup.value(),
        "ratio",
        parallel.count as u64,
        format!("{threads} threads"),
    );

    let model = &models[0];
    let rows: Vec<Vec<f64>> = corpus
        .records
        .iter()
        .take(MICRO_BATCH)
        .map(|r| r.tls_features.clone())
        .collect();
    let mut outputs = Vec::new();
    for name in ["ml.predict", "ml.predict_serial"] {
        let one = if name == "ml.predict" { threads } else { 1 };
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < REPLAY_S {
            let p = tracer.span(name, rows.len() as u64, || {
                dtp_par::with_threads(one, || model.predict_proba_features_batch(&rows))
            });
            outputs.push(p);
        }
    }
    report.check(outputs.iter().all(|p| *p == outputs[0]), || {
        "micro-batch scores differ between one thread and the configured count".into()
    });
    let parallel = tracer.totals("ml.predict");
    let serial = tracer.totals("ml.predict_serial");
    report.metric(
        "ml.predict_us_per_row",
        parallel.ns_per_item() * 1e-3,
        "us",
        parallel.items,
    );
    report.metric(
        "ml.predict_us_per_row_serial",
        serial.ns_per_item() * 1e-3,
        "us",
        serial.items,
    );
    let speedup = Ratio {
        num: serial.ns_per_item(),
        den: parallel.ns_per_item(),
    };
    report.with_base(
        "par.predict_speedup",
        speedup.value(),
        "ratio",
        parallel.items,
        format!("{threads} threads"),
    );

    // Fold accuracies must not depend on the thread count.
    let serial = dtp_par::with_threads(1, || {
        QoeEstimator::evaluate(corpus, QoeMetricKind::Combined, seed)
    });
    let serial: Vec<u64> = serial.fold_accuracies.iter().map(|a| a.to_bits()).collect();
    report.check(serial == unit.fingerprint[0].1, || {
        format!("fold accuracies differ at 1 and {threads} threads")
    });
}
