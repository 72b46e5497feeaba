//! The batch workloads: `filter_int8` (learned int8 filter in front of
//! exact CEP) and `cep_multiquery` (four patterns on one shared plan, every
//! event relayed).
//!
//! A batch is one serial `Dlacep::run` pass over one of the workload's
//! slices, acknowledged when the pass returns. Heavy passes run back to
//! back; light passes are each due a fixed idle gap after the previous one
//! ended, and are timed from when they were due.

use crate::probes;
use crate::spans::{Open, Recorder};
use crate::stats::Samples;
use crate::{Outcome, RunConfig};
use dlacep_bench::queries::real::{q_a1, q_a5, q_a9};
use dlacep_cep::engine::CepEngine;
use dlacep_cep::{Match, NfaEngine, Pattern, PatternSet};
use dlacep_core::pipeline::{Dlacep, DlacepReport};
use dlacep_core::trainer::{train_event_filter, TrainConfig};
use dlacep_core::{Filter, PassthroughFilter, QuantizedFilter};
use dlacep_data::StockConfig;
use dlacep_events::{EventId, EventStream, PrimitiveEvent};
use dlacep_par::Parallelism;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `filter_int8` stream: the first `FILTER_TRAIN` events train the filter,
/// the rest are the held-out slice every pass runs over.
pub const FILTER_EVENTS: usize = 20_000;
pub const FILTER_TRAIN: usize = 12_000;
/// `cep_multiquery` events per slice (one pass ≈ 0.3 s on one core).
pub const MQ_EVENTS: usize = 3_000;
/// Slices per run.
const SLICES: usize = 6;
/// Pipeline builds per `cep_multiquery` set-up block; `setup_s` is the
/// median of two blocks (`filter_int8` sets up once per slice).
const MQ_SETUPS: usize = 100;
/// Idle gap before each light pass.
const LIGHT_GAP: Duration = Duration::from_millis(20);
const MIN_PASSES: usize = 3;
/// Heavy rounds per light round.
const HEAVY_PER_LIGHT: usize = 3;

/// The light Table-1 pattern the learned filter is trained for.
pub fn filter_pattern() -> Pattern {
    q_a1(4, 2, &[1, 2], 0.8, 1.25, 16)
}

/// The four fig9g patterns on one shared window (W = 22): `q_a1(4, 6,
/// [1,2,3])` is the first branch of `q_a9(4)` under binding
/// canonicalization, and `q_a5` shares its 4-step prefix with that branch,
/// so the sharing optimizer has real work.
pub fn multiquery_patterns() -> Vec<Pattern> {
    const W: u64 = 22;
    vec![
        q_a9(4, 6, 12, 0.8, 1.2, 0.8, 1.2, W),
        q_a5(1, 6, 2, 0.8, 1.2, W),
        q_a1(4, 6, &[1, 2, 3], 0.8, 1.2, W),
        q_a1(4, 2, &[1, 2], 0.8, 1.25, W),
    ]
}

pub fn multiquery_set() -> PatternSet {
    PatternSet::new(multiquery_patterns()).expect("the fig9g patterns share one window")
}

/// The stock stream of `seed`.
pub fn stock(seed: u64, n: usize) -> Vec<PrimitiveEvent> {
    let (_, stream) = StockConfig {
        num_events: n,
        seed,
        ..Default::default()
    }
    .generate();
    stream.events().to_vec()
}

/// Serial, or a pool of `threads` with the library's default thresholds.
pub fn parallelism(threads: usize) -> Parallelism {
    Parallelism {
        threads,
        min_batch_windows: 4,
        shard_events: 512,
    }
}

/// The `filter_int8` model: trained with `TrainConfig::quick` on the
/// training slice, quantized with 32 calibration windows from it.
pub struct Trained {
    pub filter: QuantizedFilter,
    pub train_s: f64,
    pub epochs: usize,
    pub quantize_ms: f64,
}

pub fn train_int8(events: &[PrimitiveEvent], rec: Option<(&Recorder, &Open)>) -> Trained {
    let pattern = filter_pattern();
    let train = EventStream::from_events(events[..FILTER_TRAIN].to_vec())
        .expect("generated stream is ordered");
    let t0 = Instant::now();
    let trained = match rec {
        Some((r, p)) => r.child("core.trainer.train", p, || {
            train_event_filter(&pattern, &train, &TrainConfig::quick())
        }),
        None => train_event_filter(&pattern, &train, &TrainConfig::quick()),
    };
    let train_s = t0.elapsed().as_secs_f64();
    let calib: Vec<&[PrimitiveEvent]> = events[..FILTER_TRAIN].chunks(32).take(32).collect();
    let t1 = Instant::now();
    let quantize = || QuantizedFilter::quantize(&trained.filter, &calib);
    let filter = match rec {
        Some((r, p)) => r.child("core.quantized.quantize", p, quantize),
        None => quantize(),
    }
    .expect("a trained network quantizes");
    Trained {
        filter,
        train_s,
        epochs: trained.report.epochs_run,
        quantize_ms: t1.elapsed().as_secs_f64() * 1e3,
    }
}

fn keys(ms: &[Match]) -> BTreeSet<Vec<EventId>> {
    ms.iter().map(|m| m.event_ids.clone()).collect()
}

/// One slice of a batch workload: a pipeline and the events every pass
/// runs it over. A run measures several slices, each from its own stream
/// (and, for `filter_int8`, its own trained model), so one stream's match
/// density or one model's quality does not set the run's figures.
pub struct Slice<F: Filter> {
    pub dl: Dlacep<F>,
    pub events: Vec<PrimitiveEvent>,
}

/// The stream seed of slice `i` of a run with seed `seed`.
fn slice_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SLICES as u64).wrapping_add(i as u64)
}

/// Pass latencies and what the passes reported. A batch is one pass over
/// one slice; a round is one pass over every slice. Rounds cycle through
/// `HEAVY_PER_LIGHT` heavy rounds, whose passes run back to back, and one
/// light round, whose passes are each due `LIGHT_GAP` after the previous
/// pass ended. Interleaving spreads both kinds over the whole run: the
/// host's speed drifts over tens of seconds, and a run measured in one
/// stretch per kind would give each a different drift.
struct PassLoop {
    heavy_ms: Samples,
    /// Events the heavy passes ran over.
    heavy_events: usize,
    light_ms: Samples,
    late_ms: Samples,
    rounds: u64,
    faults: u64,
    /// Every pass emitted the same matches and relayed the same events as
    /// the slice's warm-up pass.
    consistent: bool,
    warm: Vec<DlacepReport>,
}

impl PassLoop {
    /// Events/s over the time spent in heavy passes.
    fn throughput(&self) -> f64 {
        self.heavy_events as f64 / (self.heavy_ms.values().iter().sum::<f64>() / 1e3)
    }
}

fn same_result(a: &DlacepReport, b: &DlacepReport) -> bool {
    a.events_relayed == b.events_relayed
        && a.matches.len() == b.matches.len()
        && a.per_pattern
            .iter()
            .map(Vec::len)
            .eq(b.per_pattern.iter().map(Vec::len))
}

fn pass_loop<F: Filter>(slices: &[Slice<F>], budget: Duration) -> PassLoop {
    let warm: Vec<DlacepReport> = slices.iter().map(|s| s.dl.run(&s.events)).collect();
    let mut l = PassLoop {
        heavy_ms: Samples::new(),
        heavy_events: 0,
        light_ms: Samples::new(),
        late_ms: Samples::new(),
        rounds: 0,
        faults: warm.iter().map(|r| r.filter_faults as u64).sum(),
        consistent: true,
        warm,
    };
    let start = Instant::now();
    for k in 0usize.. {
        if start.elapsed() >= budget
            && l.heavy_ms.len() >= MIN_PASSES
            && l.light_ms.len() >= MIN_PASSES
        {
            break;
        }
        let light = k % (HEAVY_PER_LIGHT + 1) == HEAVY_PER_LIGHT;
        for (s, warm) in slices.iter().zip(&l.warm) {
            let due = if light {
                let due = Instant::now() + LIGHT_GAP;
                std::thread::sleep(LIGHT_GAP);
                l.late_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                due
            } else {
                Instant::now()
            };
            let r = s.dl.run(&s.events);
            let ms = due.elapsed().as_secs_f64() * 1e3;
            if light {
                l.light_ms.push(ms);
            } else {
                l.heavy_ms.push(ms);
                l.heavy_events += s.events.len();
            }
            l.faults += r.filter_faults as u64;
            l.consistent &= same_result(warm, &r);
        }
        l.rounds += 1;
    }
    l
}

fn windows<F: Filter>(slices: &[Slice<F>]) -> u64 {
    slices
        .iter()
        .map(|s| s.dl.assembler().num_steps(s.events.len()) as u64)
        .sum()
}

/// End-to-end metrics of a batch workload from its pass loop.
fn end_to_end<F: Filter>(out: &mut Outcome, l: &PassLoop, slices: &[Slice<F>], setup: &Samples) {
    let m = &mut out.metrics;
    m.set("throughput_eps", l.throughput(), "1/s");
    m.set("ack_p50_ms.light", l.light_ms.median(), "ms");
    m.set("ack_p50_ms.heavy", l.heavy_ms.median(), "ms");
    m.set("setup_s", setup.median(), "s");
    out.note("pass_ms.heavy", l.heavy_ms.describe());
    out.note("pass_ms.light", l.light_ms.describe());
    out.note("gen_late_ms", l.late_ms.describe());
    out.note("setup_s", setup.describe());
    out.check(
        l.consistent,
        "every pass reproduces the slice's warm-up pass",
    );
    // An operation is a window; it fails when its marks were invalid and
    // the window failed open.
    out.attempted = windows(slices) * (l.rounds + 1);
    out.failed = l.faults;
}

/// Median untraced time of one pass over `slice` (ms): the base of
/// `cep.ecep.gain`.
pub fn pass_ms<F: Filter>(slice: &Slice<F>) -> f64 {
    let mut ms = Samples::new();
    for _ in 0..MIN_PASSES {
        let t = Instant::now();
        let _ = slice.dl.run(&slice.events);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms.median()
}

/// A filter wrapper that records a span around every `Filter::mark`
/// call, under the pass span set by the caller.
struct TracedFilter<F> {
    inner: F,
    rec: Arc<Recorder>,
    parent: Mutex<Option<Open>>,
}

impl<F: Filter> Filter for TracedFilter<F> {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let parent = *self.parent.lock().expect("parent span lock");
        match parent {
            Some(p) => self
                .rec
                .child("core.filter.mark", &p, || self.inner.mark(window)),
            None => self.inner.mark(window),
        }
    }

    fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        self.inner.scores(window)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn quantized(&self) -> bool {
        self.inner.quantized()
    }
}

/// The traced half of a traced run: passes over the same slices with a
/// span per pass and per `mark` call. Returns the traced throughput
/// (events/s) and the median glue time per pass (ms):
/// `DlacepReport::filter_time` minus the pass's summed mark time, i.e. the
/// self time of window assembly plus relay dedup.
pub fn traced_passes<F: Filter + Clone>(
    rec: &Arc<Recorder>,
    slices: &[Slice<F>],
    budget: Duration,
) -> (f64, f64) {
    let traced: Vec<Slice<TracedFilter<F>>> = slices
        .iter()
        .map(|s| Slice {
            dl: Dlacep::multi(
                s.dl.patterns().clone(),
                TracedFilter {
                    inner: s.dl.filter().clone(),
                    rec: Arc::clone(rec),
                    parent: Mutex::new(None),
                },
            )
            .parallelism(parallelism(1))
            .build()
            .expect("workload compiles"),
            events: s.events.clone(),
        })
        .collect();
    for s in &traced {
        let _ = s.dl.run(&s.events);
    }
    let (mut events, mut ns) = (0usize, 0u64);
    let mut glue_ms = Samples::new();
    let start = Instant::now();
    while glue_ms.len() < MIN_PASSES || start.elapsed() < budget {
        for s in &traced {
            let pass = rec.new_pass();
            let root = rec.open("core.pipeline.run", None, pass);
            *s.dl.filter().parent.lock().expect("parent span lock") = Some(root);
            let r = s.dl.run(&s.events);
            *s.dl.filter().parent.lock().expect("parent span lock") = None;
            ns += rec.close(root);
            events += s.events.len();
            let mark_ns = rec.pass_total_ns("core.filter.mark", pass);
            glue_ms.push((r.filter_time.as_nanos() as f64 - mark_ns as f64) / 1e6);
        }
    }
    (events as f64 / (ns as f64 / 1e9), glue_ms.median())
}

/// Tracing overhead, glue time and generator lateness from one untraced
/// and one traced half of the budget.
fn overhead<F: Filter + Clone>(
    rec: &Arc<Recorder>,
    slices: &[Slice<F>],
    budget: Duration,
    out: &mut Outcome,
) {
    let l = pass_loop(slices, budget / 2);
    let (traced, glue) = traced_passes(rec, slices, budget / 2);
    out.check(
        l.consistent,
        "every pass reproduces the slice's warm-up pass",
    );
    out.attempted = windows(slices) * (l.rounds + 1);
    out.failed = l.faults;
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_frac",
        1.0 - traced / l.throughput(),
        "ratio",
    );
    m.set("core.pipeline.glue_ms", glue, "ms");
    m.set("gen.late_p99_ms", l.late_ms.quantile(0.99), "ms");
}

/// The serving-tier layers are probed beside a batch workload; no server
/// runs on its path, so nothing is shed.
fn serve_layers(rec: &Recorder, seed: u64, out: &mut Outcome) {
    let depth = probes::shared_layers(rec, seed, out);
    out.metrics
        .set("serve.channel.queue_depth_max", depth as f64, "count");
    out.metrics.set("serve.server.shed_events", 0.0, "count");
}

pub fn filter_int8(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    let pattern = filter_pattern();

    // Set-up, once per slice: training, quantization and plan compile.
    let mut setup = Samples::new();
    let mut slices = Vec::with_capacity(SLICES);
    let mut first_model = None;
    let setup_rec = cfg
        .trace
        .as_ref()
        .map(|r| (r, r.open("setup", None, r.new_pass())));
    for i in 0..SLICES {
        let events = stock(slice_seed(cfg.seed, i), FILTER_EVENTS);
        let t0 = Instant::now();
        let trained = train_int8(&events, setup_rec.as_ref().map(|(r, o)| (&***r, o)));
        let dl = Dlacep::builder(pattern.clone(), trained.filter.clone())
            .parallelism(parallelism(1))
            .build()
            .expect("filter pattern compiles");
        setup.push(t0.elapsed().as_secs_f64());
        first_model.get_or_insert(trained);
        slices.push(Slice {
            dl,
            events: events[FILTER_TRAIN..].to_vec(),
        });
    }
    if let Some((r, o)) = setup_rec {
        r.close(o);
    }
    let trained = first_model.expect("at least one slice");

    // Reference outside set-up: exact CEP on the same slices.
    let exact: Vec<BTreeSet<Vec<EventId>>> = slices
        .iter()
        .map(|s| keys(&NfaEngine::new(&pattern).expect("compiles").run(&s.events)))
        .collect();
    out.check(
        exact.iter().all(|e| !e.is_empty()),
        "the exact reference finds matches",
    );

    match &cfg.trace {
        None => {
            let l = pass_loop(&slices, cfg.budget);
            let (mut found, mut total, mut acep_n) = (0, 0, 0);
            for (r, e) in l.warm.iter().zip(&exact) {
                let acep = keys(&r.matches);
                out.check(
                    acep.is_subset(e),
                    "every ACEP match is an exact match (precision 1.0)",
                );
                found += acep.intersection(e).count();
                total += e.len();
                acep_n += acep.len();
            }
            out.metrics
                .set("recall", found as f64 / total as f64, "ratio");
            end_to_end(&mut out, &l, &slices, &setup);
            out.note(
                "recall_base",
                format!("{{\"acep\": {acep_n}, \"exact\": {total}}}"),
            );
        }
        Some(rec) => {
            overhead(rec, &slices, cfg.budget, &mut out);
            let (s0, m) = (&slices[0], &mut out.metrics);
            m.set("core.trainer.train_s", trained.train_s, "s");
            m.set("core.trainer.epochs", trained.epochs as f64, "count");
            m.set("core.quantized.quantize_ms", trained.quantize_ms, "ms");
            let assembler = *s0.dl.assembler();
            probes::filter_model(rec, &trained.filter, &assembler, &s0.events, m);
            let relayed = probes::own_filter(rec, s0.dl.filter(), &assembler, &s0.events, m);
            probes::cep(
                rec,
                s0.dl.patterns(),
                &relayed,
                &s0.events,
                pass_ms(s0),
                &mut out,
            );
            serve_layers(rec, cfg.seed, &mut out);
        }
    }
    out
}

/// Time `MQ_SETUPS` pipeline builds of the `cep_multiquery` pattern set;
/// returns the last `SLICES` of them.
fn mq_setups(setup: &mut Samples) -> Vec<Dlacep<PassthroughFilter>> {
    let mut built = Vec::with_capacity(SLICES);
    for i in 0..MQ_SETUPS {
        let t0 = Instant::now();
        let dl = Dlacep::multi(multiquery_set(), PassthroughFilter)
            .parallelism(parallelism(1))
            .build()
            .expect("fig9g patterns compile");
        setup.push(t0.elapsed().as_secs_f64());
        if i + SLICES >= MQ_SETUPS {
            built.push(dl);
        }
    }
    built
}

pub fn cep_multiquery(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();

    // Set-up: pattern-set construction and shared-plan compile into a
    // pipeline, timed in two blocks, before and after the measured passes,
    // so one slow stretch of the host does not set `setup_s`.
    let mut setup = Samples::new();
    let slices: Vec<Slice<PassthroughFilter>> = mq_setups(&mut setup)
        .into_iter()
        .enumerate()
        .map(|(i, dl)| Slice {
            dl,
            events: stock(slice_seed(cfg.seed, i), MQ_EVENTS),
        })
        .collect();

    // Reference outside set-up: each pattern on its own engine.
    let separate: Vec<Vec<BTreeSet<Vec<EventId>>>> = slices
        .iter()
        .map(|s| {
            multiquery_patterns()
                .iter()
                .map(|p| keys(&NfaEngine::new(p).expect("compiles").run(&s.events)))
                .collect()
        })
        .collect();
    out.check(
        separate.iter().flatten().all(|s| !s.is_empty()),
        "every pattern's reference finds matches",
    );

    match &cfg.trace {
        None => {
            let l = pass_loop(&slices, cfg.budget);
            let _ = mq_setups(&mut setup);
            let (mut found, mut total) = (0, 0);
            for (r, sep) in l.warm.iter().zip(&separate) {
                let shared: Vec<BTreeSet<Vec<EventId>>> =
                    r.per_pattern.iter().map(|ms| keys(ms)).collect();
                out.check(
                    &shared == sep,
                    "per-pattern matches equal independent per-pattern engines",
                );
                let exact: BTreeSet<&Vec<EventId>> = sep.iter().flatten().collect();
                found += keys(&r.matches)
                    .iter()
                    .filter(|k| exact.contains(k))
                    .count();
                total += exact.len();
            }
            out.metrics
                .set("recall", found as f64 / total as f64, "ratio");
            end_to_end(&mut out, &l, &slices, &setup);
        }
        Some(rec) => {
            overhead(rec, &slices, cfg.budget, &mut out);
            let s0 = &slices[0];
            let assembler = *s0.dl.assembler();
            let relayed = probes::own_filter(
                rec,
                s0.dl.filter(),
                &assembler,
                &s0.events,
                &mut out.metrics,
            );
            probes::cep(
                rec,
                s0.dl.patterns(),
                &relayed,
                &s0.events,
                pass_ms(s0),
                &mut out,
            );
            probes::trained_model(rec, cfg.seed, &s0.events, &mut out.metrics);
            serve_layers(rec, cfg.seed, &mut out);
        }
    }
    out
}
