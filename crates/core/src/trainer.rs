//! End-to-end training of the DLACEP filters on a historical stream
//! (paper §4.3 and §5.1): label 2W-sized samples with the exact engine,
//! embed, 70/30 split, train to convergence under the paper's batch-size and
//! learning-rate schedules, and report test-set precision/recall/F1.
//!
//! Several patterns train one network on labels OR-ed across the patterns
//! (§4.3's "semantic unification"); a single pattern is the one-element
//! case of the same path.

use crate::embed::EventEmbedder;
use crate::filter::{EventNetFilter, WindowNetFilter};
use crate::model::{EventNetwork, NetworkConfig, WindowNetwork};
use crate::pipeline::DlacepError;
use dlacep_cep::plan::Plan;
use dlacep_cep::{Pattern, PatternSet, TypeSet};
use dlacep_data::label::{label_stream_multi, relevant_types};
use dlacep_data::{train_test_split, LabeledSample};
use dlacep_events::EventStream;
use dlacep_nn::optim::Optimizer;
use dlacep_nn::{
    record_epoch, Adam, BatchSampler, BatchSchedule, Confusion, ConvergenceDetector, LrSchedule,
    TrainReport, TrainStep,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// BiLSTM hidden width per direction.
    pub hidden: usize,
    /// Stacked BiLSTM layers.
    pub layers: usize,
    /// Hard cap on epochs (convergence may stop earlier).
    pub max_epochs: usize,
    /// Batch-size schedule (paper: 512 → 256).
    pub batch: BatchSchedule,
    /// Learning-rate schedule (paper: 1e-3 → 1e-4).
    pub lr: LrSchedule,
    /// Convergence: loss stable within this band…
    pub convergence_threshold: f32,
    /// …for this many consecutive epochs (paper: 0.01 for 5 epochs).
    pub convergence_patience: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Seed for splitting, batching and weight init.
    pub seed: u64,
    /// Fraction of the training samples actually used (Fig. 11c–d sweeps
    /// this; 1.0 = all).
    pub data_fraction: f64,
    /// Fraction of samples assigned to the train split (paper: 0.7).
    pub train_fraction: f64,
    /// Duplicate match-containing training windows until the classes are
    /// roughly balanced (capped at ×16). Counters the heavy 0-label skew the
    /// paper observes ("class imbalance in favor of 0 labeled events",
    /// Fig. 11 discussion) at the reduced training budgets used here.
    pub oversample_positives: bool,
    /// Marking threshold handed to the produced [`EventNetFilter`]:
    /// `Some(t)` marks events with posterior marginal above `t` (recall-
    /// biased; spurious marks are discarded by the extractor), `None` uses
    /// Viterbi decoding.
    pub mark_threshold: Option<f32>,
}

impl TrainConfig {
    /// The paper's settings at reduced network scale.
    pub fn paper_default() -> Self {
        Self {
            hidden: 75,
            layers: 3,
            max_epochs: 200,
            batch: BatchSchedule::paper_default(20),
            lr: LrSchedule::paper_default(),
            convergence_threshold: 0.01,
            convergence_patience: 5,
            grad_clip: 5.0,
            seed: 42,
            data_fraction: 1.0,
            train_fraction: 0.7,
            oversample_positives: true,
            mark_threshold: Some(0.3),
        }
    }

    /// A fast configuration for tests and laptop-scale experiments.
    pub fn quick() -> Self {
        Self {
            hidden: 16,
            layers: 1,
            max_epochs: 24,
            batch: BatchSchedule::constant(32),
            lr: LrSchedule::new(0.02, 0.002, 0.5, 10),
            convergence_threshold: 0.002,
            convergence_patience: 3,
            grad_clip: 5.0,
            seed: 42,
            data_fraction: 1.0,
            train_fraction: 0.7,
            oversample_positives: true,
            mark_threshold: Some(0.3),
        }
    }
}

/// One embedded training sample: per-event feature vectors, per-event
/// labels, and the window label.
pub(crate) type Sample = (Vec<Vec<f32>>, Vec<bool>, bool);

/// The embedded form of the labeled samples, shared by both model trainers.
struct Prepared {
    embedder: EventEmbedder,
    train: Vec<Sample>,
    test: Vec<Sample>,
    dropped_short: usize,
}

/// Label `2W`-event samples against every pattern (labels OR-ed, §4.3),
/// embed them over the union of the patterns' relevant types, split, and
/// apply `data_fraction` and oversampling to the training side.
fn prepare(
    patterns: &[Pattern],
    stream: &EventStream,
    cfg: &TrainConfig,
) -> Result<Prepared, DlacepError> {
    let window = PatternSet::new(patterns.to_vec())?.window();
    let mut relevant = TypeSet::new(vec![]);
    for pattern in patterns {
        relevant = relevant.union(&relevant_types(&Plan::compile(pattern)?));
    }
    let num_attrs = stream.events().first().map_or(0, |e| e.attrs.len());
    let embedder = EventEmbedder::new(&relevant, num_attrs);
    let sample_len = (2 * window.size()) as usize;
    let samples: Vec<LabeledSample> = label_stream_multi(patterns, stream, sample_len);
    let full: Vec<&LabeledSample> = samples.iter().filter(|s| s.len == sample_len).collect();
    let dropped_short = samples.len() - full.len();
    let embedded: Vec<Sample> = full
        .iter()
        .map(|s| {
            let evs = &stream.events()[s.start..s.start + s.len];
            (
                embedder.embed_window(evs, s.len),
                s.event_labels.clone(),
                s.window_label,
            )
        })
        .collect();
    let (mut train, test) = train_test_split(embedded, cfg.train_fraction, cfg.seed);
    if cfg.data_fraction < 1.0 {
        let keep = ((train.len() as f64) * cfg.data_fraction).ceil().max(1.0) as usize;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5f5f);
        train.shuffle(&mut rng);
        train.truncate(keep.min(train.len()));
    }
    if cfg.oversample_positives && oversample_positives(&mut train) {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xa1a1);
        train.shuffle(&mut rng);
    }
    Ok(Prepared {
        embedder,
        train,
        test,
        dropped_short,
    })
}

/// Duplicate match-containing samples until the classes are roughly
/// balanced (at most ×16 per positive), appending the copies in positive
/// order. Returns whether the set was rebalanced: it holds positives and
/// they are the minority.
pub(crate) fn oversample_positives(samples: &mut Vec<Sample>) -> bool {
    let pos: Vec<usize> = (0..samples.len()).filter(|&i| samples[i].2).collect();
    let neg = samples.len() - pos.len();
    if pos.is_empty() || neg <= pos.len() {
        return false;
    }
    let copies = ((neg / pos.len()).saturating_sub(1)).min(15);
    for i in pos {
        for _ in 0..copies {
            samples.push(samples[i].clone());
        }
    }
    true
}

/// The one epoch loop behind every trainer. Each epoch sets the scheduled
/// learning rate, runs `step` on every batch of sample indices drawn by a
/// `seed`-ed sampler, records the mean loss and gradient norm into the
/// global obs registry (per-run registries stay deterministic across thread
/// counts), and stops once the loss has converged.
fn run_epochs(
    cfg: &TrainConfig,
    samples: usize,
    seed: u64,
    mut step: impl FnMut(&[usize], &mut Adam) -> TrainStep,
) -> TrainReport {
    let obs = dlacep_obs::global();
    let mut opt = Adam::new(cfg.lr.lr_at(0));
    let mut sampler = BatchSampler::new(samples, seed);
    let mut detector =
        ConvergenceDetector::new(cfg.convergence_threshold, cfg.convergence_patience);
    let mut losses = Vec::new();
    let mut converged = false;
    for epoch in 0..cfg.max_epochs {
        if samples == 0 {
            break;
        }
        opt.set_lr(cfg.lr.lr_at(epoch));
        let mut epoch_loss = 0.0;
        let mut epoch_grad_norm = 0.0;
        let mut batches = 0;
        for batch_idx in sampler.epoch(cfg.batch.at(epoch)) {
            let out = step(&batch_idx, &mut opt);
            epoch_loss += out.loss;
            epoch_grad_norm += out.grad_norm;
            batches += 1;
        }
        let loss = epoch_loss / batches.max(1) as f32;
        record_epoch(
            &obs,
            epoch,
            loss,
            epoch_grad_norm / batches.max(1) as f32,
            cfg.lr.lr_at(epoch),
        );
        losses.push(loss);
        if detector.observe(loss) {
            converged = true;
            break;
        }
    }
    TrainReport {
        epochs_run: losses.len(),
        epoch_losses: losses,
        converged,
    }
}

fn network_config(cfg: &TrainConfig, input_dim: usize, seed: u64) -> NetworkConfig {
    NetworkConfig {
        input_dim,
        hidden: cfg.hidden,
        layers: cfg.layers,
        seed,
    }
}

/// Build a fresh event-network and train it on per-event labels. Shared by
/// offline training and [`crate::retrain::train_on_windows`].
pub(crate) fn fit_event_network(
    samples: &[Sample],
    input_dim: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> (EventNetwork, TrainReport) {
    let mut net = EventNetwork::new(network_config(cfg, input_dim, seed));
    let report = run_epochs(cfg, samples.len(), seed, |idx, opt| {
        let batch: Vec<(&[Vec<f32>], &[bool])> = idx
            .iter()
            .map(|&i| (samples[i].0.as_slice(), samples[i].1.as_slice()))
            .collect();
        net.train_batch(&batch, opt, cfg.grad_clip)
    });
    (net, report)
}

/// Outcome of training the event-network.
pub struct EventNetTraining {
    /// Ready-to-use filter.
    pub filter: EventNetFilter,
    /// Loss trajectory and convergence flag.
    pub report: TrainReport,
    /// Event-level confusion on the held-out test split.
    pub test: Confusion,
    /// Samples dropped for being shorter than 2W (stream tail).
    pub dropped_short: usize,
}

/// Train the event-network filter for one pattern.
pub fn train_event_filter(
    pattern: &Pattern,
    stream: &EventStream,
    cfg: &TrainConfig,
) -> EventNetTraining {
    train_multi_pattern(std::slice::from_ref(pattern), stream, cfg).expect("pattern compiles")
}

/// Train one event-network for a set of patterns (paper §4.3): an event is
/// positive if it takes part in a full match of *any* pattern. Run the
/// result with [`crate::pipeline::Dlacep::multi`], which filters once and
/// extracts every pattern with one shared plan.
///
/// # Errors
/// Returns [`DlacepError::Pattern`] when `patterns` is empty or the windows
/// disagree, and [`DlacepError::Compile`] when any pattern fails to compile.
pub fn train_multi_pattern(
    patterns: &[Pattern],
    stream: &EventStream,
    cfg: &TrainConfig,
) -> Result<EventNetTraining, DlacepError> {
    let prepared = prepare(patterns, stream, cfg)?;
    let (net, report) = fit_event_network(&prepared.train, prepared.embedder.dim(), cfg, cfg.seed);
    let mut test = Confusion::new();
    for (w, labels, _) in &prepared.test {
        let pred: Vec<bool> = match cfg.mark_threshold {
            None => net.mark(w),
            Some(t) => net.marginals(w).into_iter().map(|p| p > t).collect(),
        };
        test.record_all(&pred, labels);
    }
    Ok(EventNetTraining {
        filter: EventNetFilter {
            network: net,
            embedder: prepared.embedder,
            threshold: cfg.mark_threshold,
        },
        report,
        test,
        dropped_short: prepared.dropped_short,
    })
}

/// Outcome of training the window-network.
pub struct WindowNetTraining {
    /// Ready-to-use filter.
    pub filter: WindowNetFilter,
    /// Loss trajectory and convergence flag.
    pub report: TrainReport,
    /// Window-level confusion on the held-out test split.
    pub test: Confusion,
    /// Samples dropped for being shorter than 2W.
    pub dropped_short: usize,
}

/// Train the window-network filter for one pattern.
pub fn train_window_filter(
    pattern: &Pattern,
    stream: &EventStream,
    cfg: &TrainConfig,
) -> WindowNetTraining {
    let prepared = prepare(std::slice::from_ref(pattern), stream, cfg).expect("pattern compiles");
    let train = &prepared.train;
    let mut net = WindowNetwork::new(network_config(cfg, prepared.embedder.dim(), cfg.seed));
    let report = run_epochs(cfg, train.len(), cfg.seed, |idx, opt| {
        let batch: Vec<(&[Vec<f32>], bool)> = idx
            .iter()
            .map(|&i| (train[i].0.as_slice(), train[i].2))
            .collect();
        net.train_batch(&batch, opt, cfg.grad_clip)
    });
    let mut test = Confusion::new();
    for (w, _, label) in &prepared.test {
        test.record(net.applicable(w), *label);
    }
    WindowNetTraining {
        filter: WindowNetFilter {
            network: net,
            embedder: prepared.embedder,
        },
        report,
        test,
        dropped_short: prepared.dropped_short,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare;
    use crate::persist::encode_event_filter;
    use crate::pipeline::Dlacep;
    use dlacep_cep::{Match, PatternExpr};
    use dlacep_data::label::ground_truth_matches;
    use dlacep_events::{TypeId, WindowSpec};
    use rand::Rng;
    use std::collections::BTreeSet;

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);

    /// SEQ(A, B) within W=4 over a 6-type stream: type membership is all the
    /// network needs to learn, so a tiny model converges fast.
    fn pattern() -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(A), "a"),
                PatternExpr::event(TypeSet::single(B), "b"),
            ]),
            vec![],
            WindowSpec::Count(4),
        )
    }

    fn stream(n: usize, seed: u64) -> EventStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = EventStream::new();
        for i in 0..n {
            let t = rng.gen_range(0..6u32);
            s.push(TypeId(t), i as u64, vec![rng.gen_range(-1.0..1.0)]);
        }
        s
    }

    #[test]
    fn event_filter_learns_and_filters() {
        let p = pattern();
        let train_stream = stream(1600, 1);
        let out = train_event_filter(&p, &train_stream, &TrainConfig::quick());
        assert!(out.report.epochs_run > 0);
        assert!(
            out.report.epoch_losses.last().unwrap() < &out.report.epoch_losses[0],
            "loss should decrease: {:?}",
            out.report.epoch_losses
        );
        assert!(out.test.f1() > 0.6, "test F1 {}", out.test.f1());

        // End-to-end: high recall, decent filtering, no false positives.
        let test_stream = stream(800, 2);
        let dl = Dlacep::new(p.clone(), out.filter).unwrap();
        let r = compare(&p, test_stream.events(), &dl);
        assert!(r.ecep_matches > 0);
        assert!(r.recall > 0.6, "recall {}", r.recall);
        assert_eq!(r.precision, 1.0, "id constraint forbids false positives");
        assert!(
            r.filtering_ratio > 0.2,
            "filtering ratio {}",
            r.filtering_ratio
        );
    }

    #[test]
    fn window_filter_learns() {
        let p = pattern();
        let train_stream = stream(1600, 3);
        let out = train_window_filter(&p, &train_stream, &TrainConfig::quick());
        assert!(
            out.test.accuracy() > 0.6,
            "accuracy {}",
            out.test.accuracy()
        );
    }

    #[test]
    fn data_fraction_shrinks_training_set() {
        let p = pattern();
        let s = stream(800, 4);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 1;
        cfg.data_fraction = 0.25;
        // Just verifies the path runs; effect on quality is an experiment
        // (Fig. 11), not a unit test.
        let out = train_event_filter(&p, &s, &cfg);
        assert_eq!(out.report.epochs_run, 1);
    }

    fn seq2(a: u32, b: u32) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(TypeId(a)), "x"),
                PatternExpr::event(TypeSet::single(TypeId(b)), "y"),
            ]),
            vec![],
            WindowSpec::Count(6),
        )
    }

    fn multi_stream(n: usize, seed: u64) -> EventStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = EventStream::new();
        for i in 0..n {
            s.push(
                TypeId(rng.gen_range(0..6u32)),
                i as u64,
                vec![rng.gen_range(0.0..1.0)],
            );
        }
        s
    }

    #[test]
    fn one_network_serves_two_patterns() {
        let p1 = seq2(0, 1);
        let p2 = seq2(2, 3);
        let history = multi_stream(2_400, 1);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 14;
        let trained = train_multi_pattern(&[p1.clone(), p2.clone()], &history, &cfg).unwrap();
        assert!(trained.report.epochs_run > 0);

        let live = multi_stream(1_200, 2);
        let set = PatternSet::new(vec![p1.clone(), p2.clone()]).unwrap();
        let report = Dlacep::multi(set, trained.filter)
            .build()
            .unwrap()
            .run(live.events());
        assert_eq!(report.per_pattern.len(), 2);
        let t1 = ground_truth_matches(&p1, live.events());
        let t2 = ground_truth_matches(&p2, live.events());
        assert!(!t1.is_empty() && !t2.is_empty());
        let recall = |found: &Vec<Match>, truth: &Vec<Match>| {
            let tk: BTreeSet<_> = truth.iter().map(|m| m.event_ids.clone()).collect();
            let c = found.iter().filter(|m| tk.contains(&m.event_ids)).count();
            c as f64 / truth.len() as f64
        };
        assert!(recall(&report.per_pattern[0], &t1) > 0.4, "p1 recall");
        assert!(recall(&report.per_pattern[1], &t2) > 0.4, "p2 recall");
        // No false positives per pattern (id-distance constraint).
        for (found, truth) in report.per_pattern.iter().zip([&t1, &t2]) {
            let tk: BTreeSet<_> = truth.iter().map(|m| m.event_ids.clone()).collect();
            for m in found {
                assert!(tk.contains(&m.event_ids));
            }
        }
    }

    #[test]
    fn mismatched_windows_rejected() {
        let p1 = seq2(0, 1);
        let mut p2 = seq2(2, 3);
        p2.window = WindowSpec::Count(9);
        let err = train_multi_pattern(&[p1, p2], &multi_stream(200, 0), &TrainConfig::quick())
            .err()
            .expect("mixed windows must be rejected");
        assert!(matches!(
            err,
            DlacepError::Pattern(dlacep_cep::PatternError::WindowMismatch { .. })
        ));
    }

    #[test]
    fn empty_pattern_set_rejected() {
        let err = train_multi_pattern(&[], &multi_stream(100, 0), &TrainConfig::quick())
            .err()
            .expect("empty set must be rejected");
        assert!(matches!(
            err,
            DlacepError::Pattern(dlacep_cep::PatternError::EmptySet)
        ));
    }

    #[test]
    fn one_pattern_set_trains_like_the_single_pattern_entry() {
        let p = pattern();
        let s = stream(1200, 5);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 6;
        cfg.data_fraction = 0.5;
        let single = train_event_filter(&p, &s, &cfg);
        let multi = train_multi_pattern(std::slice::from_ref(&p), &s, &cfg).unwrap();
        assert_eq!(single.report.epoch_losses, multi.report.epoch_losses);
        assert_eq!(
            encode_event_filter(&single.filter).unwrap(),
            encode_event_filter(&multi.filter).unwrap()
        );
    }

    #[test]
    fn data_fraction_changes_multi_pattern_training() {
        let patterns = [seq2(0, 1), seq2(2, 3)];
        let history = multi_stream(1_200, 3);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 3;
        let full = train_multi_pattern(&patterns, &history, &cfg).unwrap();
        cfg.data_fraction = 0.25;
        let quarter = train_multi_pattern(&patterns, &history, &cfg).unwrap();
        assert_ne!(full.report.epoch_losses, quarter.report.epoch_losses);
        assert_ne!(
            encode_event_filter(&full.filter).unwrap(),
            encode_event_filter(&quarter.filter).unwrap()
        );
    }
}
