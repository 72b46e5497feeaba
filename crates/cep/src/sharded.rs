//! Deterministic sharded engine execution on a `dlacep-par` pool.
//!
//! The input stream is split into contiguous shards of roughly
//! `target_shard_events` events each. Every shard owns the matches whose
//! **last** (max-id) event falls inside its owned range. Because every
//! engine enforces the window on a match's full id span, all events of a
//! match lie within one window of its max-id event — so each shard's input
//! is its owned range plus the overlap prefix of earlier events still
//! within the window of the first owned event. Each match has exactly one
//! max-id event, which makes the owned ranges an exact partition of the
//! serial match set: no duplicates, no gaps.
//!
//! Determinism contract: the shard layout is a pure function of the
//! `(window, events, target_shard_events)` triple — never of the thread
//! count — and per-shard results are reduced in shard-index order, so the
//! merged matches and stats are identical for any pool size. Since events
//! carry strictly increasing ids and shards are concatenated in stream
//! order, the merged match order also equals the serial emission order.
//!
//! Merged stats are exact sums of per-shard work (peak takes the max).
//! They intentionally describe the *sharded* execution: overlap events are
//! processed once per shard that reads them, so `events_processed` and
//! partial-match counters can exceed the single-engine run. Partial-match
//! budgets (`NfaConfig::max_partials` etc.) apply per shard.

use crate::engine::{CepEngine, EngineStats, Match};
use dlacep_events::{PrimitiveEvent, WindowSpec};
use dlacep_obs::{Histogram, Tracer};
use dlacep_par::ThreadPool;
use std::time::Instant;

/// One shard of a sharded run: input is `events[input_start..end]`, and the
/// shard owns matches ending at `events[owned_start..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First input event (owned range plus window-overlap prefix).
    pub input_start: usize,
    /// First owned event.
    pub owned_start: usize,
    /// One past the last owned (and input) event.
    pub end: usize,
}

/// Split `events` into contiguous shards of about `target_shard_events`
/// owned events each, extending each shard's input backwards to cover the
/// window overlap. Depends only on the arguments, never on thread count.
pub fn shard_layout(
    window: WindowSpec,
    events: &[PrimitiveEvent],
    target_shard_events: usize,
) -> Vec<Shard> {
    let n = events.len();
    if n == 0 {
        return Vec::new();
    }
    let target = target_shard_events.max(1);
    let mut shards = Vec::with_capacity(n.div_ceil(target));
    let mut owned_start = 0;
    while owned_start < n {
        let end = (owned_start + target).min(n);
        let mut input_start = owned_start;
        while input_start > 0 && window.within(&events[input_start - 1], &events[owned_start]) {
            input_start -= 1;
        }
        shards.push(Shard {
            input_start,
            owned_start,
            end,
        });
        owned_start = end;
    }
    shards
}

/// Run `make()`-built engines over `events` sharded on `pool`, returning
/// the exact serial match set (in serial emission order) and deterministic
/// merged stats. Falls back to a single serial engine when the layout
/// produces at most one shard.
///
/// Each shard's engine run is recorded into `shard_nanos` (one sample per
/// shard, including the single-shard fallback). When `tracer` is enabled,
/// each sample carries the trace id of the first sampled event in the
/// shard's owned range, linking the aggregate back to a concrete trace.
/// Pass [`Histogram::disabled`] and [`Tracer::disabled`] to skip either.
pub fn run_sharded<E, M>(
    make: M,
    window: WindowSpec,
    events: &[PrimitiveEvent],
    target_shard_events: usize,
    pool: &ThreadPool,
    shard_nanos: &Histogram,
    tracer: &Tracer,
) -> (Vec<Match>, EngineStats)
where
    E: CepEngine,
    M: Fn() -> E + Sync,
{
    let exemplar = |evs: &[PrimitiveEvent]| -> Option<u64> {
        if !tracer.is_enabled() {
            return None;
        }
        evs.iter()
            .find(|ev| tracer.sampled(ev.id.0))
            .map(|ev| ev.id.0)
    };
    let shards = shard_layout(window, events, target_shard_events);
    if shards.len() <= 1 {
        let t0 = shard_nanos.is_enabled().then(Instant::now);
        let mut engine = make();
        let matches = engine.run(events);
        if let Some(t0) = t0 {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard_nanos.record_traced(nanos, exemplar(events));
        }
        return (matches, *engine.stats());
    }
    let per_shard: Vec<(Vec<Match>, EngineStats)> = pool.parallel_map(&shards, 1, |_, shard| {
        let mut engine = make();
        let t0 = shard_nanos.is_enabled().then(Instant::now);
        let all = engine.run(&events[shard.input_start..shard.end]);
        if let Some(t0) = t0 {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard_nanos.record_traced(nanos, exemplar(&events[shard.owned_start..shard.end]));
        }
        let lo = events[shard.owned_start].id;
        // Keep only matches this shard owns: ids are sorted, so the last
        // one is the match's max-id event.
        let kept: Vec<Match> = all
            .into_iter()
            .filter(|m| m.key().last().is_some_and(|&id| id >= lo))
            .collect();
        (kept, *engine.stats())
    });
    // Index-ordered reduce: shard order is stream order, which keeps both
    // the match sequence and the stats fold deterministic.
    let mut matches = Vec::new();
    let mut stats = EngineStats::default();
    for (shard_matches, shard_stats) in per_shard {
        stats.merge(&shard_stats);
        matches.extend(shard_matches);
    }
    // Report the kept-match count, not the sum of per-shard emissions
    // (overlap regions re-emit matches the owning shard already counted).
    stats.matches_emitted = matches.len() as u64;
    (matches, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{NfaConfig, NfaEngine};
    use crate::pattern::ast::{Pattern, PatternExpr, TypeSet};
    use dlacep_events::TypeId;

    fn stream(types: &[u32]) -> Vec<PrimitiveEvent> {
        types
            .iter()
            .enumerate()
            .map(|(i, &t)| PrimitiveEvent::new(i as u64, TypeId(t), i as u64, vec![i as f64]))
            .collect()
    }

    fn seq2(t1: u32, t2: u32, w: u64) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(TypeId(t1)), "a"),
                PatternExpr::event(TypeSet::single(TypeId(t2)), "b"),
            ]),
            vec![],
            WindowSpec::Count(w),
        )
    }

    #[test]
    fn layout_partitions_owned_ranges_exactly() {
        let events = stream(&[1, 2, 1, 2, 1, 2, 1, 2, 1, 2]);
        let shards = shard_layout(WindowSpec::Count(3), &events, 4);
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards[0],
            Shard {
                input_start: 0,
                owned_start: 0,
                end: 4
            }
        );
        // Overlap prefix: ids within distance 2 of the first owned event.
        assert_eq!(
            shards[1],
            Shard {
                input_start: 2,
                owned_start: 4,
                end: 8
            }
        );
        assert_eq!(
            shards[2],
            Shard {
                input_start: 6,
                owned_start: 8,
                end: 10
            }
        );
        // Owned ranges tile [0, n) with no gaps or overlap.
        assert_eq!(shards[0].end, shards[1].owned_start);
        assert_eq!(shards[1].end, shards[2].owned_start);
        assert_eq!(shards.last().unwrap().end, events.len());
    }

    #[test]
    fn empty_stream_yields_no_shards() {
        assert!(shard_layout(WindowSpec::Count(4), &[], 8).is_empty());
    }

    #[test]
    fn sharded_matches_equal_serial_in_order() {
        let pattern = seq2(1, 2, 4);
        let types: Vec<u32> = (0..60).map(|i| if i % 3 == 0 { 1 } else { 2 }).collect();
        let events = stream(&types);
        let mut serial = NfaEngine::new(&pattern).unwrap();
        let serial_matches = serial.run(&events);
        assert!(!serial_matches.is_empty());

        let pool = ThreadPool::new(3);
        for target in [5, 8, 64] {
            let (matches, stats) = run_sharded(
                || NfaEngine::new(&pattern).unwrap(),
                pattern.window,
                &events,
                target,
                &pool,
                &Histogram::disabled(),
                &Tracer::disabled(),
            );
            assert_eq!(matches, serial_matches, "target_shard_events={target}");
            assert_eq!(stats.matches_emitted, serial_matches.len() as u64);
        }
    }

    #[test]
    fn sharded_respects_per_shard_budget_deterministically() {
        let pattern = seq2(1, 1, 8);
        let events = stream(&[1u32; 48]);
        let config = NfaConfig {
            max_partials: Some(3),
            ..NfaConfig::default()
        };
        let pool = ThreadPool::new(4);
        let make = || NfaEngine::from_plan(crate::plan::Plan::compile(&pattern).unwrap(), config);
        let (hist, tracer) = (Histogram::disabled(), Tracer::disabled());
        let (m1, s1) = run_sharded(make, pattern.window, &events, 12, &pool, &hist, &tracer);
        let (m2, s2) = run_sharded(make, pattern.window, &events, 12, &pool, &hist, &tracer);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        assert!(s1.partials_shed > 0, "budget should shed in every shard");
    }
}
