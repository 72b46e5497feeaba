//! The NFA-style partial-match engine — the paper's ECEP baseline mechanism
//! (§2.1, Fig. 2) under the skip-till-any-match selection strategy.
//!
//! Every stored partial match represents one prefix/assignment of the
//! pattern; a new event may extend any of them (and each extension *keeps*
//! the original, which is what makes skip-till-any-match worst-case
//! exponential in the window size — the effect DLACEP exploits, §3.2).

use crate::engine::{CepEngine, EngineStats, EventArena, Match};
use crate::pattern::ast::Pattern;
use crate::plan::{Branch, CompileError, NegGroup, Plan, Slot, StepKind};
use crate::state::{KleeneSnapshot, NfaEngineState, PartialSnapshot, StateError};
use dlacep_events::{EventId, PrimitiveEvent, WindowSpec};

/// State of one Kleene step inside a partial match.
#[derive(Debug, Clone, Default)]
struct KleeneState {
    /// Completed iterations (event ids per inner element).
    iterations: Vec<Vec<EventId>>,
    /// Events of the iteration currently being assembled.
    in_progress: Vec<EventId>,
}

/// One stored partial match.
#[derive(Debug, Clone)]
struct PartialMatch {
    /// Bound event per single step (`None` for Kleene steps / unbound).
    single: Vec<Option<EventId>>,
    /// Kleene state per Kleene ordinal.
    kleene: Vec<KleeneState>,
    /// Steps considered bound (Kleene: at least one complete iteration).
    bound: u64,
    min_id: u64,
    max_id: u64,
    min_ts: u64,
}

impl PartialMatch {
    fn empty(num_steps: usize, num_kleene: usize) -> Self {
        Self {
            single: vec![None; num_steps],
            kleene: vec![KleeneState::default(); num_kleene],
            bound: 0,
            min_id: u64::MAX,
            max_id: 0,
            min_ts: u64::MAX,
        }
    }

    fn is_blank(&self) -> bool {
        self.min_id == u64::MAX
    }

    fn note_event(&mut self, ev: &PrimitiveEvent) {
        self.min_id = self.min_id.min(ev.id.0);
        self.max_id = self.max_id.max(ev.id.0);
        self.min_ts = self.min_ts.min(ev.ts.0);
    }
}

struct BranchRuntime {
    branch: Branch,
    /// Binding names of emitted matches ([`Branch::emission_bindings`]).
    names: Vec<String>,
    /// Step index → Kleene ordinal.
    kleene_ord: Vec<Option<usize>>,
    succ_masks: Vec<u64>,
    full_mask: u64,
    partials: Vec<PartialMatch>,
}

impl BranchRuntime {
    fn new(branch: Branch) -> Self {
        let mut kleene_ord = vec![None; branch.steps.len()];
        for (ord, s) in branch.kleene_steps().into_iter().enumerate() {
            kleene_ord[s] = Some(ord);
        }
        let succ_masks = (0..branch.steps.len())
            .map(|s| branch.successor_mask(s))
            .collect();
        let full_mask = branch.full_mask();
        Self {
            names: branch.emission_bindings(),
            branch,
            kleene_ord,
            succ_masks,
            full_mask,
            partials: Vec::new(),
        }
    }

    fn num_kleene(&self) -> usize {
        self.kleene_ord.iter().flatten().count() // ordinals are dense
    }
}

/// Configuration knobs of the NFA engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NfaConfig {
    /// Upper bound on completed iterations per Kleene closure per partial
    /// match (`None` = window-bounded only). A safety valve for experiments.
    pub max_kleene_iters: Option<usize>,
    /// Budget on simultaneously stored partial matches across all branches
    /// (`None` = unbounded). When an event pushes the store past the budget,
    /// the oldest partials (smallest `min_id` — the ones closest to expiring
    /// out of the window anyway) are shed and counted in
    /// [`EngineStats::partials_shed`]. Shedding can only lose matches, never
    /// invent them, so budgeted output stays a subset of exact output.
    pub max_partials: Option<usize>,
}

/// NFA-style skip-till-any-match evaluation engine.
pub struct NfaEngine {
    window: WindowSpec,
    branches: Vec<BranchRuntime>,
    arena: EventArena,
    out: Vec<Match>,
    stats: EngineStats,
    config: NfaConfig,
}

impl NfaEngine {
    /// Compile and instantiate for a pattern.
    pub fn new(pattern: &Pattern) -> Result<Self, CompileError> {
        Self::with_config(pattern, NfaConfig::default())
    }

    /// Instantiate with explicit configuration.
    pub fn with_config(pattern: &Pattern, config: NfaConfig) -> Result<Self, CompileError> {
        let plan = Plan::compile(pattern)?;
        Ok(Self::from_plan(plan, config))
    }

    /// Instantiate from an already-compiled plan.
    pub fn from_plan(plan: Plan, config: NfaConfig) -> Self {
        let branches = plan.branches.into_iter().map(BranchRuntime::new).collect();
        Self {
            window: plan.window,
            branches,
            arena: EventArena::new(),
            out: Vec::new(),
            stats: EngineStats::default(),
            config,
        }
    }

    /// Currently stored partial matches across branches.
    pub fn stored_partials(&self) -> usize {
        self.branches.iter().map(|b| b.partials.len()).sum()
    }

    /// Capture the full mutable state for checkpointing (see [`crate::state`]).
    pub fn export_state(&self) -> NfaEngineState {
        NfaEngineState {
            arena: self.arena.snapshot(),
            pending: self.out.clone(),
            stats: self.stats,
            branches: self
                .branches
                .iter()
                .map(|rt| {
                    rt.partials
                        .iter()
                        .map(|pm| PartialSnapshot {
                            single: pm.single.clone(),
                            kleene: pm
                                .kleene
                                .iter()
                                .map(|k| KleeneSnapshot {
                                    iterations: k.iterations.clone(),
                                    in_progress: k.in_progress.clone(),
                                })
                                .collect(),
                            bound: pm.bound,
                            min_id: pm.min_id,
                            max_id: pm.max_id,
                            min_ts: pm.min_ts,
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Replace the engine's mutable state with a previously exported snapshot.
    ///
    /// The engine must be compiled from the same pattern as the exporter:
    /// branch, step and Kleene counts and the bound mask are validated, and a
    /// mismatch leaves the engine untouched.
    pub fn import_state(&mut self, state: NfaEngineState) -> Result<(), StateError> {
        if state.branches.len() != self.branches.len() {
            return Err(StateError(format!(
                "snapshot has {} branches, engine has {}",
                state.branches.len(),
                self.branches.len()
            )));
        }
        let mut restored: Vec<Vec<PartialMatch>> = Vec::with_capacity(state.branches.len());
        for (bi, (rt, partials)) in self.branches.iter().zip(&state.branches).enumerate() {
            let num_steps = rt.branch.steps.len();
            let num_kleene = rt.num_kleene();
            let mut branch_partials = Vec::with_capacity(partials.len());
            for pm in partials {
                if pm.single.len() != num_steps {
                    return Err(StateError(format!(
                        "branch {bi}: partial binds {} steps, branch has {num_steps}",
                        pm.single.len()
                    )));
                }
                if pm.kleene.len() != num_kleene {
                    return Err(StateError(format!(
                        "branch {bi}: partial has {} Kleene states, branch has {num_kleene}",
                        pm.kleene.len()
                    )));
                }
                if pm.bound & !rt.full_mask != 0 {
                    return Err(StateError(format!(
                        "branch {bi}: bound mask {:#x} exceeds branch mask {:#x}",
                        pm.bound, rt.full_mask
                    )));
                }
                branch_partials.push(PartialMatch {
                    single: pm.single.clone(),
                    kleene: pm
                        .kleene
                        .iter()
                        .map(|k| KleeneState {
                            iterations: k.iterations.clone(),
                            in_progress: k.in_progress.clone(),
                        })
                        .collect(),
                    bound: pm.bound,
                    min_id: pm.min_id,
                    max_id: pm.max_id,
                    min_ts: pm.min_ts,
                });
            }
            restored.push(branch_partials);
        }
        self.arena = EventArena::restore(state.arena);
        self.out = state.pending;
        self.stats = state.stats;
        for (rt, partials) in self.branches.iter_mut().zip(restored) {
            rt.partials = partials;
        }
        Ok(())
    }

    /// Enforce the partial-match budget: shed the oldest partials (smallest
    /// `min_id`) until at most `budget` remain across all branches.
    fn shed_to_budget(branches: &mut [BranchRuntime], stats: &mut EngineStats, budget: usize) {
        let stored: usize = branches.iter().map(|b| b.partials.len()).sum();
        if stored <= budget {
            return;
        }
        let excess = stored - budget;
        let mut ages: Vec<(u64, usize)> = Vec::with_capacity(stored);
        for (bi, rt) in branches.iter().enumerate() {
            for pm in &rt.partials {
                ages.push((pm.min_id, bi));
            }
        }
        ages.sort_unstable();
        let mut shed_per_branch = vec![0usize; branches.len()];
        for &(_, bi) in ages.iter().take(excess) {
            shed_per_branch[bi] += 1;
        }
        for (rt, &k) in branches.iter_mut().zip(&shed_per_branch) {
            if k > 0 {
                // Stable sort keeps insertion order among equal-age partials.
                rt.partials.sort_by_key(|pm| pm.min_id);
                rt.partials.drain(..k);
            }
        }
        stats.partials_shed += excess as u64;
    }

    fn expired(window: WindowSpec, pm: &PartialMatch, ev: &PrimitiveEvent) -> bool {
        if pm.is_blank() {
            return false;
        }
        match window {
            WindowSpec::Count(w) => ev.id.0 - pm.min_id >= w,
            WindowSpec::Time(w) => ev.ts.0 - pm.min_ts > w,
        }
    }
}

/// Attribute lookup for predicate evaluation: reads a slot's event from the
/// partial match through the arena, with optional Kleene-iteration and
/// negation-candidate overlays.
struct Lookup<'a> {
    pm: &'a PartialMatch,
    arena: &'a EventArena,
    /// Iteration overlay: `(kleene step, ids per inner elem)`.
    iteration: Option<(usize, &'a [EventId])>,
    /// Negation overlay: `(neg index, candidate ids per inner elem)`.
    neg: Option<(usize, &'a [Option<EventId>])>,
}

impl<'a> Lookup<'a> {
    fn get(&self, slot: Slot, attr: usize) -> Option<f64> {
        let id = match slot {
            Slot::Step(s) => self.pm.single[s]?,
            Slot::KleeneElem { step, elem } => {
                let (it_step, ids) = self.iteration?;
                if it_step != step {
                    return None;
                }
                *ids.get(elem)?
            }
            Slot::NegElem { neg, elem } => {
                let (n, ids) = self.neg?;
                if n != neg {
                    return None;
                }
                (*ids.get(elem)?)?
            }
        };
        self.arena.get(id)?.attr(attr)
    }
}

impl NfaEngine {
    /// Evaluate eager conditions triggered by newly bound step `s`; `true`
    /// when none fail (undecidable conditions pass for now).
    fn eager_conds_ok(
        stats: &mut EngineStats,
        rt: &BranchRuntime,
        arena: &EventArena,
        pm: &PartialMatch,
        s: usize,
    ) -> bool {
        for cond in &rt.branch.global_conds {
            let mask = cond.step_mask;
            if mask & (1 << s) == 0 {
                continue;
            }
            if mask & pm.bound != mask {
                continue;
            }
            stats.condition_evaluations += 1;
            let lk = Lookup {
                pm,
                arena,
                iteration: None,
                neg: None,
            };
            if cond.pred.eval(|slot, a| lk.get(slot, a)) == Some(false) {
                return false;
            }
        }
        true
    }

    /// Check a completed partial match: deferred Kleene conditions and
    /// negation gaps; emit on success.
    fn try_emit(
        window: WindowSpec,
        stats: &mut EngineStats,
        out: &mut Vec<Match>,
        rt: &BranchRuntime,
        arena: &EventArena,
        pm: &PartialMatch,
    ) {
        if pm.bound != rt.full_mask {
            return;
        }
        if pm.kleene.iter().any(|k| !k.in_progress.is_empty()) {
            return;
        }
        // Deferred Kleene conditions: ∀ iterations.
        for (step, pred) in &rt.branch.deferred_conds {
            let ord = rt.kleene_ord[*step].expect("deferred cond targets kleene");
            for iter in &pm.kleene[ord].iterations {
                stats.condition_evaluations += 1;
                let lk = Lookup {
                    pm,
                    arena,
                    iteration: Some((*step, iter)),
                    neg: None,
                };
                if pred.eval(|slot, a| lk.get(slot, a)) != Some(true) {
                    return;
                }
            }
        }
        // Negation gaps.
        for (n, neg) in rt.branch.negs.iter().enumerate() {
            if Self::neg_occurs(window, stats, rt, arena, pm, n, neg) {
                return;
            }
        }
        out.push(Self::build_match(rt, pm));
        stats.matches_emitted += 1;
    }

    fn step_bounds(rt: &BranchRuntime, pm: &PartialMatch, s: usize) -> (u64, u64) {
        match rt.kleene_ord[s] {
            None => {
                let id = pm.single[s].expect("bound step").0;
                (id, id)
            }
            Some(ord) => {
                let ks = &pm.kleene[ord];
                let mut lo = u64::MAX;
                let mut hi = 0;
                for iter in &ks.iterations {
                    for id in iter {
                        lo = lo.min(id.0);
                        hi = hi.max(id.0);
                    }
                }
                (lo, hi)
            }
        }
    }

    /// Does a forbidden occurrence of `neg.inner` exist in the gap?
    fn neg_occurs(
        window: WindowSpec,
        stats: &mut EngineStats,
        rt: &BranchRuntime,
        arena: &EventArena,
        pm: &PartialMatch,
        n: usize,
        neg: &NegGroup,
    ) -> bool {
        let hi = EventId(
            neg.before
                .iter()
                .map(|&s| Self::step_bounds(rt, pm, s).0)
                .min()
                .expect("neg.before is never empty"),
        );
        let candidates: Vec<&PrimitiveEvent> = if neg.after.is_empty() {
            // Leading NEG: the gap starts at the match's window start —
            // any event before `hi` that still shares a window with the
            // match counts (inclusive bound; ids start at 0).
            let max_ts = arena.get(EventId(pm.max_id)).map(|e| e.ts.0);
            let mut cands: Vec<&PrimitiveEvent> = arena
                .between(EventId(0), hi)
                .chain(arena.get(EventId(0)).filter(|e| e.id < hi))
                .filter(|e| match window {
                    WindowSpec::Count(w) => pm.max_id - e.id.0 <= w.saturating_sub(1),
                    WindowSpec::Time(w) => max_ts.is_none_or(|mt| mt.saturating_sub(e.ts.0) <= w),
                })
                .collect();
            // The id-0 event was appended out of order; the DFS needs the
            // candidates in arrival order for in-order subsequence search.
            cands.sort_by_key(|e| e.id);
            cands
        } else {
            let lo = EventId(
                neg.after
                    .iter()
                    .map(|&s| Self::step_bounds(rt, pm, s).1)
                    .max()
                    .expect("nonempty"),
            );
            if lo >= hi {
                return false;
            }
            arena.between(lo, hi).collect()
        };
        let mut assigned: Vec<Option<EventId>> = vec![None; neg.inner.len()];
        Self::neg_dfs(stats, arena, pm, n, neg, &candidates, 0, 0, &mut assigned)
    }

    /// Backtracking search for an in-order occurrence of the negated
    /// sequence among `candidates`, honoring the group's conditions.
    #[allow(clippy::too_many_arguments)]
    fn neg_dfs(
        stats: &mut EngineStats,
        arena: &EventArena,
        pm: &PartialMatch,
        n: usize,
        neg: &NegGroup,
        candidates: &[&PrimitiveEvent],
        elem: usize,
        from: usize,
        assigned: &mut Vec<Option<EventId>>,
    ) -> bool {
        if elem == neg.inner.len() {
            // Full occurrence assembled; conditions must all hold.
            for cond in &neg.conditions {
                stats.condition_evaluations += 1;
                let lk = Lookup {
                    pm,
                    arena,
                    iteration: None,
                    neg: Some((n, assigned)),
                };
                if cond.eval(|slot, a| lk.get(slot, a)) != Some(true) {
                    return false;
                }
            }
            return true;
        }
        for (i, cand) in candidates.iter().enumerate().skip(from) {
            if !neg.inner[elem].types.contains(cand.type_id) {
                continue;
            }
            assigned[elem] = Some(cand.id);
            if Self::neg_dfs(
                stats,
                arena,
                pm,
                n,
                neg,
                candidates,
                elem + 1,
                i + 1,
                assigned,
            ) {
                return true;
            }
            assigned[elem] = None;
        }
        false
    }

    fn build_match(rt: &BranchRuntime, pm: &PartialMatch) -> Match {
        let mut ids = Vec::with_capacity(rt.names.len());
        for (s, step) in rt.branch.steps.iter().enumerate() {
            match (&step.kind, rt.kleene_ord[s]) {
                (StepKind::Kleene { inner, .. }, Some(ord)) => {
                    let iterations = &pm.kleene[ord].iterations;
                    ids.extend(
                        (0..inner.len()).map(|j| iterations.iter().map(|it| it[j]).collect()),
                    );
                }
                _ => ids.push(vec![pm.single[s].expect("bound")]),
            }
        }
        Match::from_bindings(rt.names.iter().cloned().zip(ids).collect())
    }
}

impl CepEngine for NfaEngine {
    fn process(&mut self, ev: &PrimitiveEvent) {
        self.stats.events_processed += 1;
        self.arena.push(ev.clone());
        match self.window {
            WindowSpec::Count(w) => {
                self.arena
                    .evict_below(EventId((ev.id.0 + 1).saturating_sub(w)));
            }
            WindowSpec::Time(w) => {
                self.arena.evict_before_ts(ev.ts.0.saturating_sub(w));
            }
        }
        let window = self.window;
        let config = self.config;
        let arena = &self.arena;
        let stats = &mut self.stats;
        let out = &mut self.out;
        for rt in &mut self.branches {
            rt.partials.retain(|pm| !NfaEngine::expired(window, pm, ev));

            let num_steps = rt.branch.steps.len();
            let num_kleene = rt.num_kleene();
            let mut created: Vec<PartialMatch> = Vec::new();

            // The blank match participates so first steps can seed partials.
            let blank = PartialMatch::empty(num_steps, num_kleene);
            let candidates = rt.partials.iter().chain(std::iter::once(&blank));

            for pm in candidates {
                // Window admission (blank always admits).
                let admits = if pm.is_blank() {
                    true
                } else {
                    match window {
                        WindowSpec::Count(w) => ev.id.0 - pm.min_id <= w.saturating_sub(1),
                        WindowSpec::Time(w) => ev.ts.0 - pm.min_ts <= w,
                    }
                };
                if !admits {
                    continue;
                }
                for s in 0..num_steps {
                    let step = &rt.branch.steps[s];
                    if step.preds & pm.bound != step.preds {
                        continue;
                    }
                    match &step.kind {
                        StepKind::Single { types, .. } => {
                            if pm.bound & (1 << s) != 0 || !types.contains(ev.type_id) {
                                continue;
                            }
                            let mut next = pm.clone();
                            next.single[s] = Some(ev.id);
                            next.bound |= 1 << s;
                            next.note_event(ev);
                            if !NfaEngine::eager_conds_ok(stats, rt, arena, &next, s) {
                                continue;
                            }
                            stats.partial_matches_created += 1;
                            NfaEngine::try_emit(window, stats, out, rt, arena, &next);
                            created.push(next);
                        }
                        StepKind::Kleene {
                            inner,
                            iter_conditions,
                        } => {
                            // A Kleene may not absorb once a successor bound.
                            if pm.bound & rt.succ_masks[s] != 0 {
                                continue;
                            }
                            let ord = rt.kleene_ord[s].expect("kleene ordinal");
                            let ks = &pm.kleene[ord];
                            if let Some(cap) = config.max_kleene_iters {
                                if ks.iterations.len() >= cap && ks.in_progress.is_empty() {
                                    continue;
                                }
                            }
                            let pos = ks.in_progress.len();
                            if !inner[pos].types.contains(ev.type_id) {
                                continue;
                            }
                            let mut next = pm.clone();
                            next.kleene[ord].in_progress.push(ev.id);
                            next.note_event(ev);
                            if pos + 1 == inner.len() {
                                // Iteration complete: early condition filter.
                                let iter = std::mem::take(&mut next.kleene[ord].in_progress);
                                let mut ok = true;
                                for cond in iter_conditions {
                                    stats.condition_evaluations += 1;
                                    let lk = Lookup {
                                        pm: &next,
                                        arena,
                                        iteration: Some((s, &iter)),
                                        neg: None,
                                    };
                                    if cond.eval(|slot, a| lk.get(slot, a)) == Some(false) {
                                        ok = false;
                                        break;
                                    }
                                }
                                if !ok {
                                    continue;
                                }
                                next.kleene[ord].iterations.push(iter);
                                next.bound |= 1 << s;
                                stats.partial_matches_created += 1;
                                NfaEngine::try_emit(window, stats, out, rt, arena, &next);
                                created.push(next);
                            } else {
                                stats.partial_matches_created += 1;
                                created.push(next);
                            }
                        }
                    }
                }
            }
            rt.partials.append(&mut created);
        }
        if let Some(budget) = config.max_partials {
            Self::shed_to_budget(&mut self.branches, stats, budget);
        }
        let stored: u64 = self.branches.iter().map(|b| b.partials.len() as u64).sum();
        stats.peak_partial_matches = stats.peak_partial_matches.max(stored);
    }

    fn drain_matches(&mut self) -> Vec<Match> {
        std::mem::take(&mut self.out)
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ast::{PatternExpr, TypeSet};
    use crate::pattern::condition::{Expr, Predicate};
    use dlacep_events::{EventStream, TypeId};

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);
    const D: TypeId = TypeId(3);

    fn leaf(t: TypeId, b: &str) -> PatternExpr {
        PatternExpr::event(TypeSet::single(t), b)
    }

    fn stream(types: &[TypeId]) -> EventStream {
        let mut s = EventStream::new();
        for (i, &t) in types.iter().enumerate() {
            s.push(t, i as u64, vec![i as f64]);
        }
        s
    }

    fn stream_attr(data: &[(TypeId, f64)]) -> EventStream {
        let mut s = EventStream::new();
        for (i, (t, v)) in data.iter().enumerate() {
            s.push(*t, i as u64, vec![*v]);
        }
        s
    }

    fn run(pattern: &Pattern, s: &EventStream) -> Vec<Match> {
        let mut e = NfaEngine::new(pattern).unwrap();
        e.run(s.events())
    }

    #[test]
    fn seq_counts_all_combinations() {
        // A A B B C: SEQ(A,B,C) -> 2*2*1 = 4 matches (skip-till-any-match).
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, A, B, B, C]));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn seq_respects_order() {
        // B before A: no match.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(10),
        );
        assert!(run(&p, &stream(&[B, A])).is_empty());
        assert_eq!(run(&p, &stream(&[A, B])).len(), 1);
    }

    #[test]
    fn count_window_excludes_distant_pairs() {
        // A . . . B with W=3: id distance 4 > W-1 -> no match.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(3),
        );
        assert!(run(&p, &stream(&[A, C, C, C, B])).is_empty());
        assert_eq!(run(&p, &stream(&[A, C, B])).len(), 1);
    }

    #[test]
    fn time_window_uses_timestamps() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Time(5),
        );
        let mut s = EventStream::new();
        s.push(A, 0, vec![0.0]);
        s.push(B, 4, vec![0.0]); // within 5 time units
        s.push(B, 10, vec![0.0]); // outside
        assert_eq!(run(&p, &s).len(), 1);
    }

    #[test]
    fn conditions_filter_matches() {
        // Example (1) of the paper: C's price above both A's and B's.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![
                Predicate::gt(Expr::attr("c", 0), Expr::attr("a", 0)),
                Predicate::gt(Expr::attr("c", 0), Expr::attr("b", 0)),
            ],
            WindowSpec::Count(10),
        );
        let s = stream_attr(&[(A, 5.0), (B, 3.0), (C, 6.0), (C, 4.0)]);
        let got = run(&p, &s);
        assert_eq!(got.len(), 1); // only the C with price 6 qualifies
        assert_eq!(got[0].binding("c"), Some(&[EventId(2)][..]));
    }

    #[test]
    fn conj_matches_any_order() {
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(10),
        );
        assert_eq!(run(&p, &stream(&[B, A])).len(), 1);
        assert_eq!(run(&p, &stream(&[A, B])).len(), 1);
    }

    #[test]
    fn disj_unions_branches() {
        let p = Pattern::new(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
                PatternExpr::Seq(vec![leaf(C, "c"), leaf(D, "d")]),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, C, B, D]));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn kleene_enumerates_nonempty_subsets() {
        // SEQ(A, KC(B), C) on A B B C: KC over {b1}, {b2}, {b1,b2} -> 3.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, B, B, C]));
        assert_eq!(got.len(), 3);
        let sizes: Vec<usize> = got.iter().map(|m| m.binding("k").unwrap().len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2]);
    }

    #[test]
    fn kleene_of_sequence_iterates() {
        // KC(SEQ(A,B)) on A B A B: iterations {a1b1}, {a2b2}, {a1b1,a2b2}, {a1b2}...
        // valid iteration = an (A,B) in-order pair; pairs: (a1,b1),(a1,b2),(a2,b2);
        // sets of non-overlapping-in-order iterations: each single pair (3),
        // plus {(a1,b1),(a2,b2)} -> 4 total.
        let p = Pattern::new(
            PatternExpr::Kleene(Box::new(PatternExpr::Seq(vec![leaf(A, "x"), leaf(B, "y")]))),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, B, A, B]));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn kleene_iteration_condition_prunes() {
        // SEQ(A, KC(B), C) WHERE k.v < a.v — only B events below A's value.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
                leaf(C, "c"),
            ]),
            vec![Predicate::lt(Expr::attr("k", 0), Expr::attr("a", 0))],
            WindowSpec::Count(10),
        );
        // a.v = 5; B values 3 (ok), 9 (fails)
        let s = stream_attr(&[(A, 5.0), (B, 3.0), (B, 9.0), (C, 0.0)]);
        let got = run(&p, &s);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].binding("k"), Some(&[EventId(1)][..]));
    }

    #[test]
    fn negation_suppresses_match() {
        // SEQ(A, NEG(B), C): match iff no B between A and C.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(leaf(B, "n"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        assert!(run(&p, &stream(&[A, B, C])).is_empty());
        assert_eq!(run(&p, &stream(&[A, D, C])).len(), 1);
        // B *outside* the gap does not suppress.
        assert_eq!(run(&p, &stream(&[B, A, C])).len(), 1);
    }

    #[test]
    fn negation_with_condition_only_counts_qualifying_events() {
        // NEG(B n) WHERE n.v > a.v: only "large" B events forbid the match.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(leaf(B, "n"))),
                leaf(C, "c"),
            ]),
            vec![Predicate::gt(Expr::attr("n", 0), Expr::attr("a", 0))],
            WindowSpec::Count(10),
        );
        let small_b = stream_attr(&[(A, 5.0), (B, 1.0), (C, 0.0)]);
        assert_eq!(run(&p, &small_b).len(), 1);
        let large_b = stream_attr(&[(A, 5.0), (B, 9.0), (C, 0.0)]);
        assert!(run(&p, &large_b).is_empty());
    }

    #[test]
    fn negated_sequence_requires_full_inner_occurrence() {
        // SEQ(A, NEG(SEQ(B,D)), C): only an in-order B..D pair in the gap kills it.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(PatternExpr::Seq(vec![
                    leaf(B, "n1"),
                    leaf(D, "n2"),
                ]))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        assert!(run(&p, &stream(&[A, B, D, C])).is_empty());
        assert_eq!(run(&p, &stream(&[A, D, B, C])).len(), 1); // wrong order
        assert_eq!(run(&p, &stream(&[A, B, C])).len(), 1); // incomplete
    }

    #[test]
    fn stats_track_partial_matches() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(10),
        );
        let mut e = NfaEngine::new(&p).unwrap();
        let s = stream(&[A, A, B, B, C]);
        let matches = e.run(s.events());
        let st = e.stats();
        assert_eq!(st.events_processed, 5);
        assert_eq!(st.matches_emitted, matches.len() as u64);
        // partials: 2×[a], 4×[a,b] prefixes (2a × 2b), 4 full = 10 creations
        assert_eq!(st.partial_matches_created, 10);
        assert!(st.peak_partial_matches >= 6);
    }

    #[test]
    fn kleene_cap_limits_iterations() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(20),
        );
        let mut capped = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_kleene_iters: Some(1),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let s = stream(&[A, B, B, C]);
        let got = capped.run(s.events());
        // Only single-iteration closures survive: {b1}, {b2}.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn partial_budget_caps_live_state() {
        // Many A's under SEQ(A,B) with a huge window: unbounded state grows
        // linearly; a budget of 4 must hold stored partials at <= 4 after
        // every event and count everything it shed.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(1000),
        );
        let budget = 4;
        let mut e = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_partials: Some(budget),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let s = stream(&[A; 50]);
        for ev in s.events() {
            e.process(ev);
            assert!(
                e.stored_partials() <= budget,
                "budget violated: {}",
                e.stored_partials()
            );
        }
        assert_eq!(e.stats().partials_shed, 50 - budget as u64);
        assert!(e.stats().peak_partial_matches <= budget as u64);
    }

    #[test]
    fn partial_budget_sheds_oldest_first() {
        // With budget 2, the two *newest* A partials survive, so only they
        // can complete when B arrives.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(1000),
        );
        let mut e = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_partials: Some(2),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let s = stream(&[A, A, A, A, B]);
        let got = e.run(s.events());
        assert_eq!(got.len(), 2);
        let mut a_ids: Vec<u64> = got.iter().map(|m| m.binding("a").unwrap()[0].0).collect();
        a_ids.sort_unstable();
        assert_eq!(a_ids, vec![2, 3], "oldest partials (a=0, a=1) were shed");
    }

    #[test]
    fn budgeted_matches_are_subset_of_exact() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(12),
        );
        let s = stream(&[A, B, A, C, B, A, C, B, C, A, B, C]);
        let exact: Vec<Vec<EventId>> = {
            let mut keys: Vec<_> = run(&p, &s).iter().map(|m| m.event_ids.clone()).collect();
            keys.sort();
            keys
        };
        let mut budgeted = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_partials: Some(3),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let got = budgeted.run(s.events());
        assert!(
            budgeted.stats().partials_shed > 0,
            "budget should have bound"
        );
        for m in &got {
            assert!(
                exact.contains(&m.event_ids),
                "shedding must never invent matches"
            );
        }
    }

    #[test]
    fn partial_matches_pruned_outside_window() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(2),
        );
        let mut e = NfaEngine::new(&p).unwrap();
        let s = stream(&[A, C, C, C, C, C]);
        e.run(s.events());
        assert_eq!(e.stored_partials(), 0, "expired partials must be dropped");
    }

    #[test]
    fn overlapping_matches_all_emitted() {
        // Fig. 2 scenario flavor: every (A,B,C) in-order triple within W.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(6),
        );
        let got = run(&p, &stream(&[A, B, C, A, B, C]));
        // triples: (0,1,2),(0,1,5),(0,4,5),(3,4,5) -- all spans <= 5
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn filtered_stream_ids_respect_original_window() {
        // §4.4: on a filtered stream (gappy ids), the ID-distance constraint
        // must reject pairs that were farther than W-1 apart originally.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(3),
        );
        let ev = vec![
            dlacep_events::PrimitiveEvent::new(0, A, 0, vec![0.0]),
            dlacep_events::PrimitiveEvent::new(7, B, 7, vec![0.0]), // originally far away
        ];
        let mut e = NfaEngine::new(&p).unwrap();
        assert!(e.run(&ev).is_empty());
        let ev2 = vec![
            dlacep_events::PrimitiveEvent::new(10, A, 10, vec![0.0]),
            dlacep_events::PrimitiveEvent::new(12, B, 12, vec![0.0]),
        ];
        let mut e2 = NfaEngine::new(&p).unwrap();
        assert_eq!(e2.run(&ev2).len(), 1);
    }

    #[test]
    fn typeset_with_multiple_types_matches_any() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::new(vec![A, B]), "x"),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        assert_eq!(run(&p, &stream(&[A, B, C])).len(), 2);
    }
}
