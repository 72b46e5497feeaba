//! Property-based equivalence: on random streams and random simple patterns,
//! the NFA, tree and lazy engines must all produce exactly the match set of a
//! brute-force oracle that enumerates every event combination.

use dlacep_cep::engine::CepEngine;
use dlacep_cep::pattern::ast::{Pattern, PatternExpr, TypeSet};
use dlacep_cep::pattern::condition::{Expr, Predicate};
use dlacep_cep::plan::{Plan, StepKind};
use dlacep_cep::sharded::run_sharded;
use dlacep_cep::{LazyEngine, NfaEngine, TreeEngine};
use dlacep_events::{EventId, EventStream, PrimitiveEvent, TypeId, WindowSpec};
use dlacep_obs::{Histogram, Tracer};
use dlacep_par::ThreadPool;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One pool shared by every proptest case: sharded evaluation must be
/// correct regardless of how a long-lived pool interleaves shards.
fn pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(4))
}

/// Brute-force oracle for single-event-step branches: enumerate all
/// assignments of distinct events to steps, check preds order, window and
/// conditions.
fn brute_force(pattern: &Pattern, events: &[PrimitiveEvent]) -> Vec<Vec<EventId>> {
    // Structure only: conditions are read from the pattern, by name.
    let structure = Pattern::new(pattern.expr.clone(), vec![], pattern.window);
    let plan = Plan::compile(&structure).expect("compiles");
    let mut out: Vec<Vec<EventId>> = Vec::new();
    for branch in &plan.branches {
        let n = branch.steps.len();
        let mut assignment: Vec<usize> = vec![usize::MAX; n];
        enumerate(branch, pattern, &plan, events, 0, &mut assignment, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn enumerate(
    branch: &dlacep_cep::plan::Branch,
    pattern: &Pattern,
    plan: &Plan,
    events: &[PrimitiveEvent],
    step: usize,
    assignment: &mut Vec<usize>,
    out: &mut Vec<Vec<EventId>>,
) {
    let n = branch.steps.len();
    if step == n {
        // Window check.
        let ids: Vec<u64> = assignment.iter().map(|&i| events[i].id.0).collect();
        let tss: Vec<u64> = assignment.iter().map(|&i| events[i].ts.0).collect();
        let ok = match plan.window {
            WindowSpec::Count(w) => ids.iter().max().unwrap() - ids.iter().min().unwrap() < w,
            WindowSpec::Time(w) => tss.iter().max().unwrap() - tss.iter().min().unwrap() <= w,
        };
        if !ok {
            return;
        }
        // Conditions.
        let lookup = |b: &str, a: usize| -> Option<f64> {
            for (s, st) in branch.steps.iter().enumerate() {
                if let StepKind::Single { binding, .. } = &st.kind {
                    if binding == b {
                        return events[assignment[s]].attr(a);
                    }
                }
            }
            None
        };
        // The branch's conditions: those whose bindings all lie in it.
        let binds = |b: &str| {
            branch
                .steps
                .iter()
                .any(|st| matches!(&st.kind, StepKind::Single { binding, .. } if binding == b))
        };
        for cond in &pattern.conditions {
            let in_branch = cond.referenced_bindings().iter().all(|b| binds(b));
            if in_branch && cond.eval(&lookup) != Some(true) {
                return;
            }
        }
        let mut key: Vec<EventId> = assignment.iter().map(|&i| events[i].id).collect();
        key.sort_unstable();
        out.push(key);
        return;
    }
    let StepKind::Single { types, .. } = &branch.steps[step].kind else {
        panic!("oracle only supports single steps");
    };
    for (i, ev) in events.iter().enumerate() {
        if !types.contains(ev.type_id) {
            continue;
        }
        if assignment[..step].contains(&i) {
            continue;
        }
        // Order constraints against already-assigned predecessor steps.
        let preds = branch.steps[step].preds;
        let mut ok = true;
        for p in 0..step {
            if preds & (1 << p) != 0 && events[assignment[p]].id >= ev.id {
                ok = false;
                break;
            }
            if branch.steps[p].preds & (1 << step) != 0 && ev.id >= events[assignment[p]].id {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        assignment[step] = i;
        enumerate(branch, pattern, plan, events, step + 1, assignment, out);
        assignment[step] = usize::MAX;
    }
}

fn keys(ms: &[dlacep_cep::Match]) -> Vec<Vec<EventId>> {
    let mut k: Vec<Vec<EventId>> = ms.iter().map(|m| m.event_ids.clone()).collect();
    k.sort();
    k.dedup();
    k
}

fn leaf(t: u32, b: &str) -> PatternExpr {
    PatternExpr::event(TypeSet::single(TypeId(t)), b)
}

/// Binding-free conditions: none (0), `1 < 2` (1, true) or `2 < 1` (2, false).
fn konst(k: u8) -> Vec<Predicate> {
    match k {
        1 => vec![Predicate::lt(Expr::Const(1.0), Expr::Const(2.0))],
        2 => vec![Predicate::lt(Expr::Const(2.0), Expr::Const(1.0))],
        _ => vec![],
    }
}

fn with_konst(mut conds: Vec<Predicate>, c: u8) -> Vec<Predicate> {
    conds.extend(konst(c));
    conds
}

fn make_stream(types: &[u8], vals: &[i8]) -> EventStream {
    let mut s = EventStream::new();
    for (i, (&t, &v)) in types.iter().zip(vals).enumerate() {
        s.push(TypeId(t as u32 % 4), i as u64, vec![v as f64]);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nfa_matches_brute_force_seq(
        types in prop::collection::vec(0u8..4, 1..14),
        vals in prop::collection::vec(-5i8..5, 14),
        w in 2u64..8,
        k in 0u8..3,
    ) {
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            with_konst(vec![Predicate::gt(Expr::attr("c", 0), Expr::attr("a", 0))], k),
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected);
    }

    #[test]
    fn all_engines_agree_on_conj(
        types in prop::collection::vec(0u8..4, 1..12),
        vals in prop::collection::vec(-5i8..5, 12),
        w in 2u64..8,
        k in 0u8..3,
    ) {
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(0, "a"), leaf(1, "b")]),
            with_konst(vec![Predicate::lt(Expr::attr("a", 0), Expr::attr("b", 0))], k),
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut lazy = LazyEngine::new(&p, Some(&[0.6, 0.4])).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&lazy.run(s.events())), expected);
    }

    #[test]
    fn all_engines_agree_on_disj_of_seqs(
        types in prop::collection::vec(0u8..4, 1..12),
        vals in prop::collection::vec(-5i8..5, 12),
        w in 3u64..9,
        k in 0u8..3,
    ) {
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
                PatternExpr::Seq(vec![leaf(2, "c"), leaf(3, "d")]),
            ]),
            konst(k),
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut lazy = LazyEngine::new(&p, None).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&lazy.run(s.events())), expected);
    }

    #[test]
    fn all_engines_agree_on_one_step(
        types in prop::collection::vec(0u8..4, 1..12),
        vals in prop::collection::vec(-5i8..5, 12),
        w in 1u64..6,
        cond in 0u8..2,
        k in 0u8..3,
    ) {
        // A one-step pattern, optionally with a single-step condition: the
        // binding-free condition is the only one no step can trigger.
        let s = make_stream(&types, &vals);
        let own = Predicate::gt(Expr::attr("a", 0), Expr::Const(0.0));
        let p = Pattern::new(
            leaf(0, "a"),
            with_konst(if cond == 1 { vec![own] } else { vec![] }, k),
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut lazy = LazyEngine::with_sample(&p, s.events()).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&lazy.run(s.events())), expected);
    }

    #[test]
    fn time_window_engines_agree(
        types in prop::collection::vec(0u8..3, 1..10),
        gaps in prop::collection::vec(0u64..5, 10),
        w in 2u64..10,
    ) {
        let mut s = EventStream::new();
        let mut ts = 0;
        for (i, &t) in types.iter().enumerate() {
            ts += gaps.get(i).copied().unwrap_or(1);
            s.push(TypeId(t as u32), ts, vec![i as f64]);
        }
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![],
            WindowSpec::Time(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected);
    }

    #[test]
    fn sharded_engines_agree_with_brute_force(
        types in prop::collection::vec(0u8..4, 1..24),
        vals in prop::collection::vec(-5i8..5, 24),
        w in 2u64..8,
        target in 2usize..8,
        k in 0u8..3,
    ) {
        // Every engine kind, evaluated sharded on a shared pool with a tiny
        // shard target (so multi-shard layouts actually occur), must emit
        // exactly the serial NFA's match sequence — same values, same order
        // — and the key set must equal the brute-force oracle.
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            with_konst(vec![Predicate::gt(Expr::attr("b", 0), Expr::attr("a", 0))], k),
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut serial = NfaEngine::new(&p).unwrap();
        let serial_matches = serial.run(s.events());
        prop_assert_eq!(keys(&serial_matches), expected);

        let window = Plan::compile(&p).unwrap().window;
        let (nfa_m, _) = run_sharded(
            || NfaEngine::new(&p).unwrap(), window, s.events(), target, pool(),
            &Histogram::disabled(), &Tracer::disabled());
        prop_assert_eq!(&nfa_m, &serial_matches);
        let (tree_m, _) = run_sharded(
            || TreeEngine::new(&p).unwrap(), window, s.events(), target, pool(),
            &Histogram::disabled(), &Tracer::disabled());
        prop_assert_eq!(keys(&tree_m), keys(&serial_matches));
        let (lazy_m, _) = run_sharded(
            || LazyEngine::new(&p, Some(&[0.6, 0.4])).unwrap(), window, s.events(), target, pool(),
            &Histogram::disabled(), &Tracer::disabled());
        prop_assert_eq!(keys(&lazy_m), keys(&serial_matches));
    }

    #[test]
    fn negation_never_emits_when_negated_type_everywhere(
        vals in prop::collection::vec(-5i8..5, 12),
        w in 3u64..9,
    ) {
        // Stream alternates A,B: any (A..C) gap would contain a B? There is no C,
        // so we use SEQ(A, NEG(B), A2) over A B A B...: every A..A gap of
        // length >= 2 contains a B, so no match may be emitted.
        let types: Vec<u8> = (0..vals.len() as u8).map(|i| i % 2).collect();
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(0, "x"),
                PatternExpr::Neg(Box::new(leaf(1, "n"))),
                leaf(0, "y"),
            ]),
            vec![],
            WindowSpec::Count(w),
        );
        let mut nfa = NfaEngine::new(&p).unwrap();
        let got = nfa.run(s.events());
        // Adjacent A events are 2 apart with exactly one B between them.
        prop_assert!(got.is_empty());
    }
}
