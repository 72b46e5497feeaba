//! Compilation of [`Pattern`]s into executable evaluation plans.
//!
//! Compilation performs three normalizations:
//! 1. **DISJ hoisting** — disjunctions distribute to the top, producing one
//!    [`Branch`] per alternative (a DISJ match is the union of its branches'
//!    matches, paper §2.1).
//! 2. **Flattening into a partial order** — SEQ/CONJ nesting becomes a list
//!    of [`PlanStep`]s, each carrying the set of steps that must precede it
//!    temporally (SEQ chains steps; CONJ leaves them unordered).
//! 3. **Condition resolution** — each `WHERE` predicate has its binding
//!    names resolved once to [`Slot`]s, giving the [`SlotPredicate`] every
//!    engine evaluates, and is routed to the earliest point it can prune:
//!    eagerly on single-event slots, per Kleene iteration, or as a
//!    negation-gap constraint. A binding-free condition is decided here: a
//!    true one is dropped, a false one removes the branch.

use crate::pattern::ast::{Pattern, PatternExpr, TypeSet};
use crate::pattern::condition::{CmpOp, Expr, Predicate};
use dlacep_events::WindowSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Maximum positive steps per branch (step sets are `u64` bitmasks).
pub const MAX_STEPS: usize = 64;

/// Errors surfaced during pattern compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The pattern has no positive event leaves.
    EmptyPattern,
    /// A binding name occurs twice within one branch.
    DuplicateBinding(String),
    /// NEG used outside a SEQ (e.g. directly under CONJ or at top level).
    NegOutsideSeq,
    /// NEG with no positive element after it in the sequence.
    NegAtEnd,
    /// Kleene body must be a single event or a SEQ of events.
    UnsupportedKleeneBody,
    /// DISJ under KC or NEG cannot be hoisted.
    DisjUnderKleeneOrNeg,
    /// A condition references a binding that no branch defines.
    UnknownBinding(String),
    /// A condition references Kleene-iteration bindings of two different
    /// Kleene steps.
    ConditionSpansKleenes,
    /// A condition mixes negated and Kleene bindings.
    ConditionMixesNegAndKleene,
    /// A condition references bindings of two different negation groups.
    ConditionSpansNegs,
    /// More than [`MAX_STEPS`] positive steps in one branch.
    TooManySteps,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::EmptyPattern => write!(f, "pattern has no positive events"),
            CompileError::DuplicateBinding(b) => write!(f, "duplicate binding {b:?}"),
            CompileError::NegOutsideSeq => write!(f, "NEG is only supported inside SEQ"),
            CompileError::NegAtEnd => {
                write!(f, "NEG must be followed by a positive element in the SEQ")
            }
            CompileError::UnsupportedKleeneBody => {
                write!(f, "KC body must be an event or a SEQ of events")
            }
            CompileError::DisjUnderKleeneOrNeg => {
                write!(f, "DISJ nested under KC/NEG is not supported")
            }
            CompileError::UnknownBinding(b) => {
                write!(f, "condition references unknown binding {b:?}")
            }
            CompileError::ConditionSpansKleenes => {
                write!(f, "condition references two different Kleene closures")
            }
            CompileError::ConditionMixesNegAndKleene => {
                write!(f, "condition mixes negated and Kleene bindings")
            }
            CompileError::ConditionSpansNegs => {
                write!(f, "condition references two different negation groups")
            }
            CompileError::TooManySteps => write!(f, "more than {MAX_STEPS} steps in a branch"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Where a condition operand lives within a branch: a binding name resolved
/// at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Slot {
    /// The event bound to single step `i`.
    Step(usize),
    /// Element `elem` of the Kleene iteration under evaluation at `step`.
    KleeneElem {
        /// Kleene step index.
        step: usize,
        /// Position in the Kleene body.
        elem: usize,
    },
    /// Element `elem` of the candidate occurrence of negation group `neg`.
    NegElem {
        /// Negation group index.
        neg: usize,
        /// Position in the negated sequence.
        elem: usize,
    },
}

/// An [`Expr`] with every binding resolved to a [`Slot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotExpr {
    /// Literal.
    Const(f64),
    /// Attribute `attr` of the event in `slot`.
    Attr {
        /// Operand slot.
        slot: Slot,
        /// Attribute index within the event.
        attr: usize,
    },
    /// Product.
    Mul(Box<SlotExpr>, Box<SlotExpr>),
    /// Sum.
    Add(Box<SlotExpr>, Box<SlotExpr>),
    /// Difference.
    Sub(Box<SlotExpr>, Box<SlotExpr>),
}

impl SlotExpr {
    fn eval<F: Fn(Slot, usize) -> Option<f64>>(&self, get: &F) -> Option<f64> {
        match self {
            SlotExpr::Const(c) => Some(*c),
            SlotExpr::Attr { slot, attr } => get(*slot, *attr),
            SlotExpr::Mul(a, b) => Some(a.eval(get)? * b.eval(get)?),
            SlotExpr::Add(a, b) => Some(a.eval(get)? + b.eval(get)?),
            SlotExpr::Sub(a, b) => Some(a.eval(get)? - b.eval(get)?),
        }
    }
}

/// A [`Predicate`] compiled against one branch — the only condition form the
/// engines evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotPredicate {
    /// `lhs op rhs`.
    Cmp {
        /// Left expression.
        lhs: SlotExpr,
        /// Operator.
        op: CmpOp,
        /// Right expression.
        rhs: SlotExpr,
    },
    /// All must hold.
    And(Vec<SlotPredicate>),
    /// At least one must hold.
    Or(Vec<SlotPredicate>),
    /// Negated predicate.
    Not(Box<SlotPredicate>),
    /// Always true.
    True,
}

impl SlotPredicate {
    /// Evaluate, reading attribute `attr` of the event in a slot through
    /// `get`. Same semantics as [`Predicate::eval`]: `None` when an operand's
    /// slot is empty (not yet decidable), `And`/`Or` short-circuit left to
    /// right.
    pub fn eval(&self, get: impl Fn(Slot, usize) -> Option<f64>) -> Option<bool> {
        self.eval_with(&get)
    }

    fn eval_with<F: Fn(Slot, usize) -> Option<f64>>(&self, get: &F) -> Option<bool> {
        match self {
            SlotPredicate::Cmp { lhs, op, rhs } => Some(op.apply(lhs.eval(get)?, rhs.eval(get)?)),
            SlotPredicate::And(ps) => {
                for p in ps {
                    if !p.eval_with(get)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            SlotPredicate::Or(ps) => {
                for p in ps {
                    if p.eval_with(get)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            SlotPredicate::Not(p) => Some(!p.eval_with(get)?),
            SlotPredicate::True => Some(true),
        }
    }
}

/// One typed leaf inside a Kleene or negation group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupElem {
    /// Admissible types.
    pub types: TypeSet,
    /// Binding name of the element.
    pub binding: String,
}

/// What a positive plan step matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepKind {
    /// A single primitive event.
    Single {
        /// Admissible types.
        types: TypeSet,
        /// Binding name.
        binding: String,
    },
    /// One-or-more repetitions of an inner event sequence (KC).
    Kleene {
        /// The inner sequence; length 1 for `KC(event)`.
        inner: Vec<GroupElem>,
        /// Conditions referencing this closure's bindings, applied to every
        /// iteration (∀ semantics). Evaluated at iteration completion when
        /// decidable, re-checked at match completion otherwise.
        iter_conditions: Vec<SlotPredicate>,
    },
}

/// A positive step with its temporal predecessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// What to match.
    pub kind: StepKind,
    /// Step indices whose events must all precede this step's events.
    pub preds: u64,
}

/// A negated element group: `inner` must not occur (in order, satisfying
/// `conditions`) strictly between the events bound to `after` and `before`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NegGroup {
    /// Negated sequence (length 1 for a single negated event).
    pub inner: Vec<GroupElem>,
    /// Positive steps whose latest event starts the gap (empty = window
    /// start of the match).
    pub after: Vec<usize>,
    /// Positive steps whose earliest event ends the gap (never empty).
    pub before: Vec<usize>,
    /// Conditions referencing negated + positive single bindings.
    pub conditions: Vec<SlotPredicate>,
}

/// A condition over single-event slots, evaluated eagerly once all referenced
/// steps are bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalCond {
    /// The predicate.
    pub pred: SlotPredicate,
    /// Bitmask of steps that must be bound before evaluation.
    pub step_mask: u64,
}

/// One DISJ alternative, fully normalized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Branch {
    /// Positive steps.
    pub steps: Vec<PlanStep>,
    /// Negation groups.
    pub negs: Vec<NegGroup>,
    /// Eager single-slot conditions.
    pub global_conds: Vec<GlobalCond>,
    /// Kleene-referencing conditions re-validated at completion:
    /// `(kleene step index, predicate)`.
    pub deferred_conds: Vec<(usize, SlotPredicate)>,
}

impl Branch {
    /// Bitmask with one bit per step.
    pub fn full_mask(&self) -> u64 {
        if self.steps.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.steps.len()) - 1
        }
    }

    /// Indices of Kleene steps.
    pub fn kleene_steps(&self) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, StepKind::Kleene { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Bitmask of steps that (directly) require step `s` to precede them.
    pub fn successor_mask(&self, s: usize) -> u64 {
        let mut m = 0u64;
        for (i, step) in self.steps.iter().enumerate() {
            if step.preds & (1 << s) != 0 {
                m |= 1 << i;
            }
        }
        m
    }

    /// Binding names in [`crate::Match`] emission order: steps in order, a
    /// single step contributing its binding and a Kleene step its inner
    /// elements'. Negated bindings never appear in matches.
    pub fn emission_bindings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for step in &self.steps {
            match &step.kind {
                StepKind::Single { binding, .. } => out.push(binding.clone()),
                StepKind::Kleene { inner, .. } => {
                    out.extend(inner.iter().map(|e| e.binding.clone()));
                }
            }
        }
        out
    }
}

/// A compiled pattern: DISJ branches plus the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The alternatives; none when a binding-free condition is false, so
    /// the plan never matches.
    pub branches: Vec<Branch>,
    /// Window semantics shared by all branches.
    pub window: WindowSpec,
}

impl Plan {
    /// Compile a pattern.
    pub fn compile(pattern: &Pattern) -> Result<Plan, CompileError> {
        let alts = hoist_disj(&pattern.expr)?;
        if alts.is_empty() {
            return Err(CompileError::EmptyPattern);
        }
        // Per condition: `Ok` once it lands in some branch, else a binding
        // name that did not resolve.
        let mut placed: Vec<Result<(), &str>> = vec![Err(""); pattern.conditions.len()];
        let mut branches = Vec::with_capacity(alts.len());
        for alt in &alts {
            branches.extend(compile_branch(alt, &pattern.conditions, &mut placed)?);
        }
        if let Some(Err(missing)) = placed.into_iter().find(Result::is_err) {
            return Err(CompileError::UnknownBinding(missing.to_string()));
        }
        Ok(Plan {
            branches,
            window: pattern.window,
        })
    }

    /// Total positive single-event pattern length of the longest branch
    /// (used by cost estimators).
    pub fn max_branch_len(&self) -> usize {
        self.branches
            .iter()
            .map(|b| b.steps.len())
            .max()
            .unwrap_or(0)
    }
}

/// Distribute DISJ to the top level.
fn hoist_disj(expr: &PatternExpr) -> Result<Vec<PatternExpr>, CompileError> {
    match expr {
        PatternExpr::Event { .. } => Ok(vec![expr.clone()]),
        PatternExpr::Disj(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(hoist_disj(c)?);
            }
            Ok(out)
        }
        PatternExpr::Seq(children) | PatternExpr::Conj(children) => {
            let is_seq = matches!(expr, PatternExpr::Seq(_));
            let mut combos: Vec<Vec<PatternExpr>> = vec![Vec::new()];
            for c in children {
                let alts = hoist_disj(c)?;
                let mut next = Vec::with_capacity(combos.len() * alts.len());
                for combo in &combos {
                    for alt in &alts {
                        let mut v = combo.clone();
                        v.push(alt.clone());
                        next.push(v);
                    }
                }
                combos = next;
            }
            Ok(combos
                .into_iter()
                .map(|v| {
                    if is_seq {
                        PatternExpr::Seq(v)
                    } else {
                        PatternExpr::Conj(v)
                    }
                })
                .collect())
        }
        PatternExpr::Kleene(body) => {
            let alts = hoist_disj(body)?;
            if alts.len() != 1 {
                return Err(CompileError::DisjUnderKleeneOrNeg);
            }
            Ok(vec![PatternExpr::Kleene(Box::new(
                alts.into_iter().next().expect("len 1"),
            ))])
        }
        PatternExpr::Neg(body) => {
            let alts = hoist_disj(body)?;
            if alts.len() != 1 {
                return Err(CompileError::DisjUnderKleeneOrNeg);
            }
            Ok(vec![PatternExpr::Neg(Box::new(
                alts.into_iter().next().expect("len 1"),
            ))])
        }
    }
}

#[derive(Default)]
struct BranchBuilder {
    steps: Vec<PlanStep>,
    negs: Vec<NegGroup>,
    names: HashMap<String, Slot>,
}

impl BranchBuilder {
    fn declare(&mut self, name: &str, slot: Slot) -> Result<(), CompileError> {
        if self.names.insert(name.to_string(), slot).is_some() {
            return Err(CompileError::DuplicateBinding(name.to_string()));
        }
        Ok(())
    }
}

/// Flatten a Kleene/NEG body into a leaf sequence.
fn flatten_leaf_seq(expr: &PatternExpr) -> Result<Vec<GroupElem>, CompileError> {
    match expr {
        PatternExpr::Event { types, binding } => Ok(vec![GroupElem {
            types: types.clone(),
            binding: binding.clone(),
        }]),
        PatternExpr::Seq(children) => {
            let mut out = Vec::with_capacity(children.len());
            for c in children {
                match c {
                    PatternExpr::Event { types, binding } => out.push(GroupElem {
                        types: types.clone(),
                        binding: binding.clone(),
                    }),
                    _ => return Err(CompileError::UnsupportedKleeneBody),
                }
            }
            if out.is_empty() {
                return Err(CompileError::UnsupportedKleeneBody);
            }
            Ok(out)
        }
        _ => Err(CompileError::UnsupportedKleeneBody),
    }
}

fn mask_of(steps: &[usize]) -> u64 {
    steps.iter().fold(0u64, |m, &s| m | (1 << s))
}

/// Walk the expression tree, emitting steps. Returns `(firsts, lasts)`:
/// the step indices that begin/end the element for SEQ chaining.
fn walk(
    expr: &PatternExpr,
    preds: &[usize],
    b: &mut BranchBuilder,
) -> Result<(Vec<usize>, Vec<usize>), CompileError> {
    match expr {
        PatternExpr::Event { types, binding } => {
            let idx = b.steps.len();
            if idx >= MAX_STEPS {
                return Err(CompileError::TooManySteps);
            }
            b.declare(binding, Slot::Step(idx))?;
            b.steps.push(PlanStep {
                kind: StepKind::Single {
                    types: types.clone(),
                    binding: binding.clone(),
                },
                preds: mask_of(preds),
            });
            Ok((vec![idx], vec![idx]))
        }
        PatternExpr::Kleene(body) => {
            let inner = flatten_leaf_seq(body)?;
            let idx = b.steps.len();
            if idx >= MAX_STEPS {
                return Err(CompileError::TooManySteps);
            }
            for (elem, e) in inner.iter().enumerate() {
                b.declare(&e.binding, Slot::KleeneElem { step: idx, elem })?;
            }
            b.steps.push(PlanStep {
                kind: StepKind::Kleene {
                    inner,
                    iter_conditions: Vec::new(),
                },
                preds: mask_of(preds),
            });
            Ok((vec![idx], vec![idx]))
        }
        PatternExpr::Seq(children) => {
            let mut cur_preds: Vec<usize> = preds.to_vec();
            let mut firsts: Option<Vec<usize>> = None;
            let mut open_negs: Vec<usize> = Vec::new();
            for c in children {
                if let PatternExpr::Neg(body) = c {
                    let inner = flatten_leaf_seq(body)?;
                    let neg_idx = b.negs.len();
                    for (elem, e) in inner.iter().enumerate() {
                        b.declare(&e.binding, Slot::NegElem { neg: neg_idx, elem })?;
                    }
                    // `after` = the positive steps accumulated so far in this
                    // seq (or the enclosing preds when the NEG leads).
                    b.negs.push(NegGroup {
                        inner,
                        after: cur_preds.clone(),
                        before: Vec::new(),
                        conditions: Vec::new(),
                    });
                    open_negs.push(neg_idx);
                    continue;
                }
                let (f, l) = walk(c, &cur_preds, b)?;
                for n in open_negs.drain(..) {
                    b.negs[n].before = f.clone();
                }
                if firsts.is_none() {
                    firsts = Some(f);
                }
                cur_preds = l;
            }
            if !open_negs.is_empty() {
                return Err(CompileError::NegAtEnd);
            }
            let firsts = firsts.ok_or(CompileError::EmptyPattern)?;
            Ok((firsts, cur_preds))
        }
        PatternExpr::Conj(children) => {
            let mut firsts = Vec::new();
            let mut lasts = Vec::new();
            for c in children {
                if matches!(c, PatternExpr::Neg(_)) {
                    return Err(CompileError::NegOutsideSeq);
                }
                let (f, l) = walk(c, preds, b)?;
                firsts.extend(f);
                lasts.extend(l);
            }
            if firsts.is_empty() {
                return Err(CompileError::EmptyPattern);
            }
            Ok((firsts, lasts))
        }
        PatternExpr::Neg(_) => Err(CompileError::NegOutsideSeq),
        PatternExpr::Disj(_) => unreachable!("DISJ hoisted before walk"),
    }
}

/// Lowers predicates onto a branch's slots, recording every slot read.
struct Resolver<'n> {
    names: &'n HashMap<String, Slot>,
    used: Vec<Slot>,
}

impl Resolver<'_> {
    /// `Err` names the first binding the branch does not define.
    fn pred<'a>(&mut self, p: &'a Predicate) -> Result<SlotPredicate, &'a str> {
        Ok(match p {
            Predicate::Cmp { lhs, op, rhs } => SlotPredicate::Cmp {
                lhs: self.expr(lhs)?,
                op: *op,
                rhs: self.expr(rhs)?,
            },
            Predicate::And(ps) => SlotPredicate::And(self.preds(ps)?),
            Predicate::Or(ps) => SlotPredicate::Or(self.preds(ps)?),
            Predicate::Not(q) => SlotPredicate::Not(Box::new(self.pred(q)?)),
            Predicate::True => SlotPredicate::True,
        })
    }

    fn preds<'a>(&mut self, ps: &'a [Predicate]) -> Result<Vec<SlotPredicate>, &'a str> {
        ps.iter().map(|q| self.pred(q)).collect()
    }

    fn expr<'a>(&mut self, e: &'a Expr) -> Result<SlotExpr, &'a str> {
        let mut pair = |a: &'a Expr, b: &'a Expr| -> Result<_, &'a str> {
            Ok((Box::new(self.expr(a)?), Box::new(self.expr(b)?)))
        };
        Ok(match e {
            Expr::Const(c) => SlotExpr::Const(*c),
            Expr::Attr { binding, attr } => {
                let slot = *self.names.get(binding).ok_or(binding.as_str())?;
                self.used.push(slot);
                SlotExpr::Attr { slot, attr: *attr }
            }
            Expr::Mul(a, b) => pair(a, b).map(|(a, b)| SlotExpr::Mul(a, b))?,
            Expr::Add(a, b) => pair(a, b).map(|(a, b)| SlotExpr::Add(a, b))?,
            Expr::Sub(a, b) => pair(a, b).map(|(a, b)| SlotExpr::Sub(a, b))?,
        })
    }
}

/// Compile one DISJ alternative; `None` when a binding-free condition is
/// false, so the branch can never match. Marks in `placed` which conditions
/// resolve here (see [`Plan::compile`]).
fn compile_branch<'c>(
    expr: &PatternExpr,
    conditions: &'c [Predicate],
    placed: &mut [Result<(), &'c str>],
) -> Result<Option<Branch>, CompileError> {
    let mut b = BranchBuilder::default();
    let _ = walk(expr, &[], &mut b)?;
    if b.steps.is_empty() {
        return Err(CompileError::EmptyPattern);
    }
    let BranchBuilder {
        mut steps,
        mut negs,
        names,
    } = b;
    let mut global_conds = Vec::new();
    let mut deferred_conds = Vec::new();
    let mut never = false;

    for (cond, placed) in conditions.iter().zip(placed.iter_mut()) {
        let mut r = Resolver {
            names: &names,
            used: Vec::new(),
        };
        // Conditions referencing bindings of other branches are skipped here.
        let pred = match r.pred(cond) {
            Ok(pred) => pred,
            Err(missing) => {
                if placed.is_err() {
                    *placed = Err(missing);
                }
                continue;
            }
        };
        *placed = Ok(());
        if r.used.is_empty() {
            // Binding-free: decided once, here, for every engine.
            never |= pred.eval(|_, _| None) == Some(false);
            continue;
        }
        let kleenes: Vec<usize> = r
            .used
            .iter()
            .filter_map(|s| match s {
                Slot::KleeneElem { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        let neg_refs: Vec<usize> = r
            .used
            .iter()
            .filter_map(|s| match s {
                Slot::NegElem { neg, .. } => Some(*neg),
                _ => None,
            })
            .collect();
        if !kleenes.is_empty() && !neg_refs.is_empty() {
            return Err(CompileError::ConditionMixesNegAndKleene);
        }
        if let Some(&first) = neg_refs.first() {
            if neg_refs.iter().any(|&n| n != first) {
                return Err(CompileError::ConditionSpansNegs);
            }
            negs[first].conditions.push(pred);
            continue;
        }
        if let Some(&first) = kleenes.first() {
            if kleenes.iter().any(|&k| k != first) {
                return Err(CompileError::ConditionSpansKleenes);
            }
            if let StepKind::Kleene {
                iter_conditions, ..
            } = &mut steps[first].kind
            {
                iter_conditions.push(pred.clone());
            }
            deferred_conds.push((first, pred));
            continue;
        }
        // Pure single-step condition: eager.
        let step_mask = r.used.iter().fold(0u64, |m, s| match s {
            Slot::Step(i) => m | (1 << i),
            _ => unreachable!("filtered above"),
        });
        global_conds.push(GlobalCond { pred, step_mask });
    }

    Ok((!never).then_some(Branch {
        steps,
        negs,
        global_conds,
        deferred_conds,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::condition::Expr;
    use dlacep_events::TypeId;

    fn leaf(t: u32, b: &str) -> PatternExpr {
        PatternExpr::event(TypeSet::single(TypeId(t)), b)
    }

    fn compile(expr: PatternExpr, conds: Vec<Predicate>) -> Result<Plan, CompileError> {
        Plan::compile(&Pattern::new(expr, conds, WindowSpec::Count(10)))
    }

    /// `l.0 < r.0` over slots.
    fn slot_lt(l: Slot, r: Slot) -> SlotPredicate {
        SlotPredicate::Cmp {
            lhs: SlotExpr::Attr { slot: l, attr: 0 },
            op: CmpOp::Lt,
            rhs: SlotExpr::Attr { slot: r, attr: 0 },
        }
    }

    #[test]
    fn seq_chains_preds() {
        let p = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![],
        )
        .unwrap();
        assert_eq!(p.branches.len(), 1);
        let b = &p.branches[0];
        assert_eq!(b.steps[0].preds, 0);
        assert_eq!(b.steps[1].preds, 0b001);
        assert_eq!(b.steps[2].preds, 0b010);
    }

    #[test]
    fn conj_has_no_preds() {
        let p = compile(PatternExpr::Conj(vec![leaf(0, "a"), leaf(1, "b")]), vec![]).unwrap();
        let b = &p.branches[0];
        assert_eq!(b.steps[0].preds, 0);
        assert_eq!(b.steps[1].preds, 0);
    }

    #[test]
    fn nested_seq_of_conj_partial_order() {
        // SEQ(a, CONJ(b, c), d): b and c unordered, both after a, d after both.
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Conj(vec![leaf(1, "b"), leaf(2, "c")]),
                leaf(3, "d"),
            ]),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.steps[1].preds, 0b0001);
        assert_eq!(b.steps[2].preds, 0b0001);
        assert_eq!(b.steps[3].preds, 0b0110);
    }

    #[test]
    fn disj_hoists_to_branches() {
        let p = compile(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
                PatternExpr::Seq(vec![leaf(2, "c"), leaf(3, "d")]),
            ]),
            vec![],
        )
        .unwrap();
        assert_eq!(p.branches.len(), 2);
    }

    #[test]
    fn disj_inside_seq_distributes() {
        // SEQ(a, DISJ(b, c)) -> two branches.
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Disj(vec![leaf(1, "b"), leaf(2, "c")]),
            ]),
            vec![],
        )
        .unwrap();
        assert_eq!(p.branches.len(), 2);
        assert_eq!(p.branches[0].steps.len(), 2);
    }

    #[test]
    fn kleene_of_seq_compiles() {
        let p = compile(
            PatternExpr::Kleene(Box::new(PatternExpr::Seq(vec![leaf(0, "x"), leaf(1, "y")]))),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.steps.len(), 1);
        match &b.steps[0].kind {
            StepKind::Kleene { inner, .. } => assert_eq!(inner.len(), 2),
            StepKind::Single { .. } => panic!("expected kleene"),
        }
    }

    #[test]
    fn neg_between_positives() {
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Neg(Box::new(leaf(1, "n"))),
                leaf(2, "b"),
            ]),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.negs.len(), 1);
        assert_eq!(b.negs[0].after, vec![0]);
        assert_eq!(b.negs[0].before, vec![1]);
    }

    #[test]
    fn neg_at_end_rejected() {
        let err = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), PatternExpr::Neg(Box::new(leaf(1, "n")))]),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::NegAtEnd);
    }

    #[test]
    fn neg_in_conj_rejected() {
        let err = compile(
            PatternExpr::Conj(vec![leaf(0, "a"), PatternExpr::Neg(Box::new(leaf(1, "n")))]),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::NegOutsideSeq);
    }

    #[test]
    fn duplicate_binding_rejected() {
        let err = compile(PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "a")]), vec![]).unwrap_err();
        assert_eq!(err, CompileError::DuplicateBinding("a".into()));
    }

    #[test]
    fn conditions_routed_to_owning_branch() {
        // DISJ where each branch has its own condition.
        let c1 = Predicate::lt(Expr::attr("a", 0), Expr::attr("b", 0));
        let c2 = Predicate::lt(Expr::attr("c", 0), Expr::attr("d", 0));
        let p = compile(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
                PatternExpr::Seq(vec![leaf(2, "c"), leaf(3, "d")]),
            ]),
            vec![c1.clone(), c2.clone()],
        )
        .unwrap();
        // Each lowers onto its own branch's steps 0 and 1.
        let lowered = slot_lt(Slot::Step(0), Slot::Step(1));
        assert_eq!(p.branches[0].global_conds.len(), 1);
        assert_eq!(p.branches[0].global_conds[0].pred, lowered);
        assert_eq!(p.branches[0].global_conds[0].step_mask, 0b11);
        assert_eq!(p.branches[1].global_conds[0].pred, lowered);
    }

    #[test]
    fn unknown_binding_rejected() {
        let err = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![Predicate::lt(Expr::attr("zzz", 0), Expr::Const(0.0))],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::UnknownBinding("zzz".into()));
    }

    #[test]
    fn unknown_binding_names_the_unresolved_one() {
        let err = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![Predicate::lt(Expr::attr("a", 0), Expr::attr("z", 0))],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::UnknownBinding("z".into()));
    }

    #[test]
    fn nan_constant_condition_is_placed() {
        // NaN != NaN, so placement must not be found by comparing predicates.
        let cond = Predicate::lt(Expr::scaled(f64::NAN, "b", 0), Expr::attr("a", 0));
        let p = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![cond],
        )
        .unwrap();
        assert_eq!(p.branches[0].global_conds.len(), 1);
        assert_eq!(p.branches[0].global_conds[0].step_mask, 0b11);
    }

    #[test]
    fn binding_free_conditions_are_decided_at_compile_time() {
        let seq = || PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]);
        let lt = |l: f64, r: f64| Predicate::lt(Expr::Const(l), Expr::Const(r));
        // True: dropped, the branch stays.
        let p = compile(seq(), vec![lt(1.0, 2.0)]).unwrap();
        assert_eq!(p.branches.len(), 1);
        assert!(p.branches[0].global_conds.is_empty());
        // False: the branch can never match, and the other conditions still
        // count as placed.
        let own = Predicate::lt(Expr::attr("a", 0), Expr::attr("b", 0));
        let p = compile(seq(), vec![lt(2.0, 1.0), own]).unwrap();
        assert!(p.branches.is_empty());
        // Every DISJ branch is removed, whichever binds the other conditions.
        let p = compile(
            PatternExpr::Disj(vec![seq(), leaf(2, "c")]),
            vec![
                lt(2.0, 1.0),
                Predicate::gt(Expr::attr("c", 0), Expr::Const(0.0)),
            ],
        )
        .unwrap();
        assert!(p.branches.is_empty());
    }

    #[test]
    fn kleene_condition_becomes_iteration_condition() {
        // SEQ(a, KC(k)) WHERE k.v < a.v
        let cond = Predicate::lt(Expr::attr("k", 0), Expr::attr("a", 0));
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Kleene(Box::new(leaf(1, "k"))),
            ]),
            vec![cond.clone()],
        )
        .unwrap();
        let b = &p.branches[0];
        let lowered = slot_lt(Slot::KleeneElem { step: 1, elem: 0 }, Slot::Step(0));
        match &b.steps[1].kind {
            StepKind::Kleene {
                iter_conditions, ..
            } => {
                assert_eq!(iter_conditions, &vec![lowered.clone()])
            }
            StepKind::Single { .. } => panic!(),
        }
        assert_eq!(b.deferred_conds, vec![(1, lowered)]);
    }

    #[test]
    fn neg_condition_routed_to_group() {
        let cond = Predicate::lt(Expr::attr("n", 0), Expr::attr("a", 0));
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Neg(Box::new(leaf(1, "n"))),
                leaf(2, "b"),
            ]),
            vec![cond.clone()],
        )
        .unwrap();
        let lowered = slot_lt(Slot::NegElem { neg: 0, elem: 0 }, Slot::Step(0));
        assert_eq!(p.branches[0].negs[0].conditions, vec![lowered]);
    }

    #[test]
    fn successor_mask_reports_direct_successors() {
        let p = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.successor_mask(0), 0b010);
        assert_eq!(b.successor_mask(1), 0b100);
        assert_eq!(b.successor_mask(2), 0);
    }

    #[test]
    fn kleene_body_with_nesting_rejected() {
        let err = compile(
            PatternExpr::Kleene(Box::new(PatternExpr::Conj(vec![
                leaf(0, "x"),
                leaf(1, "y"),
            ]))),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::UnsupportedKleeneBody);
    }
}
