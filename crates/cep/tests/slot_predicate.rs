//! Property test: the compiled, slot-indexed form of a `WHERE` condition
//! evaluates exactly like the source [`Predicate`] evaluated by name, on
//! random comparison / boolean / arithmetic trees — including unbound
//! operands (undecidable, `None`), missing attributes and NaN values.

use dlacep_cep::pattern::ast::{Pattern, PatternExpr, TypeSet};
use dlacep_cep::pattern::condition::{CmpOp, Expr, Predicate};
use dlacep_cep::plan::{Plan, Slot};
use dlacep_events::{TypeId, WindowSpec};
use proptest::prelude::*;
use proptest::TestRng;

const NAMES: [&str; 3] = ["a", "b", "c"];
const VALUES: [f64; 5] = [-2.0, 0.0, 1.5, 3.0, f64::NAN];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

fn random_expr(rng: &mut TestRng, depth: u32) -> Expr {
    let kinds = if depth == 0 { 2 } else { 5 };
    let sub = |rng: &mut TestRng| Box::new(random_expr(rng, depth - 1));
    match pick(rng, kinds) {
        0 => Expr::Const(VALUES[pick(rng, VALUES.len())]),
        // Attribute 1 exists on some events only.
        1 => Expr::attr(NAMES[pick(rng, 3)], pick(rng, 2)),
        2 => Expr::Mul(sub(rng), sub(rng)),
        3 => Expr::Add(sub(rng), sub(rng)),
        _ => Expr::Sub(sub(rng), sub(rng)),
    }
}

fn random_pred(rng: &mut TestRng, depth: u32) -> Predicate {
    let kinds = if depth == 0 { 2 } else { 5 };
    let subs = |rng: &mut TestRng| {
        let n = pick(rng, 4);
        (0..n).map(|_| random_pred(rng, depth - 1)).collect()
    };
    match pick(rng, kinds) {
        0 => Predicate::Cmp {
            lhs: random_expr(rng, 2),
            op: [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][pick(rng, 4)],
            rhs: random_expr(rng, 2),
        },
        1 => Predicate::True,
        2 => Predicate::And(subs(rng)),
        3 => Predicate::Or(subs(rng)),
        _ => Predicate::Not(Box::new(random_pred(rng, depth - 1))),
    }
}

/// A random `WHERE` condition over the bindings `a`, `b`, `c`.
struct Conditions;

impl Strategy for Conditions {
    type Value = Predicate;

    fn generate(&self, rng: &mut TestRng) -> Predicate {
        random_pred(rng, 3)
    }
}

/// Per binding: unbound (`None`) or an event with one or two attributes.
struct Bindings;

impl Strategy for Bindings {
    type Value = Vec<Option<Vec<f64>>>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (0..NAMES.len())
            .map(|_| {
                let attrs = pick(rng, 3);
                (attrs > 0).then(|| (0..attrs).map(|_| VALUES[pick(rng, 5)]).collect())
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn slot_form_evaluates_like_the_source_predicate(
        cond in Conditions,
        bound in Bindings,
    ) {
        let leaf = |t: u32, b: &str| PatternExpr::event(TypeSet::single(TypeId(t)), b);
        let pattern = Pattern::new(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![cond.clone()],
            WindowSpec::Count(8),
        );
        let plan = Plan::compile(&pattern).expect("every binding resolves");
        let by_name = |name: &str, attr: usize| -> Option<f64> {
            let step = NAMES.iter().position(|n| *n == name)?;
            bound[step].as_ref()?.get(attr).copied()
        };
        let refs = cond.referenced_bindings();
        if refs.is_empty() {
            // Decided by the compiler: kept iff true, with nothing to evaluate.
            let keep = cond.eval(&|_, _| None) == Some(true);
            prop_assert_eq!(plan.branches.len(), keep as usize);
            prop_assert!(plan.branches.iter().all(|b| b.global_conds.is_empty()));
            return Ok(());
        }
        prop_assert_eq!(plan.branches.len(), 1);
        let conds = &plan.branches[0].global_conds;
        prop_assert_eq!(conds.len(), 1);
        let mask = refs
            .iter()
            .fold(0u64, |m, r| m | 1 << NAMES.iter().position(|n| n == r).unwrap());
        prop_assert_eq!(conds[0].step_mask, mask);
        let by_slot = |slot: Slot, attr: usize| -> Option<f64> {
            let Slot::Step(step) = slot else {
                panic!("only single steps exist here, got {slot:?}");
            };
            bound[step].as_ref()?.get(attr).copied()
        };
        prop_assert_eq!(conds[0].pred.eval(by_slot), cond.eval(&by_name), "{:?}", cond);
    }
}
