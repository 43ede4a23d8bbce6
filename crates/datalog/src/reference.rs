//! A deliberately simple **string-path reference evaluator**.
//!
//! This is the pre-interning execution model kept alive as an oracle:
//! relations are keyed by `Arc<str>`, tuples are `Vec<Val>`, bindings
//! live in a `HashMap<Arc<str>, Val>`, and evaluation is naive
//! bottom-up iteration to fixpoint. It shares **no** code with the
//! interned engine in [`crate::compile`] — same AST in, independent
//! machinery underneath — which is exactly what makes it useful:
//!
//! * the `interned-vs-string` proptest and the sim differential oracle
//!   compare the two paths tuple-for-tuple over generated programs;
//! * the `e17_alloc_throughput` bench uses it as the baseline that
//!   quantifies what interning buys.
//!
//! It applies the same safety/stratification checks and the same
//! derived-tuple budget and arithmetic error semantics, so error cases
//! are comparable too.

use crate::ast::{ArithOp, BodyItem, CmpOp, Expr, Literal, Program, Rule, Term, Val};
use crate::eval::{Database, Tuple};
use crate::{safety, stratify, DatalogError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The result of a string-path evaluation: input facts plus everything
/// derived, in plain string-keyed storage.
#[derive(Clone, Debug, Default)]
pub struct StringEvaluation {
    relations: HashMap<Arc<str>, HashSet<Tuple>>,
    /// Tuples derived by rules (excluding seeded input facts).
    pub derived: usize,
}

impl StringEvaluation {
    /// Is `tuple` present in relation `pred` (input or derived)?
    pub fn contains(&self, pred: &str, tuple: &[Val]) -> bool {
        self.relations
            .get(pred)
            .is_some_and(|rel| rel.contains(tuple))
    }

    /// All tuples of `pred`, in arbitrary order.
    pub fn tuples(&self, pred: &str) -> Vec<Tuple> {
        self.relations
            .get(pred)
            .map(|rel| rel.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Names of all non-empty relations, sorted.
    pub fn predicates(&self) -> Vec<Arc<str>> {
        let mut preds: Vec<Arc<str>> = self
            .relations
            .iter()
            .filter(|(_, rel)| !rel.is_empty())
            .map(|(p, _)| Arc::clone(p))
            .collect();
        preds.sort();
        preds
    }

    fn insert(&mut self, pred: Arc<str>, tuple: Tuple) -> bool {
        self.relations.entry(pred).or_default().insert(tuple)
    }
}

/// Evaluate `program` over `base` on the string path, to fixpoint.
///
/// Runs the same safety and stratification checks as
/// [`crate::CompiledProgram::compile`] and honors the same derived-tuple
/// `budget`. The base facts are materialized into string storage up
/// front (this path is an oracle, not a serving path).
pub fn evaluate_strings(
    program: &Program,
    base: &Database,
    budget: usize,
) -> Result<StringEvaluation, DatalogError> {
    safety::check_program(program)?;
    let strat = stratify::stratify(program)?;
    let mut strata: Vec<Vec<&Rule>> = vec![Vec::new(); strat.count];
    for rule in &program.rules {
        strata[strat.of(&rule.head.pred)].push(rule);
    }

    let mut out = StringEvaluation::default();
    for pred in base.predicates() {
        for tuple in base.tuples(&pred) {
            out.insert(Arc::clone(&pred), tuple);
        }
    }
    // Program facts (ground heads, checked by safety) seed the run.
    for rule in &program.rules {
        if rule.is_fact() {
            let tuple: Tuple = rule
                .head
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(_) => unreachable!("safety rejects non-ground facts"),
                })
                .collect();
            if out.insert(rule.head.pred.clone(), tuple) {
                out.derived += 1;
            }
        }
    }

    let mut pending: Vec<(Arc<str>, Tuple)> = Vec::new();
    for rules in &strata {
        loop {
            for rule in rules {
                if rule.is_fact() {
                    continue;
                }
                evaluate_rule(rule, &out, &mut pending)?;
            }
            let mut changed = false;
            for (pred, tuple) in pending.drain(..) {
                if out.insert(pred, tuple) {
                    out.derived += 1;
                    changed = true;
                    if out.derived > budget {
                        return Err(DatalogError::BudgetExceeded { budget });
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(out)
}

type Env = HashMap<Arc<str>, Val>;

fn evaluate_rule(
    rule: &Rule,
    db: &StringEvaluation,
    pending: &mut Vec<(Arc<str>, Tuple)>,
) -> Result<(), DatalogError> {
    let mut env: Env = HashMap::new();
    solve(rule, 0, db, &mut env, pending)
}

fn solve(
    rule: &Rule,
    idx: usize,
    db: &StringEvaluation,
    env: &mut Env,
    pending: &mut Vec<(Arc<str>, Tuple)>,
) -> Result<(), DatalogError> {
    let Some(item) = rule.body.get(idx) else {
        // Body satisfied: instantiate the head (safety guarantees ground).
        let tuple: Tuple = rule
            .head
            .args
            .iter()
            .map(|t| match t {
                Term::Const(v) => v.clone(),
                Term::Var(v) => env[v].clone(),
            })
            .collect();
        pending.push((rule.head.pred.clone(), tuple));
        return Ok(());
    };
    match item {
        BodyItem::Pos(lit) => {
            if let Some(rel) = db.relations.get(&lit.pred) {
                for tuple in rel {
                    try_tuple(rule, idx, db, env, pending, lit, tuple)?;
                }
            }
            Ok(())
        }
        BodyItem::Neg(lit) => {
            // Safety guarantees all vars bound; ground the literal.
            let tuple: Tuple = lit
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(v) => env[v].clone(),
                })
                .collect();
            if !db.contains(&lit.pred, &tuple) {
                solve(rule, idx + 1, db, env, pending)?;
            }
            Ok(())
        }
        BodyItem::Cmp(lhs, op, rhs) => {
            let l = eval_expr(lhs, env)?;
            let r = eval_expr(rhs, env)?;
            if compare(&l, *op, &r)? {
                solve(rule, idx + 1, db, env, pending)?;
            }
            Ok(())
        }
        BodyItem::Assign(var, expr) => {
            let value = eval_expr(expr, env)?;
            match env.get(var) {
                Some(existing) => {
                    // Re-assignment acts as an equality check.
                    if *existing == value {
                        solve(rule, idx + 1, db, env, pending)?;
                    }
                    Ok(())
                }
                None => {
                    env.insert(var.clone(), value);
                    solve(rule, idx + 1, db, env, pending)?;
                    env.remove(var);
                    Ok(())
                }
            }
        }
    }
}

fn try_tuple(
    rule: &Rule,
    idx: usize,
    db: &StringEvaluation,
    env: &mut Env,
    pending: &mut Vec<(Arc<str>, Tuple)>,
    lit: &Literal,
    tuple: &[Val],
) -> Result<(), DatalogError> {
    if tuple.len() != lit.args.len() {
        return Ok(());
    }
    let mut bound_here: Vec<Arc<str>> = Vec::new();
    let mut ok = true;
    for (arg, val) in lit.args.iter().zip(tuple) {
        match arg {
            Term::Const(c) => {
                if c != val {
                    ok = false;
                    break;
                }
            }
            Term::Var(v) => match env.get(v) {
                Some(existing) => {
                    if existing != val {
                        ok = false;
                        break;
                    }
                }
                None => {
                    env.insert(v.clone(), val.clone());
                    bound_here.push(v.clone());
                }
            },
        }
    }
    if ok {
        solve(rule, idx + 1, db, env, pending)?;
    }
    for v in bound_here {
        env.remove(&v);
    }
    Ok(())
}

fn eval_expr(expr: &Expr, env: &Env) -> Result<Val, DatalogError> {
    match expr {
        Expr::Term(Term::Const(v)) => Ok(v.clone()),
        Expr::Term(Term::Var(v)) => Ok(env[v].clone()),
        Expr::Bin(l, op, r) => {
            let l = eval_expr(l, env)?;
            let r = eval_expr(r, env)?;
            let (Val::Int(a), Val::Int(b)) = (&l, &r) else {
                return Err(DatalogError::Eval {
                    message: format!("arithmetic on non-integers: {l} {op} {r}"),
                });
            };
            let out = match op {
                ArithOp::Add => a.checked_add(*b),
                ArithOp::Sub => a.checked_sub(*b),
                ArithOp::Mul => a.checked_mul(*b),
            };
            out.map(Val::Int).ok_or_else(|| DatalogError::Eval {
                message: format!("arithmetic overflow: {a} {op} {b}"),
            })
        }
    }
}

fn compare(l: &Val, op: CmpOp, r: &Val) -> Result<bool, DatalogError> {
    match op {
        CmpOp::Eq => Ok(l == r),
        CmpOp::Ne => Ok(l != r),
        _ => {
            let (Val::Int(a), Val::Int(b)) = (l, r) else {
                return Err(DatalogError::Eval {
                    message: format!("ordered comparison on non-integers: {l} {op} {r}"),
                });
            };
            Ok(match op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledProgram;
    use crate::eval::DEFAULT_BUDGET;

    fn program(src: &str) -> Program {
        Program::parse(src).unwrap()
    }

    #[test]
    fn reference_matches_interned_on_recursion_and_negation() {
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")] {
            db.add_fact("edge", vec![Val::str(a), Val::str(b)]);
        }
        let p = program(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).
             source(X) :- edge(X, Y), \\+reach(Y, X).",
        );
        let strings = evaluate_strings(&p, &db, DEFAULT_BUDGET).unwrap();
        let interned = CompiledProgram::compile(&p)
            .unwrap()
            .evaluate(Arc::new(db))
            .unwrap();
        for pred in ["reach", "source"] {
            let mut a = strings.tuples(pred);
            let mut b = interned.tuples(pred);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{pred}");
        }
        assert!(strings.contains("source", &[Val::str("a")]));
    }

    #[test]
    fn reference_honors_budget_and_arith_semantics() {
        let mut db = Database::new();
        for i in 0..20 {
            for j in 0..20 {
                db.add_fact("edge", vec![Val::int(i), Val::int(j)]);
            }
        }
        let p = program("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).");
        let err = evaluate_strings(&p, &db, 50).unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { budget: 50 }));

        let mut db = Database::new();
        db.add_fact("v", vec![Val::str("s")]);
        let p = program("w(Y) :- v(X), Y = X + 1.");
        let err = evaluate_strings(&p, &db, DEFAULT_BUDGET).unwrap_err();
        let interned_err = CompiledProgram::compile(&p)
            .unwrap()
            .evaluate_with(Arc::new(db), DEFAULT_BUDGET)
            .unwrap_err();
        assert_eq!(err, interned_err, "identical error payloads on both paths");
    }
}
