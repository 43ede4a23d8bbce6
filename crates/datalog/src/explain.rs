//! Provenance: *why* does a derived fact hold?
//!
//! The paper picks Datalog because its semantics are "easy to reason
//! about" (§3); this module makes that operational. After evaluation,
//! [`explain`] reconstructs a derivation tree for any derived tuple —
//! which rule fired, under which variable bindings, supported by which
//! facts — producing the audit trail an operator wants when a GCC
//! accepts or rejects a chain (`nrslb-core` exposes this as
//! `explain_gcc`).
//!
//! Reconstruction re-runs individual rule bodies against the *final*
//! database, which is sound for stratified programs: every tuple in the
//! fixpoint has at least one rule instantiation supported by the
//! fixpoint itself.

use crate::ast::{BodyItem, Program, Rule, Term, Val};
use crate::eval::{Database, Tuple};
use crate::DatalogError;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A derivation tree for one tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Derivation {
    /// The tuple is a base (EDB) fact: present in the database but not
    /// derivable by any rule head.
    Fact {
        /// Predicate name.
        pred: Arc<str>,
        /// The tuple.
        tuple: Tuple,
    },
    /// The tuple was derived by a rule.
    Rule {
        /// Predicate name.
        pred: Arc<str>,
        /// The tuple.
        tuple: Tuple,
        /// The rule, pretty-printed.
        rule: String,
        /// Sub-derivations for each positive body literal, in order.
        premises: Vec<Derivation>,
        /// Negative literals that held (shown ground).
        negations: Vec<String>,
        /// Comparisons/assignments that held (shown ground).
        guards: Vec<String>,
    },
}

impl Derivation {
    /// The derived tuple's predicate.
    pub fn pred(&self) -> &str {
        match self {
            Derivation::Fact { pred, .. } | Derivation::Rule { pred, .. } => pred,
        }
    }

    /// Render as an indented proof tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let indent = "  ".repeat(depth);
        match self {
            Derivation::Fact { pred, tuple } => {
                writeln!(out, "{indent}{pred}{} [fact]", render_tuple(tuple)).unwrap();
            }
            Derivation::Rule {
                pred,
                tuple,
                rule,
                premises,
                negations,
                guards,
            } => {
                writeln!(out, "{indent}{pred}{} because {rule}", render_tuple(tuple)).unwrap();
                for guard in guards {
                    writeln!(out, "{indent}  | {guard} [holds]").unwrap();
                }
                for negation in negations {
                    writeln!(out, "{indent}  | not {negation} [absent]").unwrap();
                }
                for premise in premises {
                    premise.render_into(out, depth + 1);
                }
            }
        }
    }
}

fn render_tuple(tuple: &[Val]) -> String {
    let mut out = String::from("(");
    for (i, v) in tuple.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(')');
    out
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Explain why `pred(tuple)` holds in `db` under `program`.
///
/// Returns `None` when the tuple is not in the database at all. The
/// `db` must be a fixpoint of the program (the output of
/// [`crate::CompiledProgram::run`]).
///
/// ```
/// use nrslb_datalog::{explain::explain, CompiledProgram, Database, Program, Val};
///
/// let program = Program::parse("p(X) :- q(X), \\+r(X).").unwrap();
/// let mut db = Database::new();
/// db.add_fact("q", vec![Val::int(1)]);
/// let out = CompiledProgram::compile(&program).unwrap().run(db).unwrap();
/// let tree = explain(&program, &out, "p", &[Val::int(1)]).unwrap().unwrap();
/// assert!(tree.render().contains("not r(1) [absent]"));
/// ```
pub fn explain(
    program: &Program,
    db: &Database,
    pred: &str,
    tuple: &[Val],
) -> Result<Option<Derivation>, DatalogError> {
    let mut depth_guard = 0usize;
    explain_inner(program, db, pred, tuple, &mut depth_guard)
}

const MAX_EXPLAIN_DEPTH: usize = 10_000;

fn explain_inner(
    program: &Program,
    db: &Database,
    pred: &str,
    tuple: &[Val],
    budget: &mut usize,
) -> Result<Option<Derivation>, DatalogError> {
    if !db.contains(pred, tuple) {
        return Ok(None);
    }
    *budget += 1;
    if *budget > MAX_EXPLAIN_DEPTH {
        return Err(DatalogError::Eval {
            message: "explanation exceeded depth budget".to_string(),
        });
    }
    // Try each rule whose head matches; prefer rules with fewer body
    // atoms (facts first) so explanations stay small.
    let mut rules: Vec<&Rule> = program
        .rules
        .iter()
        .filter(|r| &*r.head.pred == pred && r.head.args.len() == tuple.len())
        .collect();
    rules.sort_by_key(|r| r.body.len());
    for rule in rules {
        if let Some(derivation) = try_rule(program, db, rule, tuple, budget)? {
            return Ok(Some(derivation));
        }
    }
    // No rule derives it: a base fact.
    Ok(Some(Derivation::Fact {
        pred: Arc::from(pred),
        tuple: tuple.to_vec(),
    }))
}

type Env = HashMap<Arc<str>, Val>;

fn try_rule(
    program: &Program,
    db: &Database,
    rule: &Rule,
    tuple: &[Val],
    budget: &mut usize,
) -> Result<Option<Derivation>, DatalogError> {
    // Bind the head against the tuple.
    let mut env: Env = HashMap::new();
    for (arg, val) in rule.head.args.iter().zip(tuple) {
        match arg {
            Term::Const(c) => {
                if c != val {
                    return Ok(None);
                }
            }
            Term::Var(v) => match env.get(v) {
                Some(existing) if existing != val => return Ok(None),
                _ => {
                    env.insert(v.clone(), val.clone());
                }
            },
        }
    }
    // Search for a satisfying body instantiation against the fixpoint.
    match solve_body(db, rule, 0, &mut env)? {
        Some(bindings) => {
            // Build sub-derivations under the found bindings.
            let mut premises = Vec::new();
            let mut negations = Vec::new();
            let mut guards = Vec::new();
            for item in &rule.body {
                match item {
                    BodyItem::Pos(lit) => {
                        let ground: Tuple = lit
                            .args
                            .iter()
                            .map(|t| ground_term(t, &bindings))
                            .collect::<Option<_>>()
                            .expect("solved body is ground");
                        let sub = explain_inner(program, db, &lit.pred, &ground, budget)?
                            .expect("premise tuple is in the fixpoint");
                        premises.push(sub);
                    }
                    BodyItem::Neg(lit) => {
                        let ground: Tuple = lit
                            .args
                            .iter()
                            .map(|t| ground_term(t, &bindings))
                            .collect::<Option<_>>()
                            .expect("solved body is ground");
                        negations.push(format!("{}{}", lit.pred, render_tuple(&ground)));
                    }
                    BodyItem::Cmp(l, op, r) => {
                        guards.push(format!(
                            "{} {op} {}",
                            render_expr(l, &bindings),
                            render_expr(r, &bindings)
                        ));
                    }
                    BodyItem::Assign(var, expr) => {
                        guards.push(format!(
                            "{} = {} = {}",
                            var,
                            expr,
                            bindings
                                .get(var)
                                .map(|v| v.to_string())
                                .unwrap_or_else(|| "?".into())
                        ));
                    }
                }
            }
            Ok(Some(Derivation::Rule {
                pred: rule.head.pred.clone(),
                tuple: tuple.to_vec(),
                rule: rule.to_string(),
                premises,
                negations,
                guards,
            }))
        }
        None => Ok(None),
    }
}

fn ground_term(term: &Term, env: &Env) -> Option<Val> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Var(v) => env.get(v).cloned(),
    }
}

fn render_expr(expr: &crate::ast::Expr, env: &Env) -> String {
    use crate::ast::Expr;
    match expr {
        Expr::Term(t) => ground_term(t, env)
            .map(|v| v.to_string())
            .unwrap_or_else(|| t.to_string()),
        Expr::Bin(l, op, r) => format!("({} {op} {})", render_expr(l, env), render_expr(r, env)),
    }
}

/// Depth-first search for one satisfying instantiation of the body
/// against the fixpoint database; returns the complete bindings.
fn solve_body(
    db: &Database,
    rule: &Rule,
    idx: usize,
    env: &mut Env,
) -> Result<Option<Env>, DatalogError> {
    use crate::ast::CmpOp;
    let Some(item) = rule.body.get(idx) else {
        return Ok(Some(env.clone()));
    };
    match item {
        BodyItem::Pos(lit) => {
            for stored in db.tuples(&lit.pred) {
                if stored.len() != lit.args.len() {
                    continue;
                }
                let mut bound_here = Vec::new();
                let mut ok = true;
                for (arg, val) in lit.args.iter().zip(&stored) {
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
                    if let Some(found) = solve_body(db, rule, idx + 1, env)? {
                        return Ok(Some(found));
                    }
                }
                for v in bound_here {
                    env.remove(&v);
                }
            }
            Ok(None)
        }
        BodyItem::Neg(lit) => {
            let ground: Option<Tuple> = lit.args.iter().map(|t| ground_term(t, env)).collect();
            let ground = ground.ok_or_else(|| DatalogError::Eval {
                message: "unsafe negation during explanation".to_string(),
            })?;
            if db.contains(&lit.pred, &ground) {
                Ok(None)
            } else {
                solve_body(db, rule, idx + 1, env)
            }
        }
        BodyItem::Cmp(l, op, r) => {
            let lv = eval_expr(l, env)?;
            let rv = eval_expr(r, env)?;
            let holds = match (op, &lv, &rv) {
                (CmpOp::Eq, a, b) => a == b,
                (CmpOp::Ne, a, b) => a != b,
                (_, Val::Int(a), Val::Int(b)) => match op {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    _ => unreachable!(),
                },
                _ => false,
            };
            if holds {
                solve_body(db, rule, idx + 1, env)
            } else {
                Ok(None)
            }
        }
        BodyItem::Assign(var, expr) => {
            let value = eval_expr(expr, env)?;
            match env.get(var) {
                Some(existing) if *existing != value => Ok(None),
                Some(_) => solve_body(db, rule, idx + 1, env),
                None => {
                    env.insert(var.clone(), value);
                    let result = solve_body(db, rule, idx + 1, env)?;
                    if result.is_none() {
                        env.remove(var);
                    }
                    Ok(result)
                }
            }
        }
    }
}

fn eval_expr(expr: &crate::ast::Expr, env: &Env) -> Result<Val, DatalogError> {
    use crate::ast::{ArithOp, Expr};
    match expr {
        Expr::Term(t) => ground_term(t, env).ok_or_else(|| DatalogError::Eval {
            message: "unbound variable during explanation".to_string(),
        }),
        Expr::Bin(l, op, r) => {
            let (Val::Int(a), Val::Int(b)) = (eval_expr(l, env)?, eval_expr(r, env)?) else {
                return Err(DatalogError::Eval {
                    message: "arithmetic on non-integers".to_string(),
                });
            };
            let out = match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                ArithOp::Mul => a.checked_mul(b),
            };
            out.map(Val::Int).ok_or_else(|| DatalogError::Eval {
                message: "arithmetic overflow".to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, Program};

    fn fixpoint(src: &str, facts: &[(&str, Vec<Val>)]) -> (Program, Database) {
        let program = Program::parse(src).unwrap();
        let mut db = Database::new();
        for (pred, tuple) in facts {
            db.add_fact(*pred, tuple.clone());
        }
        let out = CompiledProgram::compile(&program).unwrap().run(db).unwrap();
        (program, out)
    }

    #[test]
    fn fact_explanation() {
        let (program, db) = fixpoint("p(X) :- q(X).", &[("q", vec![Val::int(1)])]);
        let d = explain(&program, &db, "q", &[Val::int(1)])
            .unwrap()
            .unwrap();
        assert_eq!(
            d,
            Derivation::Fact {
                pred: Arc::from("q"),
                tuple: vec![Val::int(1)]
            }
        );
    }

    #[test]
    fn rule_explanation_with_premises() {
        let (program, db) = fixpoint(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).",
            &[
                ("edge", vec![Val::str("a"), Val::str("b")]),
                ("edge", vec![Val::str("b"), Val::str("c")]),
            ],
        );
        let d = explain(&program, &db, "reach", &[Val::str("a"), Val::str("c")])
            .unwrap()
            .unwrap();
        let Derivation::Rule { premises, .. } = &d else {
            panic!("expected a rule derivation");
        };
        assert_eq!(premises.len(), 2);
        let rendered = d.render();
        assert!(rendered.contains("reach(\"a\", \"c\")"));
        assert!(rendered.contains("edge(\"b\", \"c\")"));
        assert!(rendered.contains("[fact]"));
    }

    #[test]
    fn negation_and_guard_shown() {
        let (program, db) = fixpoint(
            r#"valid(C) :- cert(C), notBefore(C, NB), \+revoked(C), NB < 100."#,
            &[
                ("cert", vec![Val::str("x")]),
                ("notBefore", vec![Val::str("x"), Val::int(50)]),
            ],
        );
        let d = explain(&program, &db, "valid", &[Val::str("x")])
            .unwrap()
            .unwrap();
        let rendered = d.render();
        assert!(
            rendered.contains("not revoked(\"x\") [absent]"),
            "{rendered}"
        );
        assert!(rendered.contains("50 < 100 [holds]"), "{rendered}");
    }

    #[test]
    fn arithmetic_binding_shown() {
        let (program, db) = fixpoint(
            "short(C) :- span(C, A, B), L = B - A, L < 10.",
            &[("span", vec![Val::str("c"), Val::int(3), Val::int(8)])],
        );
        let d = explain(&program, &db, "short", &[Val::str("c")])
            .unwrap()
            .unwrap();
        let rendered = d.render();
        assert!(rendered.contains("L = (B - A) = 5"), "{rendered}");
    }

    #[test]
    fn absent_tuple_returns_none() {
        let (program, db) = fixpoint("p(X) :- q(X).", &[("q", vec![Val::int(1)])]);
        assert_eq!(explain(&program, &db, "p", &[Val::int(2)]).unwrap(), None);
    }

    #[test]
    fn recursive_explanation_terminates() {
        // Cyclic graph: the explanation must not loop forever.
        let (program, db) = fixpoint(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).",
            &[
                ("edge", vec![Val::str("a"), Val::str("b")]),
                ("edge", vec![Val::str("b"), Val::str("a")]),
            ],
        );
        let d = explain(&program, &db, "reach", &[Val::str("a"), Val::str("a")]).unwrap();
        assert!(d.is_some());
    }
}
