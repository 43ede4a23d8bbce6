//! Compile-once / evaluate-many execution of stratified programs.
//!
//! [`CompiledProgram`] is the immutable product of the safety and
//! stratification checks: rules grouped into strata, plus the set of
//! predicates derived in each stratum. Compiling happens once per GCC
//! (at parse/load time) and **lowers every rule to the interned IR**:
//! predicates and string constants become [`Sym`]s, variables become
//! dense per-rule slots, and the semi-naive join then compares `u32`
//! ids instead of hashing `Arc<str>`. Evaluation happens once per
//! (chain, usage) query and reads the chain's facts through a
//! [`LayeredDatabase`], so the shared fact base is never cloned per run.
//!
//! [`EvalScratch`] holds every transient buffer an evaluation needs
//! (derived-tuple overlay, variable bindings, semi-naive delta sets,
//! the pending queue). Reusing one scratch across evaluations via
//! [`CompiledProgram::evaluate_reusing`] makes a steady-state run
//! allocation-free: all buffers are cleared capacity-retained, and
//! small-arity tuples ([`crate::intern::ITuple`]) live inline.

use crate::ast::{ArithOp, BodyItem, CmpOp, Expr, Literal, Program, Rule, Term};
use crate::eval::{Database, EvalStats, DEFAULT_BUDGET};
use crate::intern::{intern, FxBuild, ITuple, ITupleSet, IVal, Sym, SymMap};
use crate::layered::LayeredDatabase;
use crate::{safety, stratify, DatalogError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A compiled term: an interned constant or a dense variable slot.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CTerm {
    Const(IVal),
    Var(u16),
}

/// A compiled literal: interned predicate plus compiled argument terms.
#[derive(Clone, Debug)]
pub(crate) struct CLit {
    pub(crate) pred: Sym,
    pub(crate) args: Vec<CTerm>,
}

/// A compiled arithmetic expression.
#[derive(Clone, Debug)]
pub(crate) enum CExpr {
    Term(CTerm),
    Bin(Box<CExpr>, ArithOp, Box<CExpr>),
}

/// One compiled body item.
#[derive(Clone, Debug)]
pub(crate) enum CItem {
    Pos(CLit),
    Neg(CLit),
    Cmp(CExpr, CmpOp, CExpr),
    Assign(u16, CExpr),
}

/// A rule lowered to the interned IR.
#[derive(Clone, Debug)]
pub(crate) struct CRule {
    pub(crate) head_pred: Sym,
    pub(crate) head_args: Vec<CTerm>,
    pub(crate) body: Vec<CItem>,
    /// Number of distinct variables (the env slot count).
    pub(crate) var_count: usize,
}

impl CRule {
    pub(crate) fn is_fact(&self) -> bool {
        self.body.is_empty()
    }
}

/// Reusable evaluation state: every buffer one run needs, retained
/// between runs so a warm evaluation performs no steady-state heap
/// allocation.
///
/// One scratch serves any number of sequential evaluations (of the same
/// or different programs). [`CompiledProgram::evaluate_reusing`] clears
/// the buffers capacity-retained at entry and leaves the derived tuples
/// in [`EvalScratch::overlay`] for the caller to query.
#[derive(Debug, Default)]
pub struct EvalScratch {
    overlay: Database,
    pending: Vec<(Sym, ITuple)>,
    delta: SymMap<ITupleSet>,
    next_delta: SymMap<ITupleSet>,
    env: Vec<Option<IVal>>,
}

impl EvalScratch {
    /// A fresh scratch (all buffers empty).
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// The overlay holding the most recent run's derived tuples.
    pub fn overlay(&self) -> &Database {
        &self.overlay
    }
}

/// A checked, pre-stratified program, ready to evaluate any number of
/// times against different fact bases.
///
/// Construction runs the safety (range-restriction) and stratification
/// checks; the result is immutable and cheap to share (`Arc`).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    program: Program,
    /// Rules lowered to the interned IR, aligned with `program.rules`.
    pub(crate) crules: Vec<CRule>,
    /// Non-fact rule indices grouped by stratum, in evaluation order.
    pub(crate) strata: Vec<Vec<usize>>,
    /// Predicate symbols derived in each stratum (drives semi-naive
    /// deltas).
    pub(crate) derived_syms: Vec<HashSet<Sym, FxBuild>>,
}

impl CompiledProgram {
    /// Check `program`, pre-compute its strata and lower it to the
    /// interned IR.
    pub fn compile(program: &Program) -> Result<CompiledProgram, DatalogError> {
        safety::check_program(program)?;
        let strat = stratify::stratify(program)?;
        let crules: Vec<CRule> = program
            .rules
            .iter()
            .map(compile_rule)
            .collect::<Result<_, _>>()?;
        let mut strata: Vec<Vec<usize>> = vec![Vec::new(); strat.count];
        let mut derived_syms: Vec<HashSet<Sym, FxBuild>> = vec![HashSet::default(); strat.count];
        for (i, rule) in program.rules.iter().enumerate() {
            let s = strat.of(&rule.head.pred);
            derived_syms[s].insert(crules[i].head_pred);
            if !crules[i].is_fact() {
                strata[s].push(i);
            }
        }
        Ok(CompiledProgram {
            program: program.clone(),
            crules,
            strata,
            derived_syms,
        })
    }

    /// The source program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// Evaluate to fixpoint over `db` with the default budget and return
    /// the extended database: the take-a-database / return-a-database
    /// contract for one-off programs (tests, GCC explanations). `db` is
    /// moved in, so no relation is cloned.
    pub fn run(&self, db: Database) -> Result<Database, DatalogError> {
        self.evaluate(Arc::new(db)).map(|layered| layered.flatten())
    }

    /// Evaluate to fixpoint over the shared `base` with the default
    /// budget. Derived tuples land in the returned overlay.
    pub fn evaluate(&self, base: Arc<crate::Database>) -> Result<LayeredDatabase, DatalogError> {
        self.evaluate_with(base, DEFAULT_BUDGET).map(|(db, _)| db)
    }

    /// Evaluate with an explicit derived-tuple budget, also returning
    /// run statistics.
    pub fn evaluate_with(
        &self,
        base: Arc<crate::Database>,
        budget: usize,
    ) -> Result<(LayeredDatabase, EvalStats), DatalogError> {
        let mut db = LayeredDatabase::new(base);
        let stats = self.evaluate_layered(&mut db, budget)?;
        Ok((db, stats))
    }

    /// [`CompiledProgram::evaluate_with`], reporting into `metrics`: a
    /// span times the run (latency histogram), success records the
    /// [`EvalStats`] counters/rounds, and
    /// errors count into `eval_errors` — with the span still recording
    /// the aborted run's duration.
    pub fn evaluate_metered(
        &self,
        base: Arc<crate::Database>,
        budget: usize,
        metrics: &crate::metrics::EvalMetrics,
    ) -> Result<(LayeredDatabase, EvalStats), DatalogError> {
        let _span = metrics.span();
        match self.evaluate_with(base, budget) {
            Ok((db, stats)) => {
                metrics.record(&stats);
                Ok((db, stats))
            }
            Err(e) => {
                metrics.eval_errors.inc();
                Err(e)
            }
        }
    }

    /// Evaluate in place over an existing layered view (the overlay may
    /// already hold facts from an earlier program in a pipeline).
    pub fn evaluate_layered(
        &self,
        db: &mut LayeredDatabase,
        budget: usize,
    ) -> Result<EvalStats, DatalogError> {
        let mut scratch = EvalScratch::new();
        self.evaluate_layered_scratch(db, budget, &mut scratch)
    }

    /// [`CompiledProgram::evaluate_layered`] reusing a caller-provided
    /// scratch for all transient evaluation state.
    pub fn evaluate_layered_scratch(
        &self,
        db: &mut LayeredDatabase,
        budget: usize,
        scratch: &mut EvalScratch,
    ) -> Result<EvalStats, DatalogError> {
        let (base, overlay) = db.split_mut();
        self.fixpoint(base, overlay, scratch, budget)
    }

    /// Evaluate against `base`, writing derived tuples into the
    /// scratch's own overlay (cleared capacity-retained at entry; query
    /// it via [`EvalScratch::overlay`] afterwards).
    ///
    /// This is the warm serving path: with a warmed scratch, a run
    /// performs zero steady-state heap allocations — bindings, deltas,
    /// the pending queue and the overlay's relation storage are all
    /// reused, and small-arity tuples stay inline.
    pub fn evaluate_reusing(
        &self,
        base: &Database,
        scratch: &mut EvalScratch,
        budget: usize,
    ) -> Result<EvalStats, DatalogError> {
        let mut overlay = std::mem::take(&mut scratch.overlay);
        overlay.clear_retaining();
        let result = self.fixpoint(base, &mut overlay, scratch, budget);
        scratch.overlay = overlay;
        result
    }

    /// [`CompiledProgram::evaluate_reusing`], reporting into `metrics`
    /// exactly like [`CompiledProgram::evaluate_metered`].
    pub fn evaluate_reusing_metered(
        &self,
        base: &Database,
        scratch: &mut EvalScratch,
        budget: usize,
        metrics: &crate::metrics::EvalMetrics,
    ) -> Result<EvalStats, DatalogError> {
        let _span = metrics.span();
        match self.evaluate_reusing(base, scratch, budget) {
            Ok(stats) => {
                metrics.record(&stats);
                Ok(stats)
            }
            Err(e) => {
                metrics.eval_errors.inc();
                Err(e)
            }
        }
    }

    /// The full fixpoint loop over (base, overlay) with scratch state.
    fn fixpoint(
        &self,
        base: &Database,
        overlay: &mut Database,
        scratch: &mut EvalScratch,
        budget: usize,
    ) -> Result<EvalStats, DatalogError> {
        // A failed previous run may have left residue.
        scratch.pending.clear();
        let mut stats = EvalStats::default();
        // Program facts (ground heads, checked by safety) seed the run.
        for crule in &self.crules {
            if crule.is_fact() {
                let mut tuple = ITuple::new();
                for arg in &crule.head_args {
                    tuple.push(match arg {
                        CTerm::Const(v) => *v,
                        CTerm::Var(_) => unreachable!("safety rejects non-ground facts"),
                    });
                }
                if !base.icontains(crule.head_pred, tuple.as_slice())
                    && overlay.add_ifact(crule.head_pred, tuple)
                {
                    stats.derived += 1;
                }
            }
        }
        for (stratum_idx, rule_indices) in self.strata.iter().enumerate() {
            if rule_indices.is_empty() {
                continue;
            }
            self.run_stratum_semi_naive(
                rule_indices,
                &self.derived_syms[stratum_idx],
                base,
                overlay,
                scratch,
                budget,
                &mut stats,
            )?;
        }
        Ok(stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_stratum_semi_naive(
        &self,
        rules: &[usize],
        stratum_syms: &HashSet<Sym, FxBuild>,
        base: &Database,
        overlay: &mut Database,
        scratch: &mut EvalScratch,
        budget: usize,
        stats: &mut EvalStats,
    ) -> Result<(), DatalogError> {
        // Round 0: full evaluation; derived tuples seed the delta. The
        // delta maps are reused across runs: sets are cleared
        // capacity-retained, and stale keys with empty sets are inert.
        stats.rounds += 1;
        for set in scratch.delta.values_mut() {
            set.clear();
        }
        for &ri in rules {
            stats.rule_applications += 1;
            evaluate_crule(
                &self.crules[ri],
                base,
                overlay,
                None,
                &mut scratch.env,
                &mut scratch.pending,
            )?;
        }
        for (pred, tuple) in scratch.pending.drain(..) {
            if !base.icontains(pred, tuple.as_slice()) && overlay.add_ifact(pred, tuple.clone()) {
                stats.derived += 1;
                scratch.delta.entry(pred).or_default().insert(tuple);
            }
        }
        check_budget(stats, budget)?;

        // Subsequent rounds: only rule instantiations touching the delta.
        while scratch.delta.values().any(|s| !s.is_empty()) {
            stats.rounds += 1;
            for set in scratch.next_delta.values_mut() {
                set.clear();
            }
            for &ri in rules {
                let rule = &self.crules[ri];
                // For each positive literal over a predicate in this
                // stratum, re-run with that literal restricted to delta.
                for (idx, item) in rule.body.iter().enumerate() {
                    let CItem::Pos(lit) = item else { continue };
                    if !stratum_syms.contains(&lit.pred) {
                        continue;
                    }
                    let Some(dset) = scratch.delta.get(&lit.pred) else {
                        continue;
                    };
                    if dset.is_empty() {
                        continue;
                    }
                    stats.rule_applications += 1;
                    evaluate_crule(
                        rule,
                        base,
                        overlay,
                        Some((idx, dset)),
                        &mut scratch.env,
                        &mut scratch.pending,
                    )?;
                }
            }
            for (pred, tuple) in scratch.pending.drain(..) {
                if !base.icontains(pred, tuple.as_slice()) && overlay.add_ifact(pred, tuple.clone())
                {
                    stats.derived += 1;
                    scratch.next_delta.entry(pred).or_default().insert(tuple);
                }
            }
            check_budget(stats, budget)?;
            std::mem::swap(&mut scratch.delta, &mut scratch.next_delta);
        }
        Ok(())
    }
}

pub(crate) fn check_budget(stats: &EvalStats, budget: usize) -> Result<(), DatalogError> {
    if stats.derived > budget {
        Err(DatalogError::BudgetExceeded { budget })
    } else {
        Ok(())
    }
}

/// Upper bound on per-literal arity: newly-bound argument positions are
/// tracked in a `u128` bitmask so backtracking never allocates.
const MAX_LITERAL_ARITY: usize = 128;

/// Dense per-rule variable slot assignment (first occurrence order).
struct VarSlots<'a> {
    map: HashMap<&'a str, u16>,
}

impl<'a> VarSlots<'a> {
    fn slot(&mut self, name: &'a str) -> Result<u16, DatalogError> {
        if let Some(&s) = self.map.get(name) {
            return Ok(s);
        }
        let next = u16::try_from(self.map.len()).map_err(|_| DatalogError::Eval {
            message: format!("rule exceeds {} variables", u16::MAX),
        })?;
        self.map.insert(name, next);
        Ok(next)
    }

    fn cterm(&mut self, term: &'a Term) -> Result<CTerm, DatalogError> {
        Ok(match term {
            Term::Const(v) => CTerm::Const(IVal::from_val(v)),
            Term::Var(v) => CTerm::Var(self.slot(v)?),
        })
    }

    fn clit(&mut self, lit: &'a Literal) -> Result<CLit, DatalogError> {
        if lit.args.len() > MAX_LITERAL_ARITY {
            return Err(DatalogError::Eval {
                message: format!("literal `{lit}` exceeds arity {MAX_LITERAL_ARITY}"),
            });
        }
        Ok(CLit {
            pred: intern(&lit.pred),
            args: lit
                .args
                .iter()
                .map(|t| self.cterm(t))
                .collect::<Result<_, _>>()?,
        })
    }

    fn cexpr(&mut self, expr: &'a Expr) -> Result<CExpr, DatalogError> {
        Ok(match expr {
            Expr::Term(t) => CExpr::Term(self.cterm(t)?),
            Expr::Bin(l, op, r) => {
                CExpr::Bin(Box::new(self.cexpr(l)?), *op, Box::new(self.cexpr(r)?))
            }
        })
    }
}

/// Lower one rule to the interned IR, assigning dense variable slots.
fn compile_rule(rule: &Rule) -> Result<CRule, DatalogError> {
    let mut slots = VarSlots {
        map: HashMap::new(),
    };
    let mut body = Vec::with_capacity(rule.body.len());
    for item in &rule.body {
        body.push(match item {
            BodyItem::Pos(lit) => CItem::Pos(slots.clit(lit)?),
            BodyItem::Neg(lit) => CItem::Neg(slots.clit(lit)?),
            BodyItem::Cmp(l, op, r) => CItem::Cmp(slots.cexpr(l)?, *op, slots.cexpr(r)?),
            BodyItem::Assign(var, expr) => {
                let e = slots.cexpr(expr)?;
                CItem::Assign(slots.slot(var)?, e)
            }
        });
    }
    let head_args = rule
        .head
        .args
        .iter()
        .map(|t| slots.cterm(t))
        .collect::<Result<Vec<_>, _>>()?;
    let var_count = slots.map.len();
    Ok(CRule {
        head_pred: intern(&rule.head.pred),
        head_args,
        body,
        var_count,
    })
}

/// Evaluate one compiled rule against the (base, overlay) view, pushing
/// each derived head tuple onto `pending`. When `delta` is
/// `Some((idx, tuples))`, body literal `idx` iterates over `tuples`
/// instead of the full relation.
fn evaluate_crule(
    rule: &CRule,
    base: &Database,
    overlay: &Database,
    delta: Option<(usize, &ITupleSet)>,
    env: &mut Vec<Option<IVal>>,
    pending: &mut Vec<(Sym, ITuple)>,
) -> Result<(), DatalogError> {
    env.clear();
    env.resize(rule.var_count, None);
    solve(rule, 0, base, overlay, delta, env, pending)
}

#[allow(clippy::too_many_arguments)]
fn solve(
    rule: &CRule,
    idx: usize,
    base: &Database,
    overlay: &Database,
    delta: Option<(usize, &ITupleSet)>,
    env: &mut Vec<Option<IVal>>,
    pending: &mut Vec<(Sym, ITuple)>,
) -> Result<(), DatalogError> {
    let Some(item) = rule.body.get(idx) else {
        // Body satisfied: instantiate the head (safety guarantees ground).
        let mut tuple = ITuple::new();
        for arg in &rule.head_args {
            tuple.push(match arg {
                CTerm::Const(v) => *v,
                CTerm::Var(i) => env[*i as usize].expect("safety: head vars bound"),
            });
        }
        pending.push((rule.head_pred, tuple));
        return Ok(());
    };
    match item {
        CItem::Pos(lit) => {
            // Iterate either the delta set (for the designated literal)
            // or the stored relation — in both layers, base first —
            // using the first-arg index when possible.
            if let Some((didx, dset)) = delta {
                if didx == idx {
                    for tuple in dset {
                        try_tuple(rule, idx, base, overlay, delta, env, pending, lit, tuple)?;
                    }
                    return Ok(());
                }
            }
            // Index lookup when the first argument is bound.
            let first_bound: Option<IVal> = lit.args.first().and_then(|t| match t {
                CTerm::Const(v) => Some(*v),
                CTerm::Var(i) => env[*i as usize],
            });
            for layer in [base, overlay] {
                let Some(rel) = layer.relation(lit.pred) else {
                    continue;
                };
                if let Some(key) = first_bound {
                    if let Some(indices) = rel.first_arg.get(&key) {
                        for &i in indices {
                            try_tuple(
                                rule,
                                idx,
                                base,
                                overlay,
                                delta,
                                env,
                                pending,
                                lit,
                                &rel.tuples[i as usize],
                            )?;
                        }
                    }
                    continue;
                }
                for tuple in &rel.tuples {
                    try_tuple(rule, idx, base, overlay, delta, env, pending, lit, tuple)?;
                }
            }
            Ok(())
        }
        CItem::Neg(lit) => {
            // Safety guarantees all vars bound; ground the literal.
            let mut tuple = ITuple::new();
            for arg in &lit.args {
                tuple.push(match arg {
                    CTerm::Const(v) => *v,
                    CTerm::Var(i) => env[*i as usize].expect("safety: negation vars bound"),
                });
            }
            if !overlay.icontains(lit.pred, tuple.as_slice())
                && !base.icontains(lit.pred, tuple.as_slice())
            {
                solve(rule, idx + 1, base, overlay, delta, env, pending)?;
            }
            Ok(())
        }
        CItem::Cmp(lhs, op, rhs) => {
            let l = eval_cexpr(lhs, env)?;
            let r = eval_cexpr(rhs, env)?;
            if compare(l, *op, r)? {
                solve(rule, idx + 1, base, overlay, delta, env, pending)?;
            }
            Ok(())
        }
        CItem::Assign(var, expr) => {
            let value = eval_cexpr(expr, env)?;
            match env[*var as usize] {
                Some(existing) => {
                    // Re-assignment acts as an equality check.
                    if existing == value {
                        solve(rule, idx + 1, base, overlay, delta, env, pending)?;
                    }
                    Ok(())
                }
                None => {
                    env[*var as usize] = Some(value);
                    solve(rule, idx + 1, base, overlay, delta, env, pending)?;
                    env[*var as usize] = None;
                    Ok(())
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn try_tuple(
    rule: &CRule,
    idx: usize,
    base: &Database,
    overlay: &Database,
    delta: Option<(usize, &ITupleSet)>,
    env: &mut Vec<Option<IVal>>,
    pending: &mut Vec<(Sym, ITuple)>,
    lit: &CLit,
    tuple: &ITuple,
) -> Result<(), DatalogError> {
    let vals = tuple.as_slice();
    if vals.len() != lit.args.len() {
        return Ok(());
    }
    // Track which argument positions bound a variable in a bitmask, so
    // backtracking unbinds without a heap-allocated list.
    let mut bound_mask: u128 = 0;
    let mut ok = true;
    for (i, (arg, val)) in lit.args.iter().zip(vals).enumerate() {
        match arg {
            CTerm::Const(c) => {
                if c != val {
                    ok = false;
                    break;
                }
            }
            CTerm::Var(v) => match env[*v as usize] {
                Some(existing) => {
                    if existing != *val {
                        ok = false;
                        break;
                    }
                }
                None => {
                    env[*v as usize] = Some(*val);
                    bound_mask |= 1 << i;
                }
            },
        }
    }
    if ok {
        solve(rule, idx + 1, base, overlay, delta, env, pending)?;
    }
    if bound_mask != 0 {
        for (i, arg) in lit.args.iter().enumerate() {
            if bound_mask & (1 << i) != 0 {
                if let CTerm::Var(v) = arg {
                    env[*v as usize] = None;
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn eval_cexpr(expr: &CExpr, env: &[Option<IVal>]) -> Result<IVal, DatalogError> {
    match expr {
        CExpr::Term(CTerm::Const(v)) => Ok(*v),
        CExpr::Term(CTerm::Var(i)) => Ok(env[*i as usize].expect("safety: expr vars bound")),
        CExpr::Bin(l, op, r) => {
            let l = eval_cexpr(l, env)?;
            let r = eval_cexpr(r, env)?;
            let (IVal::Int(a), IVal::Int(b)) = (l, r) else {
                return Err(DatalogError::Eval {
                    message: format!(
                        "arithmetic on non-integers: {} {op} {}",
                        l.to_val(),
                        r.to_val()
                    ),
                });
            };
            let out = match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                ArithOp::Mul => a.checked_mul(b),
            };
            out.map(IVal::Int).ok_or_else(|| DatalogError::Eval {
                message: format!("arithmetic overflow: {a} {op} {b}"),
            })
        }
    }
}

pub(crate) fn compare(l: IVal, op: CmpOp, r: IVal) -> Result<bool, DatalogError> {
    match op {
        CmpOp::Eq => Ok(l == r),
        CmpOp::Ne => Ok(l != r),
        _ => {
            let (IVal::Int(a), IVal::Int(b)) = (l, r) else {
                return Err(DatalogError::Eval {
                    message: format!(
                        "ordered comparison on non-integers: {} {op} {}",
                        l.to_val(),
                        r.to_val()
                    ),
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
    use crate::ast::Val;
    use crate::Database;

    fn compiled(src: &str) -> CompiledProgram {
        CompiledProgram::compile(&Program::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn shared_base_evaluates_many_without_clone() {
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.add_fact("edge", vec![Val::str(a), Val::str(b)]);
        }
        let base = Arc::new(db);
        let reach = compiled("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).");
        let inv = compiled("back(X,Y) :- edge(Y,X).");
        // Two programs share one base; each gets its own overlay.
        let r1 = reach.evaluate(Arc::clone(&base)).unwrap();
        let r2 = inv.evaluate(Arc::clone(&base)).unwrap();
        assert!(r1.contains("reach", &[Val::str("a"), Val::str("d")]));
        assert!(r2.contains("back", &[Val::str("b"), Val::str("a")]));
        // Overlays are independent and the base saw no writes.
        assert!(!r1.contains("back", &[Val::str("b"), Val::str("a")]));
        assert_eq!(base.len(), 3);
        // Only the original strong count plus the two result layers.
        assert_eq!(Arc::strong_count(&base), 3);
    }

    #[test]
    fn program_facts_land_in_overlay() {
        let out = compiled("p(1). q(X) :- p(X).")
            .evaluate(Arc::new(Database::new()))
            .unwrap();
        assert!(out.base().is_empty());
        assert!(out.overlay().contains("p", &[Val::int(1)]));
        assert!(out.overlay().contains("q", &[Val::int(1)]));
    }

    #[test]
    fn budget_respected() {
        let mut db = Database::new();
        for i in 0..40 {
            for j in 0..40 {
                db.add_fact("edge", vec![Val::int(i), Val::int(j)]);
            }
        }
        let program = compiled("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).");
        let err = program.evaluate_with(Arc::new(db), 100).unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { budget: 100 }));
    }

    #[test]
    fn metered_evaluation_reports_into_registry() {
        use crate::metrics::EvalMetrics;
        use nrslb_obs::{Registry, VirtualClock};

        let registry = Registry::with_clock(VirtualClock::shared(0));
        let metrics = EvalMetrics::new(&registry);
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c")] {
            db.add_fact("edge", vec![Val::str(a), Val::str(b)]);
        }
        let base = Arc::new(db);
        let program = compiled("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).");
        let (out, stats) = program
            .evaluate_metered(Arc::clone(&base), DEFAULT_BUDGET, &metrics)
            .unwrap();
        assert!(out.contains("reach", &[Val::str("a"), Val::str("c")]));
        assert_eq!(metrics.evaluations.get(), 1);
        assert_eq!(metrics.tuples_derived.get(), stats.derived as u64);
        assert_eq!(
            metrics.rule_applications.get(),
            stats.rule_applications as u64
        );
        assert_eq!(metrics.rounds.count(), 1);
        assert_eq!(metrics.latency_us.count(), 1, "span records the run");

        // A budget abort counts as an error and still times the run.
        let err = program.evaluate_metered(base, 1, &metrics).unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { .. }));
        assert_eq!(
            metrics.evaluations.get(),
            1,
            "failed run not counted as success"
        );
        assert_eq!(metrics.eval_errors.get(), 1);
        assert_eq!(metrics.latency_us.count(), 2, "error path still recorded");
    }

    #[test]
    fn negation_sees_base_facts() {
        let mut db = Database::new();
        db.add_fact("cert", vec![Val::str("c1")]);
        db.add_fact("cert", vec![Val::str("c2")]);
        db.add_fact("revoked", vec![Val::str("c1")]);
        let out = compiled(
            "bad(X) :- cert(X), revoked(X).
             good(X) :- cert(X), \\+bad(X).",
        )
        .evaluate(Arc::new(db))
        .unwrap();
        assert!(out.contains("good", &[Val::str("c2")]));
        assert!(!out.contains("good", &[Val::str("c1")]));
    }

    #[test]
    fn pipeline_evaluation_over_one_overlay() {
        // Two compiled programs run into the same layered view: the
        // second sees the first's derivations.
        let mut db = Database::new();
        db.add_fact("edge", vec![Val::str("a"), Val::str("b")]);
        let mut layered = LayeredDatabase::new(Arc::new(db));
        compiled("reach(X,Y) :- edge(X,Y).")
            .evaluate_layered(&mut layered, DEFAULT_BUDGET)
            .unwrap();
        compiled("seen(X) :- reach(X, _).")
            .evaluate_layered(&mut layered, DEFAULT_BUDGET)
            .unwrap();
        assert!(layered.contains("seen", &[Val::str("a")]));
    }

    #[test]
    fn scratch_reuse_is_correct_across_programs_and_runs() {
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.add_fact("edge", vec![Val::str(a), Val::str(b)]);
        }
        let reach = compiled("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).");
        let inv = compiled("back(X,Y) :- edge(Y,X). lonely(X) :- edge(X, Y), \\+back(X, Y).");
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            let stats = reach
                .evaluate_reusing(&db, &mut scratch, DEFAULT_BUDGET)
                .unwrap();
            assert_eq!(stats.derived, 6);
            assert!(scratch
                .overlay()
                .contains("reach", &[Val::str("a"), Val::str("d")]));
            // A different program reuses the same buffers; no residue
            // from the previous run leaks into its results.
            inv.evaluate_reusing(&db, &mut scratch, DEFAULT_BUDGET)
                .unwrap();
            assert!(scratch
                .overlay()
                .contains("back", &[Val::str("b"), Val::str("a")]));
            assert!(!scratch
                .overlay()
                .contains("reach", &[Val::str("a"), Val::str("d")]));
        }
    }

    #[test]
    fn scratch_matches_fresh_evaluation() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_fact("edge", vec![Val::int(i), Val::int(i + 1)]);
        }
        let program = compiled(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).
             source(X) :- edge(X, Y), \\+reach(Y, X).",
        );
        let base = Arc::new(db);
        let mut scratch = EvalScratch::new();
        // Twice: the second run reuses the first run's buffers.
        for _ in 0..2 {
            let fresh = program.evaluate(Arc::clone(&base)).unwrap();
            program
                .evaluate_reusing(&base, &mut scratch, DEFAULT_BUDGET)
                .unwrap();
            for pred in ["reach", "source"] {
                let mut a = fresh.overlay().tuples(pred);
                let mut b = scratch.overlay().tuples(pred);
                a.sort();
                b.sort();
                assert_eq!(a, b, "{pred}");
            }
        }
    }
}
