//! Fact storage, evaluation statistics and the derived-tuple budget.
//!
//! Storage is **interned**: relations are keyed by [`Sym`] and hold
//! [`ITuple`]s, so joins and dedup compare `u32` ids instead of hashing
//! `Arc<str>` (see [`mod@crate::intern`]). The [`Val`]-based methods remain
//! the parse/display boundary and convert at the edge — membership
//! probes use the non-inserting lookup, so asking about a never-seen
//! string cannot grow the symbol table.
//!
//! The evaluator itself lives in [`crate::compile`]:
//! [`crate::CompiledProgram::run`] keeps the take-a-database /
//! return-a-database contract, while shared hot paths evaluate the
//! compiled program directly over a layered view.

use crate::ast::Val;
use crate::intern::{ITuple, ITupleSet, IVal, IValMap, Sym, SymMap};
use std::sync::Arc;

/// A ground tuple at the AST boundary.
pub type Tuple = Vec<Val>;

/// A single relation: deduplicated interned tuples plus a first-argument
/// index.
#[derive(Clone, Debug, Default)]
pub(crate) struct Relation {
    pub(crate) tuples: Vec<ITuple>,
    pub(crate) seen: ITupleSet,
    /// Maps first argument -> indices into `tuples`, accelerating joins
    /// where the first argument is already bound (the common shape for
    /// certificate facts like `notBefore(Cert, NB)`).
    pub(crate) first_arg: IValMap<Vec<u32>>,
}

impl Relation {
    fn insert(&mut self, tuple: ITuple) -> bool {
        if self.seen.contains(&tuple) {
            return false;
        }
        if let Some(first) = tuple.as_slice().first() {
            self.first_arg
                .entry(*first)
                .or_default()
                .push(self.tuples.len() as u32);
        }
        self.seen.insert(tuple.clone());
        self.tuples.push(tuple);
        true
    }

    fn contains(&self, tuple: &[IVal]) -> bool {
        self.seen.contains(tuple)
    }

    /// Remove a tuple if present; returns `true` when it was stored.
    ///
    /// The backing vec removes by swap, so the displaced tuple's
    /// first-argument index entry is repaired in place — the index stays
    /// exact under interleaved inserts and removes (the incremental
    /// maintenance workload, [`crate::incremental`]).
    fn remove(&mut self, tuple: &[IVal]) -> bool {
        if !self.seen.remove(tuple) {
            return false;
        }
        let Relation {
            tuples, first_arg, ..
        } = self;
        let pos = match tuple.first() {
            Some(first) => {
                let hits = first_arg
                    .get_mut(first)
                    .expect("index tracks stored tuples");
                let slot = hits
                    .iter()
                    .position(|&i| tuples[i as usize].as_slice() == tuple)
                    .expect("index tracks stored tuples");
                let pos = hits[slot] as usize;
                hits.swap_remove(slot);
                pos
            }
            // Arity-0 relations hold at most one tuple.
            None => tuples
                .iter()
                .position(|t| t.as_slice() == tuple)
                .expect("seen tracks stored tuples"),
        };
        let last = tuples.len() - 1;
        tuples.swap_remove(pos);
        if pos != last {
            // The former last tuple now lives at `pos`; repair its
            // index entry.
            if let Some(first) = tuples[pos].as_slice().first().copied() {
                let hits = first_arg
                    .get_mut(&first)
                    .expect("index tracks stored tuples");
                let slot = hits
                    .iter()
                    .position(|&i| i as usize == last)
                    .expect("index tracks stored tuples");
                hits[slot] = pos as u32;
            }
        }
        true
    }

    /// Empty the relation, retaining every allocation (tuple vec, seen
    /// set, index vecs) for the next run.
    fn clear_retaining(&mut self) {
        self.tuples.clear();
        self.seen.clear();
        for hits in self.first_arg.values_mut() {
            hits.clear();
        }
    }
}

/// A fact database: named relations over ground tuples, stored interned.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: SymMap<Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Add a ground fact; returns `true` if it was new. Interns the
    /// predicate and any string values.
    pub fn add_fact(&mut self, pred: impl AsRef<str>, tuple: Tuple) -> bool {
        let pred = crate::intern::intern(pred.as_ref());
        let tuple: ITuple = tuple.iter().map(IVal::from_val).collect();
        self.add_ifact(pred, tuple)
    }

    /// Add an already-interned fact; returns `true` if it was new. This
    /// is the zero-conversion path fact emitters use.
    pub fn add_ifact(&mut self, pred: Sym, tuple: ITuple) -> bool {
        self.relations.entry(pred).or_default().insert(tuple)
    }

    /// Remove an already-interned fact; returns `true` if it was
    /// stored. This is the EDB-delta path of incremental maintenance
    /// ([`crate::incremental`]).
    pub fn remove_ifact(&mut self, pred: Sym, tuple: &[IVal]) -> bool {
        self.relations
            .get_mut(&pred)
            .map(|r| r.remove(tuple))
            .unwrap_or(false)
    }

    /// Remove a ground fact; returns `true` if it was stored. Uses the
    /// non-inserting symbol lookup, so removing a never-seen fact cannot
    /// grow the symbol table.
    pub fn remove_fact(&mut self, pred: impl AsRef<str>, tuple: &[Val]) -> bool {
        let Some(pred) = crate::intern::lookup(pred.as_ref()) else {
            return false;
        };
        let mut interned = ITuple::new();
        for v in tuple {
            match IVal::lookup_val(v) {
                Some(iv) => interned.push(iv),
                None => return false,
            }
        }
        self.remove_ifact(pred, interned.as_slice())
    }

    /// Is `tuple` present in relation `pred`?
    pub fn contains(&self, pred: &str, tuple: &[Val]) -> bool {
        let Some(pred) = crate::intern::lookup(pred) else {
            return false;
        };
        let mut interned = ITuple::new();
        for v in tuple {
            match IVal::lookup_val(v) {
                Some(iv) => interned.push(iv),
                // A never-interned string cannot be stored anywhere.
                None => return false,
            }
        }
        self.icontains(pred, interned.as_slice())
    }

    /// Is the interned `tuple` present in relation `pred`?
    pub fn icontains(&self, pred: Sym, tuple: &[IVal]) -> bool {
        self.relations
            .get(&pred)
            .map(|r| r.contains(tuple))
            .unwrap_or(false)
    }

    /// All tuples of `pred`, materialized at the AST boundary (empty if
    /// absent). The evaluator reads interned storage directly via
    /// [`Database::ituples`]; this accessor serves explain/tests/CLI.
    pub fn tuples(&self, pred: &str) -> Vec<Tuple> {
        crate::intern::lookup(pred)
            .and_then(|p| self.relations.get(&p))
            .map(|r| r.tuples.iter().map(|t| t.to_vals()).collect())
            .unwrap_or_default()
    }

    /// All interned tuples of `pred` (empty slice if absent).
    pub fn ituples(&self, pred: Sym) -> &[ITuple] {
        self.relations
            .get(&pred)
            .map(|r| r.tuples.as_slice())
            .unwrap_or(&[])
    }

    /// Tuples of `pred` whose first argument is `first`, served from the
    /// first-argument index (evaluator internals).
    pub(crate) fn ituples_first(&self, pred: Sym, first: IVal) -> impl Iterator<Item = &ITuple> {
        self.relations.get(&pred).into_iter().flat_map(move |r| {
            r.first_arg
                .get(&first)
                .map(|hits| hits.as_slice())
                .unwrap_or(&[])
                .iter()
                .map(|&i| &r.tuples[i as usize])
        })
    }

    /// The relation named `pred`, if present (evaluator internals).
    pub(crate) fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Tuples of `pred` matching a pattern (`None` = wildcard),
    /// materialized at the AST boundary.
    pub fn query(&self, pred: &str, pattern: &[Option<Val>]) -> Vec<Tuple> {
        let ipattern: Vec<Option<Option<IVal>>> = pattern
            .iter()
            .map(|p| p.as_ref().map(IVal::lookup_val))
            .collect();
        // A bound pattern slot with a never-interned string matches
        // nothing.
        if ipattern.iter().any(|p| matches!(p, Some(None))) {
            return Vec::new();
        }
        let Some(pred) = crate::intern::lookup(pred) else {
            return Vec::new();
        };
        self.ituples(pred)
            .iter()
            .filter(|t| {
                t.len() == ipattern.len()
                    && t.as_slice()
                        .iter()
                        .zip(&ipattern)
                        .all(|(v, p)| p.map(|p| p == Some(*v)).unwrap_or(true))
                // `p` is `Option<Option<IVal>>`: outer None = wildcard,
                // inner always Some here (checked above).
            })
            .map(|t| t.to_vals())
            .collect()
    }

    /// Total number of stored tuples.
    pub fn len(&self) -> usize {
        self.relations.values().map(|r| r.tuples.len()).sum()
    }

    /// True when no relation has tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of all non-empty relations, sorted.
    pub fn predicates(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = self
            .relations
            .iter()
            .filter(|(_, r)| !r.tuples.is_empty())
            .map(|(k, _)| k.resolve())
            .collect();
        names.sort();
        names
    }

    /// Symbols of all non-empty relations (evaluator/merge internals).
    pub fn predicate_syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.relations
            .iter()
            .filter(|(_, r)| !r.tuples.is_empty())
            .map(|(k, _)| *k)
    }

    /// Move every fact of `other` into `self`, deduplicating.
    pub fn merge(&mut self, other: Database) {
        for (pred, rel) in other.relations {
            let target = self.relations.entry(pred).or_default();
            for tuple in rel.tuples {
                target.insert(tuple);
            }
        }
    }

    /// Empty every relation while retaining allocations — the scratch
    /// overlay reset between evaluations (see
    /// [`crate::compile::EvalScratch`]).
    pub fn clear_retaining(&mut self) {
        for rel in self.relations.values_mut() {
            rel.clear_retaining();
        }
    }

    /// Render the database as Datalog fact text (used by the paper-E1
    /// "unoptimized conversion" path, which serializes facts to text and
    /// re-parses them). Relations are emitted in name order for
    /// deterministic output.
    pub fn to_fact_text(&self) -> String {
        use std::fmt::Write;
        let mut rels: Vec<(Arc<str>, &Relation)> = self
            .relations
            .iter()
            .map(|(k, r)| (k.resolve(), r))
            .collect();
        rels.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (pred, rel) in rels {
            for tuple in &rel.tuples {
                write!(out, "{pred}(").unwrap();
                for (i, v) in tuple.as_slice().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write!(out, "{}", v.to_val()).unwrap();
                }
                out.push_str(").\n");
            }
        }
        out
    }

    /// [`Database::to_fact_text`] with the fact lines fully sorted: a
    /// canonical form independent of insertion order, so two databases
    /// holding the same facts render byte-identically. This is the
    /// comparison form the incremental-vs-scratch differential oracle
    /// and proptests use.
    pub fn to_sorted_fact_text(&self) -> String {
        let text = self.to_fact_text();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        let mut out = String::with_capacity(text.len());
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Counters from one evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds across all strata.
    pub rounds: usize,
    /// Tuples newly derived (not counting duplicates).
    pub derived: usize,
    /// Rule body evaluations attempted.
    pub rule_applications: usize,
}

/// Default budget on derived tuples: defense in depth on top of the
/// stratification-level termination guarantees.
pub const DEFAULT_BUDGET: usize = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, DatalogError, Program};

    fn compile(program: &Program) -> CompiledProgram {
        CompiledProgram::compile(program).unwrap()
    }

    fn run(src: &str, db: Database) -> Database {
        compile(&Program::parse(src).unwrap()).run(db).unwrap()
    }

    #[test]
    fn facts_from_program() {
        let db = run("p(1). p(2). q(\"a\").", Database::new());
        assert!(db.contains("p", &[Val::int(1)]));
        assert!(db.contains("p", &[Val::int(2)]));
        assert!(db.contains("q", &[Val::str("a")]));
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn transitive_closure() {
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.add_fact("edge", vec![Val::str(a), Val::str(b)]);
        }
        let out = run(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).",
            db,
        );
        assert!(out.contains("reach", &[Val::str("a"), Val::str("d")]));
        assert_eq!(out.tuples("reach").len(), 6);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "a")] {
            db.add_fact("edge", vec![Val::str(a), Val::str(b)]);
        }
        let out = run(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).",
            db,
        );
        assert_eq!(out.tuples("reach").len(), 9); // complete 3x3
    }

    #[test]
    fn negation_across_strata() {
        let mut db = Database::new();
        db.add_fact("cert", vec![Val::str("c1")]);
        db.add_fact("cert", vec![Val::str("c2")]);
        db.add_fact("revoked", vec![Val::str("c1")]);
        let out = run(
            "bad(X) :- cert(X), revoked(X).
             good(X) :- cert(X), \\+bad(X).",
            db,
        );
        assert!(out.contains("good", &[Val::str("c2")]));
        assert!(!out.contains("good", &[Val::str("c1")]));
    }

    #[test]
    fn listing_1_trustcor_semantics() {
        // Full paper Listing 1 executed against two synthetic chains.
        let src = r#"
            nov30th2022(1669784400).
            valid(Chain, "S/MIME") :-
              leaf(Chain, Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
            valid(Chain, "TLS") :-
              leaf(Chain, Cert), \+EV(Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
        "#;
        let mut db = Database::new();
        // Chain 1: issued before the cutoff, not EV -> valid for both.
        db.add_fact("leaf", vec![Val::str("chain1"), Val::str("leaf1")]);
        db.add_fact(
            "notBefore",
            vec![Val::str("leaf1"), Val::int(1_600_000_000)],
        );
        // Chain 2: issued before cutoff but EV -> S/MIME only.
        db.add_fact("leaf", vec![Val::str("chain2"), Val::str("leaf2")]);
        db.add_fact(
            "notBefore",
            vec![Val::str("leaf2"), Val::int(1_600_000_000)],
        );
        db.add_fact("EV", vec![Val::str("leaf2")]);
        // Chain 3: issued after cutoff -> invalid for both.
        db.add_fact("leaf", vec![Val::str("chain3"), Val::str("leaf3")]);
        db.add_fact(
            "notBefore",
            vec![Val::str("leaf3"), Val::int(1_700_000_000)],
        );

        let out = run(src, db);
        assert!(out.contains("valid", &[Val::str("chain1"), Val::str("S/MIME")]));
        assert!(out.contains("valid", &[Val::str("chain1"), Val::str("TLS")]));
        assert!(out.contains("valid", &[Val::str("chain2"), Val::str("S/MIME")]));
        assert!(!out.contains("valid", &[Val::str("chain2"), Val::str("TLS")]));
        assert!(!out.contains("valid", &[Val::str("chain3"), Val::str("S/MIME")]));
        assert!(!out.contains("valid", &[Val::str("chain3"), Val::str("TLS")]));
    }

    #[test]
    fn listing_3_lifetime_arithmetic() {
        let src = r#"
            oneMonthInSeconds(2630000).
            lifetimeValid(Leaf) :-
              notBefore(Leaf, NB), notAfter(Leaf, NA),
              Lifetime = NA - NB, oneMonthInSeconds(Limit), Lifetime <= Limit.
        "#;
        let mut db = Database::new();
        db.add_fact("notBefore", vec![Val::str("short"), Val::int(0)]);
        db.add_fact("notAfter", vec![Val::str("short"), Val::int(2_000_000)]);
        db.add_fact("notBefore", vec![Val::str("long"), Val::int(0)]);
        db.add_fact("notAfter", vec![Val::str("long"), Val::int(90 * 86_400)]);
        let out = run(src, db);
        assert!(out.contains("lifetimeValid", &[Val::str("short")]));
        assert!(!out.contains("lifetimeValid", &[Val::str("long")]));
    }

    #[test]
    fn budget_exceeded() {
        let mut db = Database::new();
        for i in 0..40 {
            for j in 0..40 {
                db.add_fact("edge", vec![Val::int(i), Val::int(j)]);
            }
        }
        let program =
            Program::parse("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).")
                .unwrap();
        let err = compile(&program)
            .evaluate_with(Arc::new(db), 100)
            .unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { budget: 100 }));
    }

    #[test]
    fn arithmetic_overflow_is_an_error() {
        let mut db = Database::new();
        db.add_fact("n", vec![Val::int(i64::MAX)]);
        let program = Program::parse("big(Y) :- n(X), Y = X + 1.").unwrap();
        let err = compile(&program).run(db).unwrap_err();
        assert!(matches!(err, DatalogError::Eval { .. }));
    }

    #[test]
    fn comparison_type_error() {
        let mut db = Database::new();
        db.add_fact("v", vec![Val::str("notanint")]);
        let program = Program::parse("p(X) :- v(X), X < 5.").unwrap();
        let err = compile(&program).run(db).unwrap_err();
        assert!(matches!(err, DatalogError::Eval { .. }));
    }

    #[test]
    fn equality_works_on_strings() {
        let mut db = Database::new();
        db.add_fact("u", vec![Val::str("TLS")]);
        db.add_fact("u", vec![Val::str("S/MIME")]);
        let program = Program::parse(r#"tls(X) :- u(X), X == "TLS"."#).unwrap();
        let out = compile(&program).run(db).unwrap();
        assert_eq!(out.tuples("tls").len(), 1);
    }

    #[test]
    fn assign_acts_as_check_when_bound() {
        let mut db = Database::new();
        db.add_fact("pair", vec![Val::int(2), Val::int(4)]);
        db.add_fact("pair", vec![Val::int(3), Val::int(5)]);
        // Y must equal X * 2.
        let program = Program::parse("double(X, Y) :- pair(X, Y), Y = X * 2.").unwrap();
        let out = compile(&program).run(db).unwrap();
        assert_eq!(out.tuples("double").len(), 1);
        assert!(out.contains("double", &[Val::int(2), Val::int(4)]));
    }

    #[test]
    fn query_patterns() {
        let db = run("p(1, \"a\"). p(2, \"b\"). p(1, \"c\").", Database::new());
        let hits = db.query("p", &[Some(Val::int(1)), None]);
        assert_eq!(hits.len(), 2);
        let hits = db.query("p", &[None, Some(Val::str("b"))]);
        assert_eq!(hits.len(), 1);
        // A never-interned string in a bound slot matches nothing (and
        // does not grow the symbol table).
        let hits = db.query("p", &[None, Some(Val::str("eval-query-unseen-sym"))]);
        assert!(hits.is_empty());
    }

    #[test]
    fn fact_text_roundtrip() {
        let db = run(
            r#"p(1, "a"). q(-5). r("with \"quotes\"")."#,
            Database::new(),
        );
        let text = db.to_fact_text();
        let reparsed = run(&text, Database::new());
        assert_eq!(reparsed.len(), db.len());
        assert!(reparsed.contains("p", &[Val::int(1), Val::str("a")]));
        assert!(reparsed.contains("q", &[Val::int(-5)]));
        assert!(reparsed.contains("r", &[Val::str("with \"quotes\"")]));
    }

    #[test]
    fn duplicate_facts_dedupe() {
        let mut db = Database::new();
        assert!(db.add_fact("p", vec![Val::int(1)]));
        assert!(!db.add_fact("p", vec![Val::int(1)]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn merge_moves_and_dedupes() {
        let mut a = Database::new();
        a.add_fact("p", vec![Val::int(1)]);
        let mut b = Database::new();
        b.add_fact("p", vec![Val::int(1)]);
        b.add_fact("p", vec![Val::int(2)]);
        b.add_fact("q", vec![Val::int(3)]);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert!(a.contains("p", &[Val::int(2)]));
        assert!(a.contains("q", &[Val::int(3)]));
    }

    #[test]
    fn clear_retaining_empties_but_reuses() {
        let mut db = Database::new();
        db.add_fact("p", vec![Val::int(1), Val::int(2)]);
        db.add_fact("p", vec![Val::int(3), Val::int(4)]);
        db.clear_retaining();
        assert!(db.is_empty());
        assert!(!db.contains("p", &[Val::int(1), Val::int(2)]));
        // Re-inserting after the reset behaves like a fresh database,
        // including the first-arg index.
        assert!(db.add_fact("p", vec![Val::int(1), Val::int(2)]));
        assert!(db.contains("p", &[Val::int(1), Val::int(2)]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn contains_with_unseen_string_is_false() {
        let db = run("p(\"x\").", Database::new());
        assert!(!db.contains("p", &[Val::str("eval-contains-unseen-sym")]));
        assert!(!db.contains("eval-unseen-pred-sym", &[Val::int(1)]));
    }
}
