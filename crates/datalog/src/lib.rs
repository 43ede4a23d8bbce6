//! # `nrslb-datalog` — a stratified Datalog engine
//!
//! The paper proposes expressing General Certificate Constraints as
//! *stratified Datalog* programs (§3), citing three properties that make
//! the language a good fit for executing third-party trust policies:
//! declarative first-order semantics, guaranteed termination, and no I/O.
//! This crate implements that language:
//!
//! * [`ast`] — terms, literals, rules, programs;
//! * [`lexer`] / [`parser`] — the concrete syntax used in the paper's
//!   listings, including `:-` rules, `\+` negation, comparison operators
//!   and arithmetic bindings like `Lifetime = NA - NB`;
//! * [`safety`] — range-restriction checking (every variable bound by a
//!   positive literal before use in negation, comparison or the head);
//! * [`stratify`] — predicate dependency analysis; programs with negation
//!   (or arithmetic) inside a recursive cycle are rejected, which is what
//!   makes termination a *property of the language* rather than a runtime
//!   hope;
//! * [`compile`] — [`CompiledProgram`]: the immutable, pre-stratified
//!   product of those checks, compiled once per GCC and evaluated any
//!   number of times;
//! * [`layered`] — [`LayeredDatabase`]: a frozen shared fact base plus a
//!   per-run overlay of derived tuples, so evaluating many GCCs against
//!   one chain never clones the chain's facts;
//! * [`eval`] — fact storage, evaluation statistics, and the
//!   derived-tuple budget kept as defense in depth (the semi-naive
//!   evaluator itself is [`CompiledProgram`]'s);
//! * [`mod@incremental`] — delta maintenance: counting / DRed
//!   propagation of EDB insertions and deletions through a compiled
//!   program ([`CompiledProgram::apply_delta`]), keeping derived state
//!   live under root-store feed deltas without re-evaluating from
//!   scratch;
//! * [`mod@explain`] — provenance: derivation trees showing *why* a derived
//!   tuple holds, the audit trail for GCC decisions;
//! * [`mod@intern`] — the global symbol table and interned ground
//!   representation ([`intern::Sym`], [`intern::IVal`],
//!   [`intern::ITuple`]) everything above executes over: the semi-naive
//!   join compares `u32` ids, never `Arc<str>`s;
//! * [`mod@reference`] — the independent string-path evaluator kept as the
//!   differential oracle for the interned core.
//!
//! ```
//! use nrslb_datalog::{CompiledProgram, Database, Program, Val};
//!
//! let program = Program::parse(
//!     "reachable(X, Y) :- edge(X, Y).
//!      reachable(X, Z) :- reachable(X, Y), edge(Y, Z).",
//! )
//! .unwrap();
//! let mut db = Database::new();
//! db.add_fact("edge", vec![Val::str("a"), Val::str("b")]);
//! db.add_fact("edge", vec![Val::str("b"), Val::str("c")]);
//! let result = CompiledProgram::compile(&program).unwrap().run(db).unwrap();
//! assert!(result.contains("reachable", &[Val::str("a"), Val::str("c")]));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod eval;
pub mod explain;
pub mod incremental;
pub mod intern;
pub mod layered;
pub mod lexer;
pub mod metrics;
pub mod parser;
pub mod reference;
pub mod safety;
pub mod stratify;

pub use ast::{Program, Rule, Term, Val};
pub use compile::{CompiledProgram, EvalScratch};
pub use eval::{Database, EvalStats};
pub use explain::{explain, Derivation};
pub use incremental::{delta_fact, DeltaOutcome, IncrementalState, MaintenancePolicy};
pub use intern::{intern, ITuple, IVal, Sym};
pub use layered::LayeredDatabase;
pub use metrics::EvalMetrics;
pub use reference::{evaluate_strings, StringEvaluation};

use std::fmt;

/// Errors from parsing, checking or evaluating Datalog programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte offset in the source.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Parse error.
    Parse {
        /// Byte offset in the source.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A rule violates range restriction (safety).
    Unsafe {
        /// The rule, pretty-printed.
        rule: String,
        /// The violation.
        message: String,
    },
    /// The program cannot be stratified (negation or arithmetic in a
    /// recursive cycle).
    NotStratifiable {
        /// Description of the offending cycle.
        message: String,
    },
    /// Evaluation exceeded the derived-tuple budget.
    BudgetExceeded {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// A runtime evaluation error (e.g. arithmetic overflow).
    Eval {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Lex { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            DatalogError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            DatalogError::Unsafe { rule, message } => {
                write!(f, "unsafe rule `{rule}`: {message}")
            }
            DatalogError::NotStratifiable { message } => {
                write!(f, "program is not stratifiable: {message}")
            }
            DatalogError::BudgetExceeded { budget } => {
                write!(f, "evaluation exceeded budget of {budget} derived tuples")
            }
            DatalogError::Eval { message } => write!(f, "evaluation error: {message}"),
        }
    }
}

impl std::error::Error for DatalogError {}
