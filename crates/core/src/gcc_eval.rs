//! GCC execution: pose `valid(Chain, Usage)?` against a chain's facts.
//!
//! Evaluation goes through a [`ValidationSession`]: the chain is
//! converted to facts once, frozen, and every GCC reads the shared base
//! through a layered database (derived tuples land in a per-run
//! overlay).

use crate::facts::{chain_facts, chain_id};
use crate::session::ValidationSession;
use crate::CoreError;
use nrslb_datalog::Val;
use nrslb_rootstore::{Gcc, Usage};
use nrslb_x509::Certificate;

/// The result of evaluating one GCC against one chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GccVerdict {
    /// The GCC's name — shared with the [`Gcc`] itself, so building a
    /// verdict is a refcount bump, not a `String` copy.
    pub gcc_name: std::sync::Arc<str>,
    /// Did `valid(Chain, Usage)` hold?
    pub accepted: bool,
}

/// Convert `chain` and evaluate one GCC.
///
/// The paper's execution model (§3): the converted statements are fed,
/// along with the GCC, into the Datalog interpreter, and the validator
/// queries `valid(Chain, Usage)?`.
pub fn evaluate_gcc(gcc: &Gcc, chain: &[Certificate], usage: Usage) -> Result<bool, CoreError> {
    ValidationSession::new(chain).evaluate_gcc(gcc, usage)
}

/// Evaluate every GCC attached to the candidate root; the chain is
/// acceptable iff **all** GCCs accept ("a constructed chain is valid if
/// and only if all GCCs attached to the candidate root are valid", §3).
///
/// Returns the per-GCC verdicts. Conversion happens once, and the fact
/// base is shared (not cloned) across the GCC evaluations.
pub fn evaluate_gccs(
    gccs: &[Gcc],
    chain: &[Certificate],
    usage: Usage,
) -> Result<Vec<GccVerdict>, CoreError> {
    if gccs.is_empty() {
        return Ok(Vec::new());
    }
    ValidationSession::new(chain).evaluate_gccs(gccs, usage)
}

/// Do all verdicts accept?
pub fn all_accept(verdicts: &[GccVerdict]) -> bool {
    verdicts.iter().all(|v| v.accepted)
}

/// Explain a GCC's verdict on a chain: when the GCC accepts, the
/// derivation tree for `valid(Chain, Usage)`; when it rejects, `None`
/// (there is nothing to derive — the query simply fails).
///
/// The rendered tree is the audit trail the paper's "easy to reason
/// about" claim buys: which rule fired, which facts supported it, which
/// negations held.
pub fn explain_gcc(
    gcc: &Gcc,
    chain: &[Certificate],
    usage: Usage,
) -> Result<Option<nrslb_datalog::Derivation>, CoreError> {
    let db = chain_facts(chain);
    let out = gcc.compiled().run(db)?;
    let goal = [Val::str(chain_id(chain)), Val::str(usage.as_datalog())];
    Ok(nrslb_datalog::explain::explain(
        gcc.program(),
        &out,
        "valid",
        &goal,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrslb_rootstore::GccMetadata;
    use nrslb_x509::testutil::simple_chain;

    fn chain() -> Vec<Certificate> {
        let pki = simple_chain("gcceval.example");
        vec![pki.leaf, pki.intermediate, pki.root]
    }

    fn gcc(src: &str) -> Gcc {
        Gcc::parse(
            "test",
            nrslb_crypto::sha256::Digest::ZERO,
            src,
            GccMetadata::default(),
        )
        .unwrap()
    }

    #[test]
    fn accept_and_reject() {
        let chain = chain();
        // Accept everything for TLS.
        let g = gcc(r#"valid(Chain, "TLS") :- leaf(Chain, _)."#);
        assert!(evaluate_gcc(&g, &chain, Usage::Tls).unwrap());
        // That same GCC rejects S/MIME (no rule derives it).
        assert!(!evaluate_gcc(&g, &chain, Usage::SMime).unwrap());
    }

    #[test]
    fn listing_1_trustcor_on_real_chain() {
        let chain = chain();
        let g = gcc(r#"
            nov30th2022(1669784400).
            valid(Chain, "S/MIME") :-
              leaf(Chain, Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
            valid(Chain, "TLS") :-
              leaf(Chain, Cert), \+EV(Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
            "#);
        // The testutil leaf is issued January 2022 and is not EV.
        assert!(evaluate_gcc(&g, &chain, Usage::Tls).unwrap());
        assert!(evaluate_gcc(&g, &chain, Usage::SMime).unwrap());
    }

    #[test]
    fn all_must_accept() {
        let chain = chain();
        let yes = gcc(r#"valid(Chain, "TLS") :- leaf(Chain, _)."#);
        let no = gcc(r#"valid(Chain, "TLS") :- leaf(Chain, C), EV(C)."#); // leaf is not EV
        let verdicts = evaluate_gccs(&[yes.clone(), no], &chain, Usage::Tls).unwrap();
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].accepted);
        assert!(!verdicts[1].accepted);
        assert!(!all_accept(&verdicts));
        let verdicts = evaluate_gccs(&[yes], &chain, Usage::Tls).unwrap();
        assert!(all_accept(&verdicts));
    }

    #[test]
    fn empty_gcc_list_is_vacuously_accepting() {
        let verdicts = evaluate_gccs(&[], &chain(), Usage::Tls).unwrap();
        assert!(verdicts.is_empty());
        assert!(all_accept(&verdicts));
    }

    #[test]
    fn explanation_names_rule_and_facts() {
        let chain = chain();
        let g = gcc(r#"
            nov30th2022(1669784400).
            valid(Chain, "TLS") :-
              leaf(Chain, Cert), \+EV(Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
            "#);
        let derivation = explain_gcc(&g, &chain, Usage::Tls).unwrap().unwrap();
        let rendered = derivation.render();
        assert!(rendered.contains("valid("), "{rendered}");
        assert!(rendered.contains("leaf("), "{rendered}");
        assert!(rendered.contains("notBefore("), "{rendered}");
        assert!(rendered.contains("[absent]"), "{rendered}"); // \+EV
        assert!(rendered.contains("< 1669784400 [holds]"), "{rendered}");
        // A rejecting query has no derivation.
        assert!(explain_gcc(&g, &chain, Usage::SMime).unwrap().is_none());
    }
}
