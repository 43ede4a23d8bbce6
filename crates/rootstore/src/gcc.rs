//! General Certificate Constraints: checked Datalog programs attached to
//! root certificates by SHA-256 fingerprint (paper §3).

use nrslb_crypto::sha256::{sha256, Digest};
use nrslb_datalog::{CompiledProgram, Program};
use std::fmt;
use std::sync::Arc;

/// Provenance and justification for a GCC, mirroring the paper's proposal
/// that RSF snapshots carry "justifications of particular decisions and
/// links to public discussions".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GccMetadata {
    /// Human-readable summary ("Partial distrust of Symantec roots").
    pub justification: String,
    /// Link to the public discussion (Bugzilla, dev-security-policy...).
    pub discussion_url: String,
    /// Unix timestamp when the constraint was authored.
    pub created_at: i64,
}

/// A General Certificate Constraint.
///
/// A GCC is a stratified Datalog program that must define the `valid/2`
/// predicate; during chain validation the query `valid(Chain, Usage)?` is
/// posed against the program plus the chain's fact representation, and the
/// chain is rejected if the query fails (paper §3). Construction performs
/// the full battery of static checks (parse, range restriction,
/// stratification), so a stored GCC is always executable.
#[derive(Clone)]
pub struct Gcc {
    inner: Arc<GccInner>,
}

struct GccInner {
    name: Arc<str>,
    target: Digest,
    source: String,
    compiled: Arc<CompiledProgram>,
    source_hash: Digest,
    metadata: GccMetadata,
}

impl fmt::Debug for Gcc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Gcc(\"{}\" on {}, {} rules)",
            self.inner.name,
            self.inner.target.short(),
            self.inner.compiled.program().rules.len()
        )
    }
}

impl PartialEq for Gcc {
    fn eq(&self, other: &Self) -> bool {
        self.inner.target == other.inner.target && self.inner.source_hash == other.inner.source_hash
    }
}

impl Eq for Gcc {}

/// The predicate every GCC must define.
pub const VALID_PREDICATE: &str = "valid";

/// Replace `valid(Chain, V)` heads whose usage variable `V` is not bound
/// by the body with one rule per usage in the closed domain.
fn expand_usage_wildcards(program: &mut Program) {
    use nrslb_datalog::ast::{BodyItem, Term};
    let mut out = Vec::with_capacity(program.rules.len());
    for rule in program.rules.drain(..) {
        let expand = match (&*rule.head.pred == VALID_PREDICATE, rule.head.args.get(1)) {
            (true, Some(Term::Var(v))) => {
                // Unbound iff the variable never appears in the body.
                !rule.body.iter().any(|item| match item {
                    BodyItem::Pos(l) | BodyItem::Neg(l) => {
                        l.args.iter().any(|a| matches!(a, Term::Var(x) if x == v))
                    }
                    BodyItem::Cmp(lhs, _, rhs) => {
                        let mut vars = Vec::new();
                        lhs.vars(&mut vars);
                        rhs.vars(&mut vars);
                        vars.iter().any(|x| x == v)
                    }
                    BodyItem::Assign(target, expr) => {
                        let mut vars = Vec::new();
                        expr.vars(&mut vars);
                        target == v || vars.iter().any(|x| x == v)
                    }
                })
            }
            _ => false,
        };
        if expand {
            for usage in [crate::Usage::Tls, crate::Usage::SMime] {
                let mut clone = rule.clone();
                clone.head.args[1] = Term::str(usage.as_datalog());
                out.push(clone);
            }
        } else {
            out.push(rule);
        }
    }
    program.rules = out;
}

impl Gcc {
    /// Parse and check a GCC from Datalog source, attaching it to the root
    /// with fingerprint `target`.
    ///
    /// The paper's Listing 2 writes `valid(Chain, _) :- ...` to mean
    /// "valid for *any* usage"; a bare wildcard in a head position
    /// violates range restriction, so the GCC dialect expands such a
    /// rule over the closed usage domain (`"TLS"`, `"S/MIME"`) before
    /// checking.
    ///
    /// ```
    /// use nrslb_crypto::sha256::Digest;
    /// use nrslb_rootstore::{Gcc, GccMetadata};
    ///
    /// let target = Digest::ZERO; // normally a root's fingerprint
    /// let gcc = Gcc::parse(
    ///     "wosign-style",
    ///     target,
    ///     "cutoff(1477008000).\nvalid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff(T), NB < T.",
    ///     GccMetadata::default(),
    /// )
    /// .unwrap();
    /// assert_eq!(gcc.program().rules.len(), 3); // fact + wildcard expanded twice
    ///
    /// // Unsafe or unstratifiable programs are rejected at parse time.
    /// assert!(Gcc::parse("bad", target, "valid(C, U) :- \\+q(C, U).", GccMetadata::default()).is_err());
    /// ```
    pub fn parse(
        name: &str,
        target: Digest,
        source: &str,
        metadata: GccMetadata,
    ) -> Result<Gcc, nrslb_datalog::DatalogError> {
        let mut program = Program::parse(source)?;
        expand_usage_wildcards(&mut program);
        // Compilation runs the safety + stratification checks once; the
        // compiled program is kept (and shared by every clone/retarget of
        // this GCC) so evaluation never re-checks or re-stratifies, no
        // matter how many chains it is run against (§3.1).
        let compiled = Arc::new(CompiledProgram::compile(&program)?);
        if !program
            .rules
            .iter()
            .any(|r| &*r.head.pred == VALID_PREDICATE && r.head.args.len() == 2)
        {
            return Err(nrslb_datalog::DatalogError::Parse {
                offset: 0,
                message: format!("GCC must define {VALID_PREDICATE}/2"),
            });
        }
        Ok(Gcc {
            inner: Arc::new(GccInner {
                name: Arc::from(name),
                target,
                source_hash: sha256(source.as_bytes()),
                source: source.to_string(),
                compiled,
                metadata,
            }),
        })
    }

    /// The constraint's display name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The display name as a shared `Arc<str>` — verdicts clone this
    /// refcount instead of copying the string per evaluation.
    pub fn name_shared(&self) -> &Arc<str> {
        &self.inner.name
    }

    /// Fingerprint of the root certificate this GCC is attached to.
    pub fn target(&self) -> Digest {
        self.inner.target
    }

    /// The Datalog source text (what RSFs distribute).
    pub fn source(&self) -> &str {
        &self.inner.source
    }

    /// SHA-256 of the source text; identifies the GCC's content.
    pub fn source_hash(&self) -> Digest {
        self.inner.source_hash
    }

    /// The checked program.
    pub fn program(&self) -> &Program {
        self.inner.compiled.program()
    }

    /// The pre-stratified compiled program (compiled once at parse time),
    /// ready for shared-base evaluation against an `Arc<Database>`.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.inner.compiled
    }

    /// Provenance metadata.
    pub fn metadata(&self) -> &GccMetadata {
        &self.inner.metadata
    }

    /// Re-target the same program at a different root (common when one
    /// incident covers several roots, e.g. the four Symantec brands).
    ///
    /// The compiled program is shared, not recompiled: all retargets of
    /// one GCC evaluate through the same [`CompiledProgram`].
    pub fn retarget(&self, target: Digest) -> Gcc {
        Gcc {
            inner: Arc::new(GccInner {
                name: Arc::clone(&self.inner.name),
                target,
                source: self.inner.source.clone(),
                compiled: Arc::clone(&self.inner.compiled),
                source_hash: self.inner.source_hash,
                metadata: self.inner.metadata.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING_1: &str = r#"
        nov30th2022(1669784400).
        valid(Chain, "S/MIME") :-
          leaf(Chain, Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
        valid(Chain, "TLS") :-
          leaf(Chain, Cert), \+EV(Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
    "#;

    fn digest(tag: u8) -> Digest {
        Digest([tag; 32])
    }

    #[test]
    fn parses_listing_1() {
        let gcc = Gcc::parse("trustcor", digest(1), LISTING_1, GccMetadata::default()).unwrap();
        assert_eq!(gcc.name(), "trustcor");
        assert_eq!(gcc.target(), digest(1));
        assert_eq!(gcc.program().rules.len(), 3);
    }

    #[test]
    fn requires_valid_predicate() {
        let err = Gcc::parse("empty", digest(2), "p(1).", GccMetadata::default()).unwrap_err();
        assert!(err.to_string().contains("valid/2"));
    }

    #[test]
    fn rejects_unsafe_programs() {
        let err = Gcc::parse(
            "unsafe",
            digest(3),
            r#"valid(Chain, "TLS") :- leaf(Chain, C), \+revoked(X)."#,
            GccMetadata::default(),
        )
        .unwrap_err();
        assert!(matches!(err, nrslb_datalog::DatalogError::Unsafe { .. }));
    }

    #[test]
    fn usage_wildcard_head_expands_over_domain() {
        // The paper's Listing 2 shape: valid(Chain, _) means both usages.
        let gcc = Gcc::parse(
            "wildcard",
            digest(7),
            "valid(Chain, _) :- leaf(Chain, _).",
            GccMetadata::default(),
        )
        .unwrap();
        let heads: Vec<String> = gcc
            .program()
            .rules
            .iter()
            .map(|r| r.head.args[1].to_string())
            .collect();
        assert_eq!(heads, vec!["\"TLS\"", "\"S/MIME\""]);
        // A *bound* usage variable is left alone.
        let gcc = Gcc::parse(
            "bound",
            digest(8),
            "valid(Chain, U) :- requested(Chain, U).",
            GccMetadata::default(),
        )
        .unwrap();
        assert_eq!(gcc.program().rules.len(), 1);
    }

    #[test]
    fn rejects_unstratifiable_programs() {
        let err = Gcc::parse(
            "cyclic",
            digest(4),
            "valid(C, U) :- chain(C, U), \\+valid(C, U).",
            GccMetadata::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            nrslb_datalog::DatalogError::NotStratifiable { .. }
        ));
    }

    #[test]
    fn equality_is_content_and_target() {
        let a = Gcc::parse("a", digest(5), LISTING_1, GccMetadata::default()).unwrap();
        let b = Gcc::parse("b", digest(5), LISTING_1, GccMetadata::default()).unwrap();
        assert_eq!(a, b); // name/metadata do not affect identity
        let c = a.retarget(digest(6));
        assert_ne!(a, c);
        assert_eq!(c.target(), digest(6));
        assert_eq!(c.source(), a.source());
    }

    #[test]
    fn retarget_shares_the_compiled_program() {
        let a = Gcc::parse("a", digest(5), LISTING_1, GccMetadata::default()).unwrap();
        let c = a.retarget(digest(6));
        assert!(Arc::ptr_eq(a.compiled(), c.compiled()));
    }
}
