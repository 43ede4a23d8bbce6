//! Command implementations. Each command writes human output to the
//! provided writer so tests can capture it.

use crate::opts::Opts;
use crate::CliError;
use nrslb_core::{facts, Usage, ValidationMode, Validator};
use nrslb_crypto::sha256::Digest;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_rsf::Snapshot;
use nrslb_x509::Certificate;
use std::io::Write;

/// Dispatch a full argument vector (without the program name).
pub fn run(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = Opts::parse(args)?;
    let words: Vec<&str> = opts.positional.iter().map(|s| s.as_str()).collect();
    match words.as_slice() {
        ["store", "new"] => store_new(&opts, out),
        ["store", "show"] => store_show(&opts, out),
        ["store", "add-root"] => store_add_root(&opts, out),
        ["store", "distrust"] => store_distrust(&opts, out),
        ["store", "attach-gcc"] => store_attach_gcc(&opts, out),
        ["gcc", "check"] => gcc_check(&opts, out),
        ["gcc", "explain"] => gcc_explain(&opts, out),
        ["validate"] => validate(&opts, out),
        ["convert"] => convert(&opts, out),
        ["daemon"] => daemon(&opts, out),
        ["demo", "make-pki"] => demo_make_pki(&opts, out),
        ["demo", "incidents"] => demo_incidents(out),
        ["demo", "quorum"] => demo_quorum(&opts, out),
        [] => Err(CliError::Usage(
            "expected a command; see crate docs (store/gcc/validate/convert/daemon/demo)".into(),
        )),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn read(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::Io(path.into(), e))
}

fn read_str(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.into(), e))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| CliError::Io(path.into(), e))
}

/// Load a store file (RSF snapshot encoding).
pub fn load_store(path: &str) -> Result<RootStore, CliError> {
    let bytes = read(path)?;
    let snap = Snapshot::decode(&bytes).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    snap.materialize(&snap.feed.clone())
        .map_err(|e| CliError::Invalid(format!("{path}: {e}")))
}

/// Save a store file.
pub fn save_store(path: &str, store: &RootStore) -> Result<(), CliError> {
    let snap = Snapshot::capture(store.name(), store.version(), 0, store);
    write_file(path, &snap.encode())
}

/// Load one certificate from a DER or PEM file (sniffed by content).
fn load_cert(path: &str) -> Result<Certificate, CliError> {
    let bytes = read(path)?;
    if bytes.starts_with(b"-----BEGIN") {
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::Invalid(format!("{path}: non-utf8 PEM")))?;
        nrslb_x509::pem::decode(&text).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
    } else {
        Certificate::from_der(&bytes).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
    }
}

fn load_chain(spec: &str) -> Result<Vec<Certificate>, CliError> {
    let mut chain = Vec::new();
    for path in spec.split(',') {
        chain.push(load_cert(path)?);
    }
    if chain.is_empty() {
        return Err(CliError::Usage("--chain needs at least one file".into()));
    }
    Ok(chain)
}

fn parse_fingerprint(hex: &str) -> Result<Digest, CliError> {
    Digest::from_hex(hex).map_err(|_| CliError::Invalid(format!("bad fingerprint {hex:?}")))
}

fn parse_usage(s: &str) -> Result<Usage, CliError> {
    match s {
        "TLS" | "tls" => Ok(Usage::Tls),
        "S/MIME" | "smime" | "s/mime" => Ok(Usage::SMime),
        other => Err(CliError::Usage(format!("unknown usage {other:?}"))),
    }
}

fn store_new(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let path = opts.require("out")?;
    let store = RootStore::new(opts.get_or("name", "local"));
    save_store(path, &store)?;
    writeln!(out, "created empty store {path}").ok();
    Ok(())
}

fn store_show(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let store = load_store(opts.require("store")?)?;
    writeln!(
        out,
        "store {:?}, {} trusted root(s)",
        store.name(),
        store.len()
    )
    .ok();
    for (fp, rec) in store.iter() {
        writeln!(out, "  trusted {} {}", fp.to_hex(), rec.cert.subject()).ok();
        if let Some(t) = rec.tls_distrust_after {
            writeln!(out, "    tls-distrust-after {t}").ok();
        }
        if let Some(t) = rec.smime_distrust_after {
            writeln!(out, "    smime-distrust-after {t}").ok();
        }
        if !rec.ev_allowed {
            writeln!(out, "    ev-disallowed").ok();
        }
        for gcc in &rec.gccs {
            writeln!(
                out,
                "    gcc {:?} ({} rules) {}",
                gcc.name(),
                gcc.program().rules.len(),
                gcc.metadata().justification
            )
            .ok();
        }
    }
    for (fp, why) in store.iter_distrusted() {
        writeln!(out, "  distrusted {} ({why})", fp.to_hex()).ok();
    }
    Ok(())
}

fn store_add_root(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let path = opts.require("store")?;
    let mut store = load_store(path)?;
    let cert = load_cert(opts.require("cert")?)?;
    let fp = cert.fingerprint();
    store
        .add_trusted(cert)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    save_store(path, &store)?;
    writeln!(out, "added root {}", fp.to_hex()).ok();
    Ok(())
}

fn store_distrust(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let path = opts.require("store")?;
    let mut store = load_store(path)?;
    let fp = parse_fingerprint(opts.require("fingerprint")?)?;
    store.distrust(fp, opts.get_or("why", "operator decision"));
    save_store(path, &store)?;
    writeln!(out, "distrusted {}", fp.to_hex()).ok();
    Ok(())
}

fn store_attach_gcc(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let path = opts.require("store")?;
    let mut store = load_store(path)?;
    let fp = parse_fingerprint(opts.require("fingerprint")?)?;
    let source = read_str(opts.require("gcc")?)?;
    let gcc = Gcc::parse(
        opts.get_or("name", "unnamed"),
        fp,
        &source,
        GccMetadata {
            justification: opts.get_or("why", "").to_string(),
            ..Default::default()
        },
    )
    .map_err(|e| CliError::Invalid(format!("GCC rejected: {e}")))?;
    store
        .attach_gcc(gcc)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    save_store(path, &store)?;
    writeln!(out, "attached GCC to {}", fp.to_hex()).ok();
    Ok(())
}

fn gcc_check(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let source = read_str(opts.require("gcc")?)?;
    match Gcc::parse("check", Digest::ZERO, &source, GccMetadata::default()) {
        Ok(gcc) => {
            writeln!(
                out,
                "ok: {} rules, defines valid/2, safe and stratifiable",
                gcc.program().rules.len()
            )
            .ok();
            Ok(())
        }
        Err(e) => Err(CliError::Invalid(format!("GCC rejected: {e}"))),
    }
}

fn gcc_explain(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let source = read_str(opts.require("gcc")?)?;
    let chain = load_chain(opts.require("chain")?)?;
    let usage = parse_usage(opts.get_or("usage", "TLS"))?;
    let gcc = Gcc::parse("explain", Digest::ZERO, &source, GccMetadata::default())
        .map_err(|e| CliError::Invalid(format!("GCC rejected: {e}")))?;
    match nrslb_core::gcc_eval::explain_gcc(&gcc, &chain, usage)
        .map_err(|e| CliError::Invalid(e.to_string()))?
    {
        Some(derivation) => {
            writeln!(out, "GCC ACCEPTS the chain for {usage}; derivation:").ok();
            write!(out, "{}", derivation.render()).ok();
        }
        None => {
            writeln!(
                out,
                "GCC REJECTS the chain for {usage}: no derivation of valid/2 exists"
            )
            .ok();
        }
    }
    Ok(())
}

fn validate(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let store = load_store(opts.require("store")?)?;
    let chain = load_chain(opts.require("chain")?)?;
    let usage = parse_usage(opts.get_or("usage", "TLS"))?;
    let now: i64 = opts
        .get_or("time", "0")
        .parse()
        .map_err(|_| CliError::Usage("--time must be an integer".into()))?;
    let mode = match opts.get_or("mode", "ua") {
        "ua" | "user-agent" => ValidationMode::UserAgent,
        "hammurabi" => ValidationMode::Hammurabi,
        other => return Err(CliError::Usage(format!("unknown mode {other:?}"))),
    };
    let validator = Validator::new(store, mode);
    let outcome = match opts.get("host") {
        Some(host) => validator.validate_for_host(&chain[0], &chain[1..], host, now),
        None => validator.validate(&chain[0], &chain[1..], usage, now),
    }
    .map_err(|e| CliError::Invalid(e.to_string()))?;
    if let Some(accepted) = &outcome.accepted_chain {
        writeln!(
            out,
            "ACCEPTED via {} certificate chain (ev_granted={})",
            accepted.chain.len(),
            accepted.ev_granted
        )
        .ok();
        for (i, cert) in accepted.chain.iter().enumerate() {
            writeln!(
                out,
                "  [{i}] {} {}",
                cert.fingerprint().short(),
                cert.subject()
            )
            .ok();
        }
    } else {
        writeln!(
            out,
            "REJECTED: {}",
            outcome.final_reason().expect("rejected")
        )
        .ok();
        for attempt in &outcome.attempts {
            if let Err(reason) = &attempt.result {
                writeln!(
                    out,
                    "  candidate of {} certs: {reason}",
                    attempt.chain.len()
                )
                .ok();
            }
        }
        return Err(CliError::Invalid("chain rejected".into()));
    }
    Ok(())
}

fn convert(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let chain = load_chain(opts.require("chain")?)?;
    let db = facts::chain_facts(&chain);
    write!(out, "{}", db.to_fact_text()).ok();
    Ok(())
}

fn daemon(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let store = load_store(opts.require("store")?)?;
    let socket = opts.require("socket")?;
    let daemon = nrslb_core::daemon::TrustDaemon::builder()
        .socket(socket)
        .spawn(store)
        .map_err(|e| CliError::Io(socket.into(), e))?;
    writeln!(out, "trust daemon listening on {socket} (ctrl-c to stop)").ok();
    // Serve until killed (the handle's Drop cleans up the socket).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
        let _ = &daemon;
    }
}

fn demo_make_pki(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = opts.require("dir")?;
    std::fs::create_dir_all(dir).map_err(|e| CliError::Io(dir.into(), e))?;
    let host = opts.get_or("host", "demo.example");
    let pki = nrslb_x509::testutil::simple_chain(host);
    let p = |name: &str| format!("{}/{name}", dir.trim_end_matches('/'));
    write_file(&p("leaf.der"), pki.leaf.to_der())?;
    write_file(&p("intermediate.der"), pki.intermediate.to_der())?;
    write_file(&p("root.der"), pki.root.to_der())?;
    write_file(
        &p("leaf.pem"),
        nrslb_x509::pem::encode(&pki.leaf).as_bytes(),
    )?;
    write_file(
        &p("chain.pem"),
        format!(
            "{}{}{}",
            nrslb_x509::pem::encode(&pki.leaf),
            nrslb_x509::pem::encode(&pki.intermediate),
            nrslb_x509::pem::encode(&pki.root)
        )
        .as_bytes(),
    )?;
    let mut store = RootStore::new("demo");
    store
        .add_trusted(pki.root.clone())
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    save_store(&p("store.rsf"), &store)?;
    writeln!(
        out,
        "wrote leaf.der intermediate.der root.der store.rsf under {dir}\n\
         validate with: nrslb validate --store {dir}/store.rsf \
         --chain {dir}/leaf.der,{dir}/intermediate.der --host {host} --time {}",
        pki.now
    )
    .ok();
    Ok(())
}

fn demo_incidents(out: &mut dyn Write) -> Result<(), CliError> {
    use nrslb_incidents::{all_incidents, evaluate_scenario, DerivativeStrategy};
    writeln!(
        out,
        "{:<12} {:<15} {:>11} {:>6} {:>9}",
        "incident", "strategy", "vulnerable", "DoS", "matches"
    )
    .ok();
    for spec in all_incidents() {
        let scenario = (spec.build)();
        for strategy in [
            DerivativeStrategy::BinaryKeep,
            DerivativeStrategy::BinaryRemove,
            DerivativeStrategy::Gcc,
        ] {
            let stats = evaluate_scenario(&scenario, strategy);
            writeln!(
                out,
                "{:<12} {:<15} {:>11} {:>6} {:>9}",
                spec.id,
                strategy.to_string(),
                stats.vulnerable(),
                stats.denial_of_service(),
                stats.matches_primary()
            )
            .ok();
        }
    }
    Ok(())
}

/// A guided tour of the k-of-n coordinating body: share issuance,
/// sub-quorum recovery refusal, a quorum-witnessed feed checkpoint, a
/// compromised-minority forgery rejected live, and a share-rotation
/// ceremony flowing through the feed like any other mutation.
fn demo_quorum(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    use nrslb_crypto::shamir;
    use nrslb_rsf::{
        FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig, QuorumSignature,
        Subscriber,
    };

    let parse = |key: &str, default: &str| -> Result<u8, CliError> {
        opts.get_or(key, default)
            .parse::<u8>()
            .map_err(|_| CliError::Usage(format!("--{key} must be a small integer")))
    };
    let k = parse("k", "2")?;
    let n = parse("n", "3")?;
    if k == 0 || k > n || n > 8 {
        return Err(CliError::Usage(format!(
            "the demo needs 1 <= k <= n <= 8, got k={k} n={n}"
        )));
    }
    let config = QuorumConfig { k, n };
    let invalid = |e: nrslb_rsf::RsfError| CliError::Invalid(e.to_string());

    writeln!(out, "quorum demo: {k}-of-{n} coordinating body").ok();
    let authority = QuorumAuthority::from_seed([0x42; 32], config, 6).map_err(invalid)?;
    for id in 0..n {
        let share = authority
            .share(id)
            .ok_or_else(|| CliError::Invalid(format!("no share for signer {id}")))?;
        writeln!(
            out,
            "  signer {id}: holds share index {} ({} body bytes)",
            share.index,
            share.body.len()
        )
        .ok();
    }
    if k > 1 {
        let minority_shares: Vec<shamir::Share> =
            (0..k - 1).filter_map(|id| authority.share(id)).collect();
        match shamir::recover(&minority_shares, k) {
            Err(e) => writeln!(out, "  {} shares alone: {e}", k - 1).ok(),
            Ok(_) => return Err(CliError::Invalid("sub-quorum recovery succeeded".into())),
        };
    }

    let mut truth = RootStore::new("primary");
    truth
        .add_trusted(nrslb_x509::testutil::simple_chain("quorum.example").root)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let trust = FeedTrust::quorum(authority.trust());
    let key = FeedKey::new_quorum([0x43; 32], 8, &authority).map_err(invalid)?;
    let mut publisher =
        FeedPublisher::new_quorum("primary", key, authority, &truth, 0).map_err(invalid)?;
    let mut subscriber = Subscriber::builder("derivative", trust).build();
    subscriber.sync(&mut publisher, 10).map_err(invalid)?;
    writeln!(
        out,
        "  honest sync: subscriber at sequence {}",
        subscriber.sequence()
    )
    .ok();

    // A compromised minority (k-1 signers) re-witnesses a checkpoint
    // over a doctored feed; the subscriber must refuse it and stay
    // un-quarantined (the forgery is retryable, not a split view).
    truth.distrust(
        nrslb_crypto::sha256::sha256(b"demo incident"),
        "demo incident",
    );
    publisher.publish(&truth, 20).map_err(invalid)?;
    let messages: Vec<_> = publisher
        .fetch(subscriber.sequence())
        .into_iter()
        .cloned()
        .collect();
    let mut forged = publisher.checkpoint().map_err(invalid)?;
    let minority = QuorumAuthority::from_seed([0x42; 32], config, 6).map_err(invalid)?;
    let ids: Vec<u8> = (0..k - 1).collect();
    forged.witness = if ids.is_empty() {
        // No member to sign: an empty witness at the current epoch.
        QuorumSignature {
            epoch: minority.epoch(),
            bitmap: 0,
            partials: Vec::new(),
        }
    } else {
        minority
            .sign_with(&ids, &forged.encode())
            .map_err(invalid)?
    };
    match subscriber.poll(messages, forged, None, 20) {
        Err(e) => writeln!(out, "  {}-signer forgery: rejected ({e})", k - 1).ok(),
        Ok(_) => return Err(CliError::Invalid("forged checkpoint accepted".into())),
    };
    subscriber.sync(&mut publisher, 30).map_err(invalid)?;
    writeln!(
        out,
        "  recovery sync: subscriber at sequence {}",
        subscriber.sequence()
    )
    .ok();

    let event = publisher.rotate(40).map_err(invalid)?.clone();
    subscriber.sync(&mut publisher, 50).map_err(invalid)?;
    writeln!(
        out,
        "  rotation ceremony: epoch {} -> {}, applied by subscriber ({} total)",
        event.from_epoch,
        event.to_epoch,
        subscriber.counters().rotations_applied
    )
    .ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(args: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        run(args.iter().map(|s| s.to_string()).collect(), &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn tmpdir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("nrslb-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn store_lifecycle() {
        let dir = tmpdir("lifecycle");
        let store_path = format!("{dir}/store.rsf");
        run_cmd(&["store", "new", "--out", &store_path, "--name", "mystore"]).unwrap();

        // Make certs to add.
        run_cmd(&["demo", "make-pki", "--dir", &dir, "--host", "cli.example"]).unwrap();
        let output = run_cmd(&[
            "store",
            "add-root",
            "--store",
            &store_path,
            "--cert",
            &format!("{dir}/root.der"),
        ])
        .unwrap();
        assert!(output.contains("added root"));

        let shown = run_cmd(&["store", "show", "--store", &store_path]).unwrap();
        assert!(shown.contains("1 trusted root"));
        assert!(shown.contains("cli.example Root CA"));
    }

    #[test]
    fn gcc_check_accepts_and_rejects() {
        let dir = tmpdir("gcc");
        let good = format!("{dir}/good.dl");
        std::fs::write(&good, "valid(Chain, _) :- leaf(Chain, _).").unwrap();
        let out = run_cmd(&["gcc", "check", "--gcc", &good]).unwrap();
        assert!(out.contains("ok:"));

        let bad = format!("{dir}/bad.dl");
        std::fs::write(&bad, "valid(C, U) :- q(C, U), \\+r(X).").unwrap();
        let err = run_cmd(&["gcc", "check", "--gcc", &bad]).unwrap_err();
        assert!(err.to_string().contains("GCC rejected"));
    }

    #[test]
    fn validate_and_convert_end_to_end() {
        let dir = tmpdir("validate");
        run_cmd(&["demo", "make-pki", "--dir", &dir, "--host", "v.example"]).unwrap();
        let store = format!("{dir}/store.rsf");
        let chain = format!("{dir}/leaf.der,{dir}/intermediate.der");
        let now = nrslb_x509::testutil::T0.to_string();

        let out = run_cmd(&[
            "validate",
            "--store",
            &store,
            "--chain",
            &chain,
            "--host",
            "v.example",
            "--time",
            &now,
        ])
        .unwrap();
        assert!(out.contains("ACCEPTED"), "{out}");

        // Hammurabi mode agrees.
        let out = run_cmd(&[
            "validate",
            "--store",
            &store,
            "--chain",
            &chain,
            "--time",
            &now,
            "--mode",
            "hammurabi",
        ])
        .unwrap();
        assert!(out.contains("ACCEPTED"));

        // Wrong host is rejected with a reason.
        let err = run_cmd(&[
            "validate",
            "--store",
            &store,
            "--chain",
            &chain,
            "--host",
            "evil.example",
            "--time",
            &now,
        ])
        .unwrap_err();
        assert!(err.to_string().contains("rejected"));

        // Conversion prints facts including the leaf SAN.
        let out = run_cmd(&["convert", "--chain", &chain]).unwrap();
        assert!(out.contains("san("));
        assert!(out.contains("v.example"));
        assert!(out.contains("signs("));
    }

    #[test]
    fn attach_gcc_flows_into_validation() {
        let dir = tmpdir("attach");
        run_cmd(&["demo", "make-pki", "--dir", &dir, "--host", "g.example"]).unwrap();
        let store = format!("{dir}/store.rsf");
        let chain = format!("{dir}/leaf.der,{dir}/intermediate.der");
        let now = nrslb_x509::testutil::T0.to_string();

        // Find the root fingerprint from store show output.
        let shown = run_cmd(&["store", "show", "--store", &store]).unwrap();
        let fp = shown
            .lines()
            .find(|l| l.trim_start().starts_with("trusted "))
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .to_string();

        let deny = format!("{dir}/deny.dl");
        std::fs::write(&deny, r#"valid(Chain, "never") :- leaf(Chain, _)."#).unwrap();
        run_cmd(&[
            "store",
            "attach-gcc",
            "--store",
            &store,
            "--fingerprint",
            &fp,
            "--gcc",
            &deny,
            "--name",
            "deny-all",
        ])
        .unwrap();

        let err = run_cmd(&[
            "validate", "--store", &store, "--chain", &chain, "--time", &now,
        ])
        .unwrap_err();
        assert!(err.to_string().contains("rejected"));
    }

    #[test]
    fn distrust_blocks_validation() {
        let dir = tmpdir("distrust");
        run_cmd(&["demo", "make-pki", "--dir", &dir, "--host", "d.example"]).unwrap();
        let store = format!("{dir}/store.rsf");
        let shown = run_cmd(&["store", "show", "--store", &store]).unwrap();
        let fp = shown
            .lines()
            .find(|l| l.trim_start().starts_with("trusted "))
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .to_string();
        run_cmd(&[
            "store",
            "distrust",
            "--store",
            &store,
            "--fingerprint",
            &fp,
            "--why",
            "test",
        ])
        .unwrap();
        let shown = run_cmd(&["store", "show", "--store", &store]).unwrap();
        assert!(shown.contains("distrusted"));
        let chain = format!("{dir}/leaf.der,{dir}/intermediate.der");
        let err = run_cmd(&[
            "validate",
            "--store",
            &store,
            "--chain",
            &chain,
            "--time",
            &nrslb_x509::testutil::T0.to_string(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("rejected"));
    }

    #[test]
    fn incident_demo_prints_matrix() {
        let out = run_cmd(&["demo", "incidents"]).unwrap();
        assert!(out.contains("symantec"));
        assert!(out.contains("trustcor"));
        assert_eq!(out.matches("gcc").count(), 7);
    }

    #[test]
    fn quorum_demo_walks_the_happy_and_forged_paths() {
        let out = run_cmd(&["demo", "quorum"]).unwrap();
        assert!(out.contains("2-of-3 coordinating body"), "{out}");
        assert!(out.contains("1 shares alone"), "{out}");
        assert!(out.contains("1-signer forgery: rejected"), "{out}");
        assert!(out.contains("rotation ceremony: epoch 1 -> 2"), "{out}");

        let out = run_cmd(&["demo", "quorum", "--k", "3", "--n", "4"]).unwrap();
        assert!(out.contains("3-of-4 coordinating body"), "{out}");
        assert!(out.contains("2-signer forgery: rejected"), "{out}");

        // With k = 1 the forger holds no member key: its empty witness
        // is a retryable sub-quorum rejection, and recovery still syncs.
        let out = run_cmd(&["demo", "quorum", "--k", "1", "--n", "2"]).unwrap();
        assert!(
            out.contains(
                "0-signer forgery: rejected (feed signature failure: sub-quorum signature)"
            ),
            "{out}"
        );
        assert!(out.contains("recovery sync"), "{out}");

        assert!(run_cmd(&["demo", "quorum", "--k", "5", "--n", "3"]).is_err());
        assert!(run_cmd(&["demo", "quorum", "--k", "0"]).is_err());
    }

    #[test]
    fn pem_files_accepted() {
        let dir = tmpdir("pem");
        run_cmd(&["demo", "make-pki", "--dir", &dir, "--host", "p.example"]).unwrap();
        let store = format!("{dir}/store.rsf");
        // Validate using the PEM leaf + DER intermediate, mixed.
        let chain = format!("{dir}/leaf.pem,{dir}/intermediate.der");
        let out = run_cmd(&[
            "validate",
            "--store",
            &store,
            "--chain",
            &chain,
            "--host",
            "p.example",
            "--time",
            &nrslb_x509::testutil::T0.to_string(),
        ])
        .unwrap();
        assert!(out.contains("ACCEPTED"), "{out}");
    }

    #[test]
    fn gcc_explain_prints_derivation() {
        let dir = tmpdir("explain");
        run_cmd(&["demo", "make-pki", "--dir", &dir, "--host", "e.example"]).unwrap();
        let gcc = format!("{dir}/policy.dl");
        std::fs::write(&gcc, "valid(Chain, _) :- leaf(Chain, C), \\+EV(C).").unwrap();
        let chain = format!("{dir}/leaf.der,{dir}/intermediate.der,{dir}/root.der");
        let out = run_cmd(&["gcc", "explain", "--gcc", &gcc, "--chain", &chain]).unwrap();
        assert!(out.contains("ACCEPTS"), "{out}");
        assert!(out.contains("leaf("), "{out}");
        assert!(out.contains("[absent]"), "{out}");
    }

    #[test]
    fn usage_errors() {
        assert!(run_cmd(&[]).is_err());
        assert!(run_cmd(&["bogus"]).is_err());
        assert!(run_cmd(&["store", "new"]).is_err()); // missing --out
        assert!(run_cmd(&["validate", "--store", "/nonexistent", "--chain", "x"]).is_err());
    }
}
