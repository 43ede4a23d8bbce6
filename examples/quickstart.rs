//! Quickstart: validate a chain, then attach the paper's Listing 1 GCC
//! to its root and watch the policy bite — in-process first, then the
//! same evaluation delegated to a trust daemon over IPC.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nrslb::core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb::core::{Usage, ValidationMode, Validator};
use nrslb::rootstore::{Gcc, GccMetadata, RootStore};
use nrslb::x509::testutil::simple_chain;
use std::sync::Arc;

fn main() {
    // A synthetic PKI: root -> intermediate -> leaf for one hostname.
    let pki = simple_chain("shop.example");
    println!("leaf:         {:?}", pki.leaf);
    println!("intermediate: {:?}", pki.intermediate);
    println!("root:         {:?}", pki.root);

    // A root store that trusts the root, with no policy attached.
    let mut store = RootStore::new("quickstart");
    store.add_trusted(pki.root.clone()).unwrap();

    let validator = Validator::new(store.clone(), ValidationMode::UserAgent);
    let outcome = validator
        .validate_for_host(
            &pki.leaf,
            std::slice::from_ref(&pki.intermediate),
            "shop.example",
            pki.now,
        )
        .unwrap();
    println!("\nwithout GCC: accepted = {}", outcome.accepted());

    // Attach the paper's Listing 1 (TrustCor) constraint: the leaf must
    // have been issued before 2022-11-30. Our leaf is issued in early
    // 2022, so TLS stays valid; shift time forward and issue later and
    // it would not.
    let gcc = Gcc::parse(
        "trustcor-listing-1",
        pki.root.fingerprint(),
        r#"
        nov30th2022(1669784400).
        valid(Chain, "S/MIME") :-
          leaf(Chain, Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
        valid(Chain, "TLS") :-
          leaf(Chain, Cert), \+EV(Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
        "#,
        GccMetadata {
            justification: "TrustCor date/usage constraints (paper Listing 1)".into(),
            discussion_url: "https://groups.google.com/a/mozilla.org/g/dev-security-policy".into(),
            created_at: 1_669_784_400,
        },
    )
    .expect("GCC parses, is safe and stratifies");
    store.attach_gcc(gcc).unwrap();

    let validator = Validator::new(store.clone(), ValidationMode::UserAgent);
    for usage in [Usage::Tls, Usage::SMime] {
        let outcome = validator
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                usage,
                pki.now,
            )
            .unwrap();
        println!(
            "with Listing-1 GCC, usage {usage}: accepted = {} (gcc verdicts: {:?})",
            outcome.accepted(),
            outcome
                .attempts
                .last()
                .map(|a| a
                    .gcc_verdicts
                    .iter()
                    .map(|v| (&*v.gcc_name, v.accepted))
                    .collect::<Vec<_>>())
                .unwrap_or_default()
        );
    }

    // The same policy through the *platform execution* mode: a trust
    // daemon owns the store and evaluates GCCs over a Unix socket,
    // while the user-agent validator delegates via a keep-alive client.
    let daemon = TrustDaemon::builder()
        .socket(ephemeral_socket_path("quickstart"))
        .spawn(store.clone())
        .unwrap();
    let platform = Validator::new(
        store,
        ValidationMode::Platform(Arc::new(daemon.keep_alive_client())),
    );
    let outcome = platform
        .validate(
            &pki.leaf,
            std::slice::from_ref(&pki.intermediate),
            Usage::Tls,
            pki.now,
        )
        .unwrap();
    println!("\nvia trust daemon: accepted = {}", outcome.accepted());
}
