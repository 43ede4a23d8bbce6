//! Acceptance tests for the resilient sync engine (ISSUE 2): a
//! subscriber behind a faulty channel converges byte-identically; a
//! subscriber shown a rewritten feed history quarantines, never applies
//! the forged update, and keeps serving the last-good store with an
//! explicit staleness verdict.

use nrslb_crypto::sha256::sha256;
use nrslb_rootstore::RootStore;
use nrslb_rsf::signing::MessageKind;
use nrslb_rsf::{
    Clock, Delta, FaultInjector, FaultPlan, FeedKey, FeedPublisher, FeedTrust, QuorumAuthority,
    QuorumConfig, RsfError, Snapshot, Staleness, Subscriber, SyncPolicy, SyncState,
    TransparencyLog, VirtualClock,
};
use nrslb_x509::testutil::simple_chain;

/// The 2-of-3 coordinating body. Each signer signs the endorsement and
/// one witness per checkpoint: at most ten here, within a height-4
/// key's 16 one-time signatures.
fn authority() -> QuorumAuthority {
    QuorumAuthority::from_seed([0x71; 32], QuorumConfig { k: 2, n: 3 }, 4).expect("quorum")
}

fn trust() -> FeedTrust {
    FeedTrust::quorum(authority().trust())
}

/// A publisher of `truth` whose feed key is seeded with `feed_seed`.
fn publisher(feed_seed: u8, height: u8, truth: &RootStore) -> FeedPublisher {
    let authority = authority();
    let key = FeedKey::new_quorum([feed_seed; 32], height, &authority).expect("feed key");
    FeedPublisher::new_quorum("primary", key, authority, truth, 0).expect("publisher")
}

/// Canonical bytes of a store's *content* (name/sequence/time pinned).
fn canonical(store: &RootStore) -> Vec<u8> {
    Snapshot::capture("compare", 0, 0, store).encode()
}

#[test]
fn lossy_channel_converges_byte_identically() {
    let mut truth = RootStore::new("primary");
    truth
        .add_trusted(simple_chain("resilience-seed.example").root)
        .unwrap();
    let mut publisher = publisher(0x72, 12, &truth);
    let mut subscriber = Subscriber::builder("derivative", trust())
        .policy(SyncPolicy {
            max_attempts: 10,
            base_backoff_ms: 1,
            max_backoff_ms: 32,
            ..SyncPolicy::default()
        })
        .build();
    // Each of drop/delay/duplicate/truncate/bit-flip fires on 30% of
    // frames, independently.
    let mut injector = FaultInjector::new(FaultPlan::lossy(0.3, 0x7e57));

    for round in 0..8i64 {
        let t = round * 3_600;
        truth.distrust(
            sha256(format!("resilience-incident-{round}").as_bytes()),
            format!("incident {round}"),
        );
        publisher.publish(&truth, t).expect("publish");
        // A single round may exhaust its retry budget; later polls
        // repair it, exactly like a real polling schedule.
        let _ = subscriber.sync_resilient(&mut publisher, &mut injector, t);
    }
    let mut extra = 0i64;
    while subscriber.sequence() != publisher.sequence() && extra < 8 {
        extra += 1;
        let _ = subscriber.sync_resilient(&mut publisher, &mut injector, (8 + extra) * 3_600);
    }

    assert_eq!(subscriber.sequence(), publisher.sequence());
    assert_eq!(
        canonical(&truth),
        canonical(subscriber.store()),
        "replica must be byte-identical to the truth store"
    );
    assert_eq!(subscriber.state(), SyncState::Live);
    let counters = subscriber.counters();
    assert!(counters.retries > 0, "30% faults should force retries");
    assert!(
        counters.messages_rejected > 0,
        "truncation/bit-flip faults should produce rejected frames"
    );
    assert_eq!(counters.quarantines, 0);
}

#[test]
fn rewritten_history_quarantines_and_keeps_serving_last_good_store() {
    let mut truth = RootStore::new("primary");
    truth
        .add_trusted(simple_chain("honest-root.example").root)
        .unwrap();
    let mut publisher = publisher(0x73, 10, &truth);
    let mut subscriber = Subscriber::builder("derivative", trust())
        .staleness_bound_secs(3_600)
        .build();
    truth.distrust(sha256(b"honest-incident"), "honest incident");
    publisher.publish(&truth, 50).expect("publish");
    subscriber.sync(&mut publisher, 100).expect("honest sync");
    let good = canonical(subscriber.store());
    let pinned_size = subscriber.pinned_checkpoint().expect("pinned").size;

    // The publisher equivocates: it rebuilds the transparency log from
    // scratch with a different history, grows it past the pinned size,
    // and offers a forged delta plus a quorum-witnessed
    // checkpoint/"consistency proof" over the rewritten log.
    let fork_authority = authority();
    let fork_key = FeedKey::new_quorum([0x73; 32], 10, &fork_authority).expect("fork key");
    let mut forked_log = TransparencyLog::new();
    let mut evil = RootStore::new("primary");
    let evil_delta = Delta::between(&evil, &truth, 0, 1, 50);
    let forged = fork_key
        .sign(MessageKind::Delta, &evil_delta.encode())
        .expect("sign forged delta");
    for _ in 0..=pinned_size {
        forked_log.append(&forged);
    }
    let forged_next = {
        evil.distrust(sha256(b"attacker rewrite"), "attacker");
        let d = Delta::between(subscriber.store(), &evil, subscriber.sequence(), 2, 200);
        fork_key
            .sign(MessageKind::Delta, &d.encode())
            .expect("sign next forged delta")
    };
    forked_log.append(&forged_next);
    let forged_ckpt = forked_log
        .checkpoint(&fork_key, &fork_authority)
        .expect("forged checkpoint");
    let forged_proof = forked_log.prove_consistency(pinned_size, forked_log.len());

    let err = subscriber
        .poll(vec![forged_next.clone()], forged_ckpt, forged_proof, 200)
        .expect_err("rewritten history must be refused");
    assert!(
        matches!(err, RsfError::SplitView(_)),
        "expected SplitView, got {err}"
    );
    assert!(matches!(subscriber.state(), SyncState::Quarantined { .. }));
    // Nothing from the forged feed was applied.
    assert_eq!(canonical(subscriber.store()), good);

    // Once quarantined, every ingestion path is closed.
    let err = subscriber
        .ingest(&forged_next)
        .expect_err("quarantined subscriber must refuse updates");
    assert!(matches!(err, RsfError::Quarantined(_)));
    let err = subscriber
        .sync(&mut publisher, 300)
        .expect_err("quarantined subscriber must refuse to sync");
    assert!(matches!(err, RsfError::Quarantined(_)));

    // Past the staleness bound it still serves the last-good store,
    // with an explicit verdict and a counted stale serve.
    let (store, staleness) = subscriber.serve(100 + 4_000);
    assert_eq!(canonical(store), good);
    assert!(
        matches!(
            staleness,
            Staleness::Exceeded {
                age_secs: 4_000,
                bound_secs: 3_600
            }
        ),
        "expected Exceeded, got {staleness:?}"
    );
    let counters = subscriber.counters();
    assert_eq!(counters.quarantines, 1, "quarantine is counted once");
    assert_eq!(counters.stale_serves, 1);
}

#[test]
fn dead_channel_exhausts_retry_budget() {
    let mut truth = RootStore::new("primary");
    let mut publisher = publisher(0x74, 8, &truth);
    truth.distrust(sha256(b"unreachable-incident"), "incident");
    publisher.publish(&truth, 0).expect("publish");
    let mut subscriber = Subscriber::builder("derivative", trust())
        .policy(SyncPolicy {
            max_attempts: 3,
            base_backoff_ms: 1,
            max_backoff_ms: 4,
            ..SyncPolicy::default()
        })
        .build();
    let mut injector = FaultInjector::new(FaultPlan {
        drop: 1.0,
        ..FaultPlan::none()
    });

    let err = subscriber
        .sync_resilient(&mut publisher, &mut injector, 0)
        .expect_err("a channel that drops everything cannot converge");
    match err {
        RsfError::Exhausted { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected Exhausted, got {other}"),
    }
    // Exhaustion is transient, not publisher misbehaviour: no quarantine.
    assert_eq!(subscriber.counters().quarantines, 0);
    assert_eq!(subscriber.counters().attempts, 3);
    assert_eq!(subscriber.counters().retries, 2);
}

#[test]
fn backoff_and_staleness_run_on_virtual_time() {
    let mut truth = RootStore::new("primary");
    truth
        .add_trusted(simple_chain("virtual-time.example").root)
        .unwrap();
    let mut publisher = publisher(0x75, 8, &truth);
    let clock = VirtualClock::shared(1_000);
    let mut subscriber = Subscriber::builder("derivative", trust())
        .policy(SyncPolicy {
            max_attempts: 4,
            base_backoff_ms: 10_000,
            max_backoff_ms: 60_000,
            staleness_bound_secs: 3_600,
            ..SyncPolicy::default()
        })
        .clock(clock.clone())
        .build();

    // A dead channel: every retry's backoff is "slept" on the virtual
    // clock. Wall-clock sleeping here would take tens of seconds; the
    // test finishing instantly *is* the assertion that it does not.
    let mut dead = FaultInjector::new(FaultPlan {
        drop: 1.0,
        ..FaultPlan::none()
    });
    let before_ms = clock.now_millis();
    let err = subscriber
        .sync_resilient_now(&mut publisher, &mut dead)
        .expect_err("dead channel cannot converge");
    assert!(matches!(err, RsfError::Exhausted { attempts: 4, .. }));
    let slept_ms = clock.now_millis() - before_ms;
    assert!(
        slept_ms >= 3 * 10_000,
        "three retries must advance the virtual clock by their backoff, got {slept_ms}ms"
    );

    // A healthy sync at virtual-now, then staleness tracked purely by
    // advancing the clock — no real waiting on the assertion path.
    let mut clean = FaultInjector::new(FaultPlan::none());
    subscriber
        .sync_resilient_now(&mut publisher, &mut clean)
        .expect("clean channel syncs");
    assert!(matches!(
        subscriber.staleness_now(),
        Staleness::Fresh { .. }
    ));
    clock.advance_secs(3_601);
    match subscriber.staleness_now() {
        Staleness::Exceeded { bound_secs, .. } => assert_eq!(bound_secs, 3_600),
        other => panic!("expected Exceeded after advancing the clock, got {other:?}"),
    }
    assert_eq!(subscriber.state(), SyncState::Live);
}

#[test]
fn staleness_verdict_flips_exactly_one_second_past_the_bound() {
    // Regression: the bound is inclusive. A store whose age *equals*
    // the staleness bound is still Fresh; one second later it is
    // Exceeded. Driven entirely on virtual time so the boundary
    // instants are exact, assertable numbers.
    let mut truth = RootStore::new("primary");
    truth
        .add_trusted(simple_chain("boundary.example").root)
        .unwrap();
    let mut publisher = publisher(0x76, 8, &truth);
    const BOUND: i64 = 3_600;
    let sync_at = 10_000i64;
    let clock = VirtualClock::shared(sync_at);
    let mut subscriber = Subscriber::builder("derivative", trust())
        .staleness_bound_secs(BOUND)
        .clock(clock.clone())
        .build();
    subscriber.sync_now(&mut publisher).expect("clean sync");

    // Exactly at the threshold instant (age == bound): still Fresh.
    clock.set_millis((sync_at + BOUND) * 1_000);
    assert_eq!(
        subscriber.staleness_now(),
        Staleness::Fresh { age_secs: BOUND },
        "age == bound must still be Fresh"
    );
    let (_, verdict) = subscriber.serve_now();
    assert_eq!(verdict, Staleness::Fresh { age_secs: BOUND });
    assert_eq!(
        subscriber.counters().stale_serves,
        0,
        "a serve exactly at the bound is not a stale serve"
    );

    // One second later: Exceeded, and the serve counts as stale.
    clock.advance_secs(1);
    assert_eq!(
        subscriber.staleness_now(),
        Staleness::Exceeded {
            age_secs: BOUND + 1,
            bound_secs: BOUND
        }
    );
    let (_, verdict) = subscriber.serve_now();
    assert_eq!(
        verdict,
        Staleness::Exceeded {
            age_secs: BOUND + 1,
            bound_secs: BOUND
        }
    );
    assert_eq!(subscriber.counters().stale_serves, 1);
}
