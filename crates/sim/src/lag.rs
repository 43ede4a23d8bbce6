//! The staleness simulation: manual mirroring vs RSF polling.

use nrslb_core::{Usage, ValidationMode, Validator};
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_rsf::{FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig, Subscriber};
use nrslb_x509::builder::{CaKey, CertificateBuilder};
use nrslb_x509::{Certificate, DistinguishedName};

/// Seconds per simulated day.
pub const DAY: i64 = 86_400;

/// How a derivative tracks its primary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Manual mirroring: the derivative applies the primary's state from
    /// `lag_days` ago (release-cycle mirroring, Ma et al.'s finding).
    Manual {
        /// Mirroring lag in days.
        lag_days: u32,
    },
    /// RSF subscription: poll the feed every `poll_interval_hours`.
    Rsf {
        /// Polling interval in hours (the paper proposes hourly).
        poll_interval_hours: u32,
    },
}

/// A derivative store profile.
#[derive(Clone, Debug)]
pub struct DerivativeProfile {
    /// Display name (`"debian"`, `"android"`, ...).
    pub name: String,
    /// Tracking policy.
    pub policy: UpdatePolicy,
}

/// Derivative profiles parameterised with the staleness the paper quotes
/// from Ma et al. (IMC '21): no derivative matches NSS's schedule;
/// Android is "always several months behind"; Amazon Linux averages
/// "more than four substantial versions" (NSS ships roughly every 10
/// weeks, so ≈ 280 days).
pub fn ma_et_al_profiles() -> Vec<DerivativeProfile> {
    vec![
        DerivativeProfile {
            name: "debian".into(),
            policy: UpdatePolicy::Manual { lag_days: 90 },
        },
        DerivativeProfile {
            name: "ubuntu".into(),
            policy: UpdatePolicy::Manual { lag_days: 60 },
        },
        DerivativeProfile {
            name: "android".into(),
            policy: UpdatePolicy::Manual { lag_days: 150 },
        },
        DerivativeProfile {
            name: "amazon-linux".into(),
            policy: UpdatePolicy::Manual { lag_days: 280 },
        },
        DerivativeProfile {
            name: "alpine".into(),
            policy: UpdatePolicy::Manual { lag_days: 45 },
        },
        DerivativeProfile {
            name: "nodejs".into(),
            policy: UpdatePolicy::Manual { lag_days: 120 },
        },
        DerivativeProfile {
            name: "rsf-hourly".into(),
            policy: UpdatePolicy::Rsf {
                poll_interval_hours: 1,
            },
        },
        DerivativeProfile {
            name: "rsf-daily".into(),
            policy: UpdatePolicy::Rsf {
                poll_interval_hours: 24,
            },
        },
    ]
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct LagConfig {
    /// Simulated horizon in days.
    pub horizon_days: u32,
    /// Day the primary partially distrusts the incident root (attaches a
    /// GCC blocking newly issued leaves).
    pub distrust_day: u32,
    /// Day the primary adds a brand-new root.
    pub addition_day: u32,
    /// Derivatives to simulate.
    pub derivatives: Vec<DerivativeProfile>,
}

impl Default for LagConfig {
    fn default() -> Self {
        LagConfig {
            horizon_days: 365,
            distrust_day: 30,
            addition_day: 30,
            derivatives: ma_et_al_profiles(),
        }
    }
}

/// Per-derivative results.
#[derive(Clone, Debug, PartialEq)]
pub struct DerivativeOutcome {
    /// The derivative's name.
    pub name: String,
    /// Days (after the distrust event) during which the derivative's
    /// clients still accepted the attack chain.
    pub vulnerability_window_days: f64,
    /// Days (after the addition event) during which the derivative's
    /// clients rejected the new root's legitimate chain.
    pub incompatibility_window_days: f64,
    /// Bytes fetched over the feed (0 for manual mirroring).
    pub feed_bytes: usize,
}

/// Full simulation results.
#[derive(Clone, Debug)]
pub struct LagOutcome {
    /// One row per derivative.
    pub per_derivative: Vec<DerivativeOutcome>,
}

struct World {
    /// Primary store state by day (index = day).
    primary_by_day: Vec<RootStore>,
    /// Attack chain: post-incident leaf under the distrusted root.
    attack_leaf: Certificate,
    attack_pool: Vec<Certificate>,
    /// Legitimate chain under the newly added root.
    new_leaf: Certificate,
    new_pool: Vec<Certificate>,
}

fn build_world(config: &LagConfig) -> World {
    let distrust_t = config.distrust_day as i64 * DAY;

    // Root A: stable background root (keeps stores non-trivial).
    let a_key = CaKey::generate_for_tests("Lag Stable Root", 0x80);
    let a_root = CertificateBuilder::new()
        .validity_window(0, 4_000_000_000)
        .ca(None)
        .build_self_signed(&a_key)
        .unwrap();
    // Root B: the incident root.
    let b_key = CaKey::generate_for_tests("Lag Incident Root", 0x81);
    let b_root = CertificateBuilder::new()
        .validity_window(0, 4_000_000_000)
        .ca(None)
        .build_self_signed(&b_key)
        .unwrap();
    // Root C: added later.
    let c_key = CaKey::generate_for_tests("Lag New Root", 0x82);
    let c_root = CertificateBuilder::new()
        .validity_window(0, 4_000_000_000)
        .ca(None)
        .build_self_signed(&c_key)
        .unwrap();

    // The attack: a leaf mis-issued under B *after* the incident.
    let attack_leaf = CertificateBuilder::new()
        .subject(DistinguishedName::common_name("bank.example"))
        .dns_names(&["bank.example"])
        .validity_window(distrust_t, 4_000_000_000)
        .build_signed_by(&b_key)
        .unwrap();
    // The new root's legitimate leaf.
    let new_leaf = CertificateBuilder::new()
        .subject(DistinguishedName::common_name("fresh.example"))
        .dns_names(&["fresh.example"])
        .validity_window(0, 4_000_000_000)
        .build_signed_by(&c_key)
        .unwrap();

    // The GCC the primary attaches on distrust day: WoSign-style, only
    // leaves issued before the incident remain valid.
    let gcc = Gcc::parse(
        "lag-incident-response",
        b_root.fingerprint(),
        &format!("cutoff({distrust_t}).\nvalid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff(T), NB < T."),
        GccMetadata {
            justification: "distrust newly issued certificates after incident".into(),
            ..Default::default()
        },
    )
    .unwrap();

    // Primary state per day.
    let mut primary_by_day = Vec::with_capacity(config.horizon_days as usize);
    let mut current = RootStore::new("nss");
    current.add_trusted(a_root).unwrap();
    current.add_trusted(b_root.clone()).unwrap();
    for day in 0..config.horizon_days {
        if day == config.distrust_day {
            current.attach_gcc(gcc.clone()).unwrap();
        }
        if day == config.addition_day {
            current.add_trusted(c_root.clone()).unwrap();
        }
        primary_by_day.push(current.clone());
    }

    World {
        primary_by_day,
        attack_leaf,
        attack_pool: Vec::new(),
        new_leaf,
        new_pool: Vec::new(),
    }
}

/// Length of the intersection of `[a0, a1)` and `[b0, b1)`.
fn overlap(a0: i64, a1: i64, b0: i64, b1: i64) -> i64 {
    (a1.min(b1) - a0.max(b0)).max(0)
}

fn accepts(store: &RootStore, leaf: &Certificate, pool: &[Certificate], at: i64) -> bool {
    Validator::new(store.clone(), ValidationMode::UserAgent)
        .validate(leaf, pool, Usage::Tls, at)
        .expect("validation machinery")
        .accepted()
}

/// Run the simulation.
pub fn run_lag_simulation(config: &LagConfig) -> LagOutcome {
    let world = build_world(config);
    let horizon = config.horizon_days;

    // RSF infrastructure shared by all RSF derivatives.
    // The primary changes on two days, so each 2-of-3 signer signs the
    // endorsement and at most three checkpoint witnesses.
    let authority = QuorumAuthority::from_seed([0x90; 32], QuorumConfig { k: 2, n: 3 }, 3)
        .expect("quorum authority");
    let trust = FeedTrust::quorum(authority.trust());
    let feed_key = FeedKey::new_quorum([0x91; 32], 10, &authority).expect("feed key");
    let mut publisher =
        FeedPublisher::new_quorum("nss", feed_key, authority, &world.primary_by_day[0], 0)
            .expect("feed bootstrap");

    let mut per_derivative = Vec::new();
    for profile in &config.derivatives {
        match profile.policy {
            UpdatePolicy::Manual { lag_days } => {
                let mut vuln = 0u32;
                let mut incompat = 0u32;
                for day in 0..horizon {
                    let seen_day = day.saturating_sub(lag_days);
                    let store = &world.primary_by_day[seen_day as usize];
                    let t = day as i64 * DAY + DAY / 2;
                    if day >= config.distrust_day
                        && accepts(store, &world.attack_leaf, &world.attack_pool, t)
                    {
                        vuln += 1;
                    }
                    if day >= config.addition_day
                        && !accepts(store, &world.new_leaf, &world.new_pool, t)
                    {
                        incompat += 1;
                    }
                }
                per_derivative.push(DerivativeOutcome {
                    name: profile.name.clone(),
                    vulnerability_window_days: vuln as f64,
                    incompatibility_window_days: incompat as f64,
                    feed_bytes: 0,
                });
            }
            UpdatePolicy::Rsf {
                poll_interval_hours,
            } => {
                // Event-driven: the subscriber's store only changes at
                // poll times, so windows are computed exactly from the
                // inter-poll intervals. Polls are phase-offset from the
                // publisher's (day-aligned) events, as real schedules
                // would be.
                let mut subscriber = Subscriber::builder(&profile.name, trust.clone()).build();
                let poll_interval = poll_interval_hours as i64 * 3600;
                let phase = poll_interval / 3;
                let distrust_t = config.distrust_day as i64 * DAY;
                let addition_t = config.addition_day as i64 * DAY;
                let horizon_t = horizon as i64 * DAY;

                let mut vuln_secs = 0i64;
                let mut incompat_secs = 0i64;
                let mut feed_bytes = 0usize;
                // Acceptance of the two probe chains under the current
                // subscriber store (re-evaluated only after changes).
                let mut attack_ok = false;
                let mut new_ok = false;
                let mut published_day: i64 = -1;
                let mut t = 0i64;
                while t < horizon_t {
                    // Publisher state catches up to the current day.
                    let day = (t / DAY).min(horizon as i64 - 1);
                    while published_day < day {
                        published_day += 1;
                        publisher
                            .publish(
                                &world.primary_by_day[published_day as usize],
                                published_day * DAY,
                            )
                            .expect("publish");
                    }
                    let report = subscriber.sync(&mut publisher, t).expect("sync");
                    feed_bytes += report.bytes_transferred;
                    if report.deltas_applied > 0 || report.snapshot_applied || t == 0 {
                        attack_ok = accepts(
                            subscriber.store(),
                            &world.attack_leaf,
                            &world.attack_pool,
                            (t + 1).max(distrust_t + 1),
                        );
                        new_ok = accepts(
                            subscriber.store(),
                            &world.new_leaf,
                            &world.new_pool,
                            (t + 1).max(addition_t + 1),
                        );
                    }
                    // The store now holds until the next poll.
                    let next = if t == 0 { phase } else { t + poll_interval };
                    let interval_end = next.min(horizon_t);
                    if attack_ok {
                        vuln_secs += overlap(t, interval_end, distrust_t, horizon_t);
                    }
                    if !new_ok {
                        incompat_secs += overlap(t, interval_end, addition_t, horizon_t);
                    }
                    t = next;
                }
                per_derivative.push(DerivativeOutcome {
                    name: profile.name.clone(),
                    vulnerability_window_days: vuln_secs as f64 / DAY as f64,
                    incompatibility_window_days: incompat_secs as f64 / DAY as f64,
                    feed_bytes,
                });
            }
        }
    }
    LagOutcome { per_derivative }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(derivatives: Vec<DerivativeProfile>) -> LagConfig {
        LagConfig {
            horizon_days: 60,
            distrust_day: 10,
            addition_day: 10,
            derivatives,
        }
    }

    #[test]
    fn manual_windows_equal_lag() {
        let config = quick_config(vec![
            DerivativeProfile {
                name: "lag-20".into(),
                policy: UpdatePolicy::Manual { lag_days: 20 },
            },
            DerivativeProfile {
                name: "lag-0".into(),
                policy: UpdatePolicy::Manual { lag_days: 0 },
            },
        ]);
        let out = run_lag_simulation(&config);
        let lag20 = &out.per_derivative[0];
        assert_eq!(lag20.vulnerability_window_days, 20.0);
        assert_eq!(lag20.incompatibility_window_days, 20.0);
        let lag0 = &out.per_derivative[1];
        assert_eq!(lag0.vulnerability_window_days, 0.0);
        assert_eq!(lag0.incompatibility_window_days, 0.0);
    }

    #[test]
    fn rsf_hourly_window_under_a_day() {
        let config = quick_config(vec![DerivativeProfile {
            name: "rsf".into(),
            policy: UpdatePolicy::Rsf {
                poll_interval_hours: 1,
            },
        }]);
        let out = run_lag_simulation(&config);
        let rsf = &out.per_derivative[0];
        assert!(
            rsf.vulnerability_window_days < 1.0,
            "vuln window {} days",
            rsf.vulnerability_window_days
        );
        assert!(rsf.incompatibility_window_days < 1.0);
        assert!(rsf.feed_bytes > 0);
    }

    #[test]
    fn lag_cut_by_rsf_orders_of_magnitude() {
        let config = quick_config(vec![
            DerivativeProfile {
                name: "manual".into(),
                policy: UpdatePolicy::Manual { lag_days: 40 },
            },
            DerivativeProfile {
                name: "rsf".into(),
                policy: UpdatePolicy::Rsf {
                    poll_interval_hours: 1,
                },
            },
        ]);
        let out = run_lag_simulation(&config);
        let manual = &out.per_derivative[0];
        let rsf = &out.per_derivative[1];
        assert!(manual.vulnerability_window_days >= 30.0);
        assert!(rsf.vulnerability_window_days * 100.0 < manual.vulnerability_window_days);
    }
}
