//! Property tests for the cache's self-invalidation: the configuration
//! fingerprint must change whenever any result-affecting knob changes,
//! and an unchanged source + configuration must always hit the cache.

use proptest::prelude::*;
use webssari_core::{FileOutcome, FileSummary, SolveBudget, Verifier, VerifierBuilder};
use webssari_engine::{Cache, CacheCaps, EngineBuilder, EntryReads};

/// The verifier knobs the fingerprint must track.
#[derive(Clone, Debug, PartialEq)]
struct Knobs {
    multiclass: bool,
    loop_unroll: usize,
    exact_fixing_set: bool,
    minimize_guard_lines: bool,
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (any::<bool>(), 1usize..4, any::<bool>(), any::<bool>()).prop_map(
        |(multiclass, loop_unroll, exact_fixing_set, minimize_guard_lines)| Knobs {
            multiclass,
            loop_unroll,
            exact_fixing_set,
            minimize_guard_lines,
        },
    )
}

fn summary(file: &str) -> FileSummary {
    FileSummary {
        file: file.to_owned(),
        num_statements: 1,
        ts_errors: 0,
        bmc_groups: 0,
        counterexamples: 0,
        vulnerabilities: Vec::new(),
        outcome: FileOutcome::Verified,
    }
}

fn build(k: &Knobs) -> Verifier {
    let mut b = VerifierBuilder::new();
    if k.multiclass {
        b = b.multiclass();
    }
    b.loop_unroll(k.loop_unroll)
        .exact_fixing_set(k.exact_fixing_set)
        .minimize_guard_lines(k.minimize_guard_lines)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal knobs produce equal fingerprints; any differing knob
    /// produces a different fingerprint (the cache self-invalidates).
    #[test]
    fn fingerprint_is_injective_on_knobs(a in knobs(), b in knobs()) {
        let fa = build(&a).config_description();
        let fb = build(&b).config_description();
        prop_assert_eq!(a == b, fa == fb, "a={:?} b={:?}", a, b);
    }

    /// The solve budget never perturbs the fingerprint: it bounds the
    /// search, not the verdict, and budget-limited (timeout) results
    /// are never cached in the first place.
    #[test]
    fn budget_does_not_perturb_fingerprint(
        k in knobs(),
        conflicts in proptest::option::of(1u64..1_000_000),
        millis in proptest::option::of(1u64..60_000),
    ) {
        let plain = build(&k).config_description();
        let mut budget = SolveBudget::unlimited();
        if let Some(c) = conflicts {
            budget = budget.max_conflicts(c);
        }
        if let Some(ms) = millis {
            budget = budget.wall_time(std::time::Duration::from_millis(ms));
        }
        let budgeted = {
            let mut b = VerifierBuilder::new();
            if k.multiclass {
                b = b.multiclass();
            }
            b.loop_unroll(k.loop_unroll)
                .exact_fixing_set(k.exact_fixing_set)
                .minimize_guard_lines(k.minimize_guard_lines)
                .solve_budget(budget)
                .build()
                .config_description()
        };
        prop_assert_eq!(plain, budgeted);
    }

    /// An unchanged source under an unchanged configuration always hits
    /// the cache, for any knob setting and any (simple) source body.
    #[test]
    fn unchanged_source_and_config_always_hits(
        k in knobs(),
        body in "[a-z]{1,8}",
    ) {
        let dir = std::env::temp_dir().join(format!(
            "webssari-fp-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut set = php_front::SourceSet::new();
        set.add_file("a.php", format!("<?php\n$v = '{body}';\necho $v;\n"));
        set.add_file("b.php", format!("<?php\necho $_GET['{body}'];\n"));

        let engine = EngineBuilder::new().verifier(build(&k)).cache_dir(&dir).build();
        let first = engine.run(&set);
        prop_assert_eq!(first.metrics.cache_misses, 2);
        let second = engine.run(&set);
        prop_assert_eq!(second.metrics.cache_hits, 2);
        prop_assert_eq!(second.metrics.cache_misses, 0);

        // A verifier differing in any knob sees a cold cache.
        let other = Knobs { loop_unroll: k.loop_unroll + 1, ..k.clone() };
        let changed = EngineBuilder::new()
            .verifier(build(&other))
            .cache_dir(&dir)
            .build()
            .run(&set);
        prop_assert_eq!(changed.metrics.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cache JSON round-trips for arbitrary fingerprints (including
    /// newlines and non-ASCII, which the real fingerprint contains).
    #[test]
    fn cache_persistence_round_trips_fingerprints(
        fingerprint in ".{0,40}",
    ) {
        let dir = std::env::temp_dir().join(format!(
            "webssari-fp-rt-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new(&fingerprint, CacheCaps::unlimited());
        cache.insert(7, EntryReads::default(), summary("a.php"));
        cache.save(&dir).unwrap();
        let loaded = Cache::load(&dir, &fingerprint, CacheCaps::unlimited());
        prop_assert!(loaded.lookup("a.php", 7, &|_| None).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Pins the configuration text of the two shipped policies. The cache
/// fingerprint is derived from it, so a refactor that changes a single
/// byte of it silently invalidates every persisted cache; a deliberate
/// change updates these constants and says so.
#[test]
fn shipped_config_descriptions_are_pinned() {
    use webssari_engine::hash::{fnv1a_64, to_hex};
    let pinned = |v: &Verifier| to_hex(fnv1a_64(v.config_description().as_bytes()));
    assert_eq!(pinned(&Verifier::new()), "0e8dde7f2a09d1eb");
    assert_eq!(
        pinned(&VerifierBuilder::new().multiclass().build()),
        "bc50f587dbb3d9db"
    );
}
