//! Property tests: the engine at N workers must produce reports
//! byte-identical to the single-worker path — fresh, from a warm
//! cache, and under LRU eviction pressure. The worker count is a
//! scheduling choice; it must never be observable in a report.

use php_front::SourceSet;
use proptest::prelude::*;
use webssari_engine::EngineBuilder;

/// A small pool of PHP shapes covering the interesting outcomes:
/// tainted SQL, tainted echo, sanitized, and clean.
fn php_source(template: usize, var: &str) -> String {
    match template % 4 {
        0 => format!(
            "<?php ${var} = $_GET['{var}']; \
             mysql_query(\"SELECT * FROM t WHERE c=${var}\");"
        ),
        1 => format!("<?php echo $_GET['{var}'];"),
        2 => format!("<?php echo htmlspecialchars($_GET['{var}']);"),
        _ => format!("<?php ${var} = 'lit'; echo ${var};"),
    }
}

/// A generated project: 2..6 files drawn from the template pool.
#[derive(Clone, Debug)]
struct Seed {
    files: Vec<(usize, String)>,
}

fn seeds() -> impl Strategy<Value = Seed> {
    prop::collection::vec((0usize..4, "[a-z]{1,6}"), 2..6).prop_map(|files| Seed { files })
}

fn source_set(seed: &Seed) -> SourceSet {
    let mut set = SourceSet::new();
    for (i, (template, var)) in seed.files.iter().enumerate() {
        set.add_file(format!("f{i}.php"), php_source(*template, var));
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh runs: any worker count renders the same report as the
    /// 1-worker engine.
    #[test]
    fn sharded_fresh_run_matches_single_shard(seed in seeds(), workers in 2usize..5) {
        let set = source_set(&seed);
        let baseline = EngineBuilder::new()
            .workers(1)
            .build()
            .run(&set);
        let sharded = EngineBuilder::new()
            .workers(workers)
            .build()
            .run(&set);
        prop_assert_eq!(
            sharded.render_text(),
            baseline.render_text(),
            "workers = {}",
            workers,
        );
        prop_assert_eq!(sharded.vulnerable_files(), baseline.vulnerable_files());
        prop_assert_eq!(sharded.bmc_groups(), baseline.bmc_groups());
    }

    /// Warm runs: the second pass over an unchanged set is served from
    /// the warm cache and still renders byte-identically.
    #[test]
    fn sharded_cache_hits_match_single_shard(seed in seeds(), workers in 2usize..5) {
        let set = source_set(&seed);
        let baseline = EngineBuilder::new()
            .workers(1)
            .build()
            .into_handle();
        let sharded = EngineBuilder::new()
            .workers(workers)
            .build()
            .into_handle();
        baseline.run(&set);
        let expected = baseline.run(&set); // warm: rendered from summaries
        sharded.run(&set);
        let warm = sharded.run(&set);
        prop_assert!(
            warm.files.iter().all(|f| f.from_cache),
            "second sharded run must be all cache hits",
        );
        prop_assert_eq!(warm.render_text(), expected.render_text());
    }

    /// Eviction pressure: with caps far below the working set, repeat
    /// runs keep evicting, yet every per-file summary still matches
    /// the uncapped single-worker result. (Whole-report bytes are
    /// compared per file: hit/miss *patterns* may legitimately differ
    /// across layouts under pressure, verdicts may not.)
    #[test]
    fn eviction_pressure_never_changes_verdicts(seed in seeds(), workers in 2usize..4) {
        let set = source_set(&seed);
        let baseline = EngineBuilder::new()
            .workers(1)
            .build()
            .run(&set);
        let capped = EngineBuilder::new()
            .workers(workers)
            .cache_max_entries(1)
            .build()
            .into_handle();
        capped.run(&set);
        let second = capped.run(&set);
        // Vacuity guard: a 1-entry cap must bite on every 2+-file set.
        prop_assert!(
            capped.snapshot().cache_evictions > 0,
            "caps never evicted: the pressure regime is vacuous",
        );
        prop_assert_eq!(second.files.len(), baseline.files.len());
        for (capped_file, base_file) in second.files.iter().zip(baseline.files.iter()) {
            prop_assert_eq!(
                &capped_file.summary,
                &base_file.summary,
                "file {} diverged under eviction pressure",
                base_file.summary.file,
            );
        }
    }
}
