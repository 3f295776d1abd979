//! Exactness of the on-demand store summary: lowering a program through
//! [`filter_program_on_demand`] gives the same `F(p)` as lowering it
//! against the eagerly built summary, and a program that never forces
//! the summary lowers the same under *every* summary — so a batch that
//! skips building it changes no report.

use std::sync::OnceLock;

use php_front::parse_source;
use proptest::prelude::*;
use taint_lattice::{Lattice, TwoPoint};
use webssari_ir::{
    filter_program, filter_program_on_demand, filter_program_with_stores, FCmd, FProgram,
    FilterOptions, Prelude, StoreRead, StoreSummary, StoreWrite,
};

#[path = "support/store_php.rs"]
mod store_php;
use store_php::{session_file_php, sql_store_php};

/// The store keys the generators read and write, plus the wildcard.
const KEYS: [&str; 8] = [
    "t0",
    "t1",
    "t2",
    "msgs",
    "_SESSION",
    "file:f0.txt",
    "file:f1.txt",
    "*",
];

/// `F(p)` as comparable data: variable names, commands, store reads and
/// store writes.
type Shape = (Vec<String>, Vec<FCmd>, Vec<StoreRead>, Vec<StoreWrite>);

fn shape(f: &FProgram) -> Shape {
    (
        f.vars.iter().map(|v| f.vars.name(v).to_owned()).collect(),
        f.cmds.clone(),
        f.store_reads.clone(),
        f.store_writes.clone(),
    )
}

/// A summary with one write per `(key, tainted, site)` triple.
fn summary_of(writes: &[(usize, bool, u8)]) -> StoreSummary {
    let lattice = TwoPoint::new();
    let mut summary = StoreSummary::new();
    for &(key, tainted, site) in writes {
        let level = if tainted {
            lattice.top()
        } else {
            lattice.bottom()
        };
        summary.record(KEYS[key], level, &format!("w.php:{site}"), &lattice);
    }
    summary
}

/// Lowers `src` three ways — against `summary` eagerly, with the empty
/// summary, and on demand from a fresh cell holding `summary` — and
/// reports whether the on-demand lowering forced the cell.
fn lower_three_ways(src: &str, summary: &StoreSummary) -> (Shape, Shape, Shape, bool) {
    let ast = parse_source(src).expect("generated program parses");
    let prelude = Prelude::standard();
    let options = FilterOptions::default();
    let lattice = TwoPoint::new();
    let eager =
        filter_program_with_stores(&ast, src, "p.php", &prelude, &options, summary, &lattice);
    let empty = filter_program(&ast, src, "p.php", &prelude, &options);
    let cell = OnceLock::new();
    let on_demand = filter_program_on_demand(
        &ast,
        src,
        "p.php",
        &prelude,
        &options,
        &|| cell.get_or_init(|| summary.clone()),
        &lattice,
    );
    (
        shape(&eager),
        shape(&empty),
        shape(&on_demand),
        cell.get().is_some(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Forced or not, the on-demand lowering equals the eager one; left
    /// unforced, it also equals the empty-summary lowering and read no
    /// store.
    #[test]
    fn on_demand_filter_equals_the_eager_summary(
        sql_ops in prop::collection::vec(0u8..6, 0..6),
        store_ops in prop::collection::vec(0u8..5, 0..6),
        writes in prop::collection::vec((0..KEYS.len(), any::<bool>(), 0u8..4), 1..6),
    ) {
        let src = sql_store_php(&sql_ops) + &session_file_php(&store_ops);
        let summary = summary_of(&writes);
        let (eager, empty, on_demand, forced) = lower_three_ways(&src, &summary);
        prop_assert_eq!(&on_demand, &eager, "{}", src);
        if !forced {
            prop_assert_eq!(&on_demand, &empty, "{}", src);
            prop_assert!(on_demand.2.is_empty(), "unforced lowering read a store: {}", src);
        }
    }
}

/// The proptest is not vacuous: each consult point — a `SELECT`+fetch,
/// a `$_SESSION` read, a literal-path `file_get_contents` — forces the
/// cell, a program without one does not, and a forced lowering can
/// differ from the empty-summary one.
#[test]
fn each_consult_point_forces_the_cell() {
    let summary = summary_of(&[(0, false, 0), (4, true, 1), (5, true, 2)]);
    let cases = [
        (sql_store_php(&[2]), true),
        (sql_store_php(&[]) + &session_file_php(&[1]), true),
        (sql_store_php(&[]) + &session_file_php(&[3]), true),
        (
            sql_store_php(&[0, 1, 3, 4, 5]) + &session_file_php(&[2, 4]),
            false,
        ),
    ];
    for (src, expect_forced) in cases {
        let (eager, empty, on_demand, forced) = lower_three_ways(&src, &summary);
        assert_eq!(forced, expect_forced, "{src}");
        assert_eq!(on_demand, eager, "{src}");
        if forced {
            assert_ne!(on_demand, empty, "{src}");
        }
    }
}
