//! Policy ablations (extensions): the cost of the multi-class powerset
//! lattice (3-bit type vectors, table-driven join/meet circuits) versus
//! the paper's two-point lattice, and the cost of emitting + checking
//! DRAT certificates for holding assertions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use webssari_bench::surveyor_like;
use webssari_core::{Verifier, VerifierBuilder};

fn mixed_workload(k: usize) -> String {
    // Half vulnerable fan-out, half correctly sanitized flows: both
    // policies do real work on both halves.
    let mut src = surveyor_like(k);
    for i in 0..k {
        src.push_str(&format!(
            "$safe{i} = addslashes($_GET['s{i}']);\n$sq{i} = \"SELECT * FROM t WHERE k='$safe{i}'\";\nmysql_query($sq{i});\n"
        ));
    }
    src
}

fn bench_two_point_vs_multiclass(c: &mut Criterion) {
    let mut group = c.benchmark_group("policies/lattice");
    for k in [4usize, 16] {
        let src = mixed_workload(k);
        group.bench_with_input(BenchmarkId::new("two_point", k), &src, |b, src| {
            let v = Verifier::new();
            b.iter(|| {
                let r = v.verify_source(src, "w.php").unwrap();
                assert!(!r.is_safe());
            })
        });
        group.bench_with_input(BenchmarkId::new("multiclass", k), &src, |b, src| {
            let v = VerifierBuilder::new().multiclass().build();
            b.iter(|| {
                let r = v.verify_source(src, "w.php").unwrap();
                assert!(!r.is_safe());
            })
        });
    }
    group.finish();
}

fn bench_certification_overhead(c: &mut Criterion) {
    // An all-clean file: every assertion gets certified.
    let mut src = String::from("<?php\n");
    for i in 0..12 {
        src.push_str(&format!(
            "$v{i} = intval($_GET['p{i}']);\nmysql_query(\"LIMIT $v{i}\");\n"
        ));
    }
    let mut group = c.benchmark_group("policies/certify");
    group.bench_with_input(BenchmarkId::new("plain", 12), &src, |b, src| {
        let v = Verifier::new();
        b.iter(|| {
            let r = v.verify_source(src, "c.php").unwrap();
            assert!(r.is_safe());
        })
    });
    group.bench_with_input(BenchmarkId::new("certified", 12), &src, |b, src| {
        let v = VerifierBuilder::new().certify(true).build();
        b.iter(|| {
            let r = v.verify_source(src, "c.php").unwrap();
            assert_eq!(r.bmc.certificates.len(), 12);
        })
    });
    group.bench_with_input(
        BenchmarkId::new("certified_and_rechecked", 12),
        &src,
        |b, src| {
            let v = VerifierBuilder::new().certify(true).build();
            b.iter(|| {
                let r = v.verify_source(src, "c.php").unwrap();
                assert_eq!(r.bmc.verify_certificates().unwrap(), 12);
            })
        },
    );
    group.finish();
}

fn bench_loop_unroll(c: &mut Criterion) {
    let src = "<?php\n$t = $_GET['x'];\nwhile ($c) { $a = $b; $b = $cc; $cc = $t; }\necho $a;\n";
    let mut group = c.benchmark_group("policies/loop_unroll");
    for unroll in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(unroll), &src, |b, src| {
            let v = VerifierBuilder::new().loop_unroll(unroll).build();
            b.iter(|| {
                let r = v.verify_source(src, "l.php").unwrap();
                // 1 unfolding misses the 3-step relay; ≥3 find it.
                assert_eq!(!r.is_safe(), unroll >= 3);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_two_point_vs_multiclass,
    bench_certification_overhead,
    bench_loop_unroll
);
criterion_main!(benches);
