//! Criterion bench regenerating the compile-time columns of Table 1 (E2):
//! compilation with and without the verification passes, for every corpus
//! row at expansion depth 2.

use criterion::{criterion_group, criterion_main, Criterion};
use jmatch_core::{compile, CompileOptions};

fn bench_verification_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_verification");
    group.sample_size(10);
    for entry in jmatch_corpus::entries() {
        let source = entry.combined_jmatch();
        group.bench_function(format!("without/{}", entry.name), |b| {
            b.iter(|| {
                compile(
                    std::hint::black_box(&source),
                    &CompileOptions {
                        verify: false,
                        max_expansion_depth: 2,
                    },
                )
                .unwrap()
            })
        });
        group.bench_function(format!("with/{}", entry.name), |b| {
            b.iter(|| {
                compile(
                    std::hint::black_box(&source),
                    &CompileOptions {
                        verify: true,
                        max_expansion_depth: 2,
                    },
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_verification_overhead
}
criterion_main!(benches);
