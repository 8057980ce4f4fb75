//! Ablation benches for the design choices called out in DESIGN.md §7:
//!
//! * register bound `M` — how small can `M` get before the Bakery++ reset
//!   path starts costing throughput (the §7 "price of the guarantee");
//! * overflow policy — what the bounded *classic* Bakery costs under the
//!   different machine behaviours (wrap vs saturate) it might encounter.

use std::sync::Arc;

use bakery_bench::quick_criterion;
use bakery_core::registers::OverflowPolicy;
use bakery_core::{BakeryLock, BakeryPlusPlusLock, RawMutexAlgorithm};
use bakery_harness::workload::{run_workload, Workload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_bound_ablation(c: &mut Criterion) {
    let cfg = quick_criterion();
    let mut group = c.benchmark_group("ablation_bakery_pp_bound");
    group
        .sample_size(cfg.sample_size)
        .measurement_time(cfg.measurement)
        .warm_up_time(cfg.warm_up);
    for bound in [3u64, 15, 255, 65_535] {
        group.bench_with_input(BenchmarkId::from_parameter(bound), &bound, |b, &bound| {
            b.iter(|| {
                let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, bound));
                run_workload(
                    lock as Arc<dyn RawMutexAlgorithm>,
                    &Workload {
                        threads: 2,
                        iterations_per_thread: 300,
                        critical_section_work: 4,
                        think_work: 4,
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_overflow_policy_ablation(c: &mut Criterion) {
    let cfg = quick_criterion();
    let mut group = c.benchmark_group("ablation_classic_bakery_overflow_policy");
    group
        .sample_size(cfg.sample_size)
        .measurement_time(cfg.measurement)
        .warm_up_time(cfg.warm_up);
    for (name, policy) in [
        ("wrap", OverflowPolicy::Wrap),
        ("saturate", OverflowPolicy::Saturate),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                // Single-threaded doorway cycling with a standing customer, so
                // overflow handling is on the hot path without risking the
                // mutual-exclusion corruption a threaded run would suffer.
                let lock = BakeryLock::with_bound_and_policy(2, 63, policy);
                let _ = lock.try_doorway(1);
                for _ in 0..200 {
                    let outcome = lock.try_doorway(0);
                    std::hint::black_box(outcome);
                    lock.release(0);
                }
                lock.stats().snapshot()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bound_ablation, bench_overflow_policy_ablation);
criterion_main!(benches);
