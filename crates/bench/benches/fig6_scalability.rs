//! Criterion benchmark behind Figure 6: scaling the number of workers (6a)
//! and miners (6b). The blockchain baseline's cost grows with both; FAIR's
//! stays nearly flat.

use bfl_bench::experiments::{dataset, system_config, Scale, SystemLabel};
use bfl_core::Scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_workers(c: &mut Criterion) {
    let data = dataset(Scale::Smoke);
    let mut group = c.benchmark_group("fig6a_workers");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    for workers in [10usize, 20, 40] {
        group.bench_with_input(
            BenchmarkId::new("blockchain", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut config = system_config(SystemLabel::Blockchain, Scale::Smoke);
                    config.fl.clients = workers;
                    black_box(
                        Scenario::from_config(config)
                            .expect("configuration is valid")
                            .run(&data.0, &data.1)
                            .expect("run completes"),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_miners(c: &mut Criterion) {
    let data = dataset(Scale::Smoke);
    let mut group = c.benchmark_group("fig6b_miners");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    for miners in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("fair", miners), &miners, |b, &miners| {
            b.iter(|| {
                let mut config = system_config(SystemLabel::Fair, Scale::Smoke);
                config.miners = miners;
                black_box(
                    Scenario::from_config(config)
                        .expect("configuration is valid")
                        .run(&data.0, &data.1)
                        .expect("run completes"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workers, bench_miners);
criterion_main!(benches);
