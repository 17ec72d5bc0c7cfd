//! Criterion benchmark behind Figure 5: FAIR-BFL runs across learning
//! rates, checking that the learning rate has no effect on the delay path
//! (only on accuracy) — the paper's Insight 1.

use bfl_bench::experiments::{dataset, system_config, Scale, SystemLabel};
use bfl_core::Scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_fig5(c: &mut Criterion) {
    let data = dataset(Scale::Smoke);
    let mut group = c.benchmark_group("fig5_learning_rate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    for lr in [0.01f64, 0.10, 0.20] {
        group.bench_with_input(BenchmarkId::new("fair", format!("{lr}")), &lr, |b, &lr| {
            b.iter(|| {
                let mut config = system_config(SystemLabel::Fair, Scale::Smoke);
                config.fl.local.learning_rate = lr;
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

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
