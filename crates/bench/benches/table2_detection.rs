//! Criterion benchmark behind Table 2: a full attacked run with DBSCAN
//! contribution identification and the discard strategy, plus the
//! clustering-algorithm ablation called out in DESIGN.md (DBSCAN vs
//! k-means vs agglomerative inside Algorithm 2).

use bfl_bench::experiments::{dataset, Scale};
use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_core::contribution::identify_contributions;
use bfl_core::{AttackConfig, LowContributionStrategy, Scenario};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_attacked_run(c: &mut Criterion) {
    let data = dataset(Scale::Smoke);
    let mut group = c.benchmark_group("table2_attacked_run");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    group.bench_function("fair_discard_under_attack", |b| {
        b.iter(|| {
            let mut config = bfl_bench::experiments::base_config(Scale::Smoke);
            config.fl.participation_ratio = 1.0;
            config.strategy = LowContributionStrategy::Discard;
            config.attack = AttackConfig::table2();
            black_box(
                Scenario::from_config(config)
                    .expect("configuration is valid")
                    .run(&data.0, &data.1)
                    .expect("run completes"),
            )
        })
    });
    group.finish();
}

fn bench_clustering_ablation(c: &mut Criterion) {
    // Synthetic per-round gradient set: 20 honest uploads plus 3 forged.
    let uploads: Vec<(u64, Vec<f64>)> = (0..23u64)
        .map(|id| {
            let honest = id < 20;
            let direction = if honest { 1.0 } else { -1.0 };
            let gradient: Vec<f64> = (0..512)
                .map(|i| direction * ((i as f64 * 0.37 + id as f64 * 0.11).sin() * 0.1 + 0.5))
                .collect();
            (id, gradient)
        })
        .collect();

    let mut group = c.benchmark_group("algorithm2_clustering_ablation");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    for (name, algorithm) in [
        ("dbscan", ClusteringAlgorithm::default_dbscan()),
        (
            "kmeans",
            ClusteringAlgorithm::KMeans {
                k: 2,
                max_iterations: 50,
            },
        ),
        (
            "agglomerative",
            ClusteringAlgorithm::Agglomerative {
                distance_threshold: 0.5,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(identify_contributions(
                    &uploads,
                    &algorithm,
                    DistanceMetric::Cosine,
                    LowContributionStrategy::Discard,
                    100.0,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attacked_run, bench_clustering_ablation);
criterion_main!(benches);
