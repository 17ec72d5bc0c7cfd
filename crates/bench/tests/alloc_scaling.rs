//! The O(participants) memory contract, asserted in-process: running the
//! same per-round working set against a population ten times larger must
//! not move the heap high-water mark. The counting allocator is installed
//! as this binary's global allocator.

use bfl_bench::experiments::{dataset, population_scale_config, Scale};
use bfl_bench::CountingAllocator;
use bfl_core::Scenario;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn peak_for(population: usize, data: &(bfl_data::Dataset, bfl_data::Dataset)) -> usize {
    let config = population_scale_config(population, 64, 1, 16);
    let scenario = Scenario::from_config(config).expect("cell is valid");
    ALLOC.reset_peak();
    let result = scenario.run(&data.0, &data.1).expect("cell completes");
    assert_eq!(result.history.rounds.len(), 1);
    assert!(result.history.rounds[0].participants > 0);
    ALLOC.peak_bytes()
}

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed regions.
#[test]
fn peak_heap_tracks_participants_not_population() {
    let data = dataset(Scale::Smoke);
    // Warm-up run so one-time allocations (thread pools, caches) don't
    // land inside the first measured bracket.
    let _ = peak_for(50_000, &data);

    let small = peak_for(50_000, &data);
    let large = peak_for(500_000, &data);
    assert!(
        large as f64 <= small as f64 * 1.5,
        "population x10 moved the heap high-water: {small} -> {large} bytes \
         ({:.2}x; allocation proportional to population has crept back in)",
        large as f64 / small as f64
    );
}
