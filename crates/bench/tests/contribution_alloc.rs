//! Algorithm 2's allocation contract, asserted in-process with the
//! counting allocator installed as this binary's global allocator: the
//! four-row θ kernel allocates nothing, and one `analyze_contributions`
//! over a `pop1m_streaming`-shaped chunk committee (128 uploads of the
//! paper's 7850 parameters, mean anchor, the default DBSCAN) makes a
//! pinned number of allocator calls at one worker and at two (where each
//! of its row passes fans out), and never holds as much extra heap as one
//! pairwise matrix of the committee; the streaming fold's weighted sum
//! over that committee allocates nothing at either.

use bfl_bench::CountingAllocator;
use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_core::contribution::analyze_contributions;
use bfl_core::AggregationAnchor;
use bfl_ml::{gradient, par, tensor};

/// Allocator calls of one warm analysis of [`committee`]`(128, 7850)`:
/// the anchor, the clustered row list, the anchor search's squared norms,
/// membership mask and queue, the θ vector and the id lists' growth. θ
/// scoring itself adds none.
const ANALYSIS_CALLS: usize = 16;

/// Bytes of one `129 × 129` matrix of `f64`, the committee and its
/// anchor's pairwise Gram: the anchor's cluster is found without one.
const PAIRWISE_BYTES: usize = 129 * 129 * std::mem::size_of::<f64>();

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Runs `f`, returning its result and the allocator calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC.snapshot();
    let out = f();
    (out, ALLOC.delta_since(&before).allocations)
}

/// Runs `f`, returning its result and the most heap it held at once
/// above what was live when it started.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let live = ALLOC.current_bytes();
    ALLOC.reset_peak();
    let out = f();
    (out, ALLOC.peak_bytes().saturating_sub(live))
}

/// `rows` uploads of `len` parameters around one direction, every
/// seventh sign-flipped so the clustering has a low-contribution tail.
fn committee(rows: usize, len: usize) -> Vec<(u64, Vec<f64>)> {
    (0..rows)
        .map(|r| {
            let sign = if r % 7 == 3 { -1.0 } else { 1.0 };
            let row = (0..len)
                .map(|k| sign * ((k as f64 * 0.01).sin() + 0.05 * ((r * 31 + k) as f64).cos()))
                .collect();
            (r as u64, row)
        })
        .collect()
}

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed regions.
#[test]
fn theta_scoring_allocates_nothing_and_algorithm_2_its_pinned_count() {
    let uploads = committee(128, 7850);
    let refs: Vec<(u64, &[f64])> = uploads.iter().map(|(id, g)| (*id, g.as_slice())).collect();
    let analyze = || {
        analyze_contributions(
            &refs,
            &ClusteringAlgorithm::default_dbscan(),
            DistanceMetric::Cosine,
            AggregationAnchor::Mean,
        )
    };

    let rows: Vec<&[f64]> = refs.iter().map(|(_, g)| *g).collect();
    let anchor = AggregationAnchor::Mean.compute(&rows);
    let block = [rows[0], rows[1], rows[2], rows[3]];
    let (_, kernel) = counted(|| tensor::dots_and_squares_x4(block, &anchor));
    assert_eq!(
        kernel, 0,
        "the four-row θ kernel made {kernel} allocator calls"
    );

    for workers in [1usize, 2] {
        par::with_thread_limit(workers, || {
            // At two workers every row pass of the committee fans out.
            assert_eq!(par::plan_row_pass(128, 7850), workers);
            // The first call builds the calling thread's pool of helpers.
            let first = analyze();
            let (again, calls) = counted(analyze);
            assert_eq!(again.theta_by_upload, first.theta_by_upload);
            assert_eq!(
                (again.high_contribution.len(), again.low_contribution.len()),
                (110, 18)
            );
            assert_eq!(
                calls, ANALYSIS_CALLS,
                "Algorithm 2 over 128 x 7850 at {workers} worker(s) made {calls} allocator calls"
            );
            let (_, held) = high_water(analyze);
            assert!(
                held < PAIRWISE_BYTES,
                "Algorithm 2 over 128 x 7850 at {workers} worker(s) held {held} bytes at once"
            );

            // The streaming fold's step after the analysis: the committee's
            // uploads, weighted by θ, added into the round's running sum.
            let mut sum = vec![0.0; 7850];
            let weighted = || {
                rows.iter()
                    .zip(&first.theta_by_upload)
                    .filter_map(|(row, theta)| Some((*row, (*theta)?)))
            };
            let ((), calls) = counted(|| gradient::add_weighted_rows(&mut sum, weighted));
            assert_eq!(
                calls, 0,
                "the streaming sum over 128 x 7850 at {workers} worker(s) made {calls} allocator calls"
            );
        });
    }
}
