//! Procedure I's allocation contract, asserted in-process: with a warm
//! [`Scratch`], one local pass on the paper's 784×10 model asks the
//! allocator for its copy of the global parameters — the vector it trains
//! in place and then uploads — and for nothing else. No throw-away
//! initialisation, no gradient or shuffle buffer of its own, no copy of
//! the result. The counting allocator is installed as this binary's
//! global allocator.

use bfl_bench::CountingAllocator;
use bfl_fl::client::Client;
use bfl_harness::runner::generate_dataset;
use bfl_harness::DatasetSpec;
use bfl_ml::model::ModelKind;
use bfl_ml::optimizer::LocalTrainingConfig;
use bfl_ml::tensor::Scratch;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed region.
#[test]
fn a_warm_local_pass_allocates_its_upload_and_nothing_else() {
    let (train, _test) = generate_dataset(&DatasetSpec::default());
    let model = ModelKind::default_mnist();
    let model_bytes = model.num_params() * std::mem::size_of::<f64>();
    let global = vec![0.01; model.num_params()];
    let config = LocalTrainingConfig::default();
    let mut scratch = Scratch::new();
    let pass = |client: &Client, scratch: &mut Scratch| {
        client.local_update_as(
            None,
            model,
            &global,
            &train.features,
            &train.labels,
            &config,
            7,
            scratch,
        )
    };

    // Warm the workspace on a larger shard than the measured one, so the
    // bracket also shows a reused workspace is not regrown to fit.
    drop(pass(&Client::honest(1, (0..60).collect()), &mut scratch));

    let client = Client::honest(2, (60..95).collect());
    ALLOC.reset_peak();
    let start = ALLOC.snapshot();
    let update = pass(&client, &mut scratch);
    let delta = ALLOC.delta_since(&start);
    let high_water = ALLOC.peak_bytes() - start.live_bytes;

    assert_eq!(update.params.len(), model.num_params());
    assert_ne!(update.params, global, "the pass trained");
    assert!(
        delta.allocations <= 2,
        "a warm local pass made {} allocator calls (at most 2 allowed: its parameter vector, \
         and one spare)",
        delta.allocations
    );
    assert!(
        high_water < 2 * model_bytes,
        "a warm local pass held {high_water} bytes at its peak, {:.2}x the model's {model_bytes}",
        high_water as f64 / model_bytes as f64
    );
}
