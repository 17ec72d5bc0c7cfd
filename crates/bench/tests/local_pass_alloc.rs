//! Procedure I's allocation contract, asserted in-process: on a thread
//! whose training workspace an earlier, larger pass has grown (`bfl_ml`
//! keeps one per thread), one local pass asks the allocator for its
//! upload — the
//! vector its first step writes straight from the global parameters and
//! later steps train in place — and for nothing else. No copy of the
//! model, no throw-away initialisation, no gradient or shuffle buffer of
//! its own, no copy of the result, and under FedProx no copy of the
//! start to pull towards. That holds for a paper-shaped pass (35 samples,
//! `E = 5`, `B = 10`), a `pop1m_streaming`-shaped one (8 samples, `E = 1`,
//! `B = 10`) and a FedProx one (`μ = 0.3`, the paper's shape). The jump
//! that skips the initialiser's draws allocates nothing even when it
//! first needs a power of the transition matrix and builds it. The
//! counting allocator is installed as this binary's global allocator.

use bfl_bench::CountingAllocator;
use bfl_fl::client::Client;
use bfl_harness::runner::generate_dataset;
use bfl_harness::DatasetSpec;
use bfl_ml::model::ModelKind;
use bfl_ml::optimizer::LocalTrainingConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed regions.
#[test]
fn a_warm_local_pass_allocates_its_upload_and_nothing_else() {
    let (train, _test) = generate_dataset(&DatasetSpec::default());
    let model = ModelKind::default_mnist();
    let model_bytes = model.num_params() * std::mem::size_of::<f64>();
    let global = vec![0.01; model.num_params()];
    let pass = |client: &Client, config: &LocalTrainingConfig| {
        client.local_update_as(
            None,
            model,
            &global,
            &train.features,
            &train.labels,
            config,
            7,
        )
    };

    // Warm this thread's workspace on a larger shard than the measured
    // ones, so the brackets also show a reused workspace is not regrown
    // to fit.
    let paper = LocalTrainingConfig::default();
    drop(pass(&Client::honest(1, (0..60).collect()), &paper));

    let streaming = LocalTrainingConfig { epochs: 1, ..paper };
    let fedprox = LocalTrainingConfig {
        proximal_mu: 0.3,
        ..paper
    };
    for (shape, client, config) in [
        ("paper", Client::honest(2, (60..95).collect()), paper),
        (
            "pop1m_streaming",
            Client::honest(3, (95..103).collect()),
            streaming,
        ),
        ("FedProx", Client::honest(4, (103..138).collect()), fedprox),
    ] {
        ALLOC.reset_peak();
        let start = ALLOC.snapshot();
        let update = pass(&client, &config);
        let delta = ALLOC.delta_since(&start);
        let high_water = ALLOC.peak_bytes() - start.live_bytes;

        assert_eq!(update.params.len(), model.num_params());
        assert_ne!(update.params, global, "{shape}: the pass trained");
        assert_eq!(
            delta.allocations, 1,
            "a warm {shape}-shaped local pass made {} allocator calls (exactly 1 allowed: its \
             upload)",
            delta.allocations
        );
        assert_eq!(
            high_water, model_bytes,
            "a warm {shape}-shaped local pass held {high_water} bytes at its peak, not the \
             model's {model_bytes}"
        );
    }

    // Lengths past every one this process has jumped: 784 × 11 = 8,624
    // needs the power 2¹³, which the paper's 7,840 does not, and 2⁴⁰ the
    // 27 after it. Each is built into static storage, on no heap at all.
    let fresh = ModelKind::SoftmaxRegression {
        features: 784,
        classes: 11,
    };
    let mut rng = StdRng::seed_from_u64(7);
    ALLOC.reset_peak();
    let start = ALLOC.snapshot();
    fresh.skip_build(&mut rng);
    rng.discard(1 << 40);
    let delta = ALLOC.delta_since(&start);
    let high_water = ALLOC.peak_bytes() - start.live_bytes;
    assert_eq!(
        delta.allocations, 0,
        "first jumps to new powers made {} allocator calls",
        delta.allocations
    );
    assert_eq!(
        high_water, 0,
        "first jumps to new powers held {high_water} bytes"
    );
}
