//! Procedure I's allocation contract, asserted in-process: with a warm
//! [`Scratch`], one local pass asks the allocator for its copy of the
//! global parameters — the vector it trains in place and then uploads —
//! and for nothing else. No throw-away initialisation, no gradient or
//! shuffle buffer of its own, no copy of the result. That holds for a
//! paper-shaped pass (35 samples, `E = 5`, `B = 10`) and a
//! `pop1m_streaming`-shaped one (8 samples, `E = 1`, `B = 10`). The jump
//! that skips the initialiser's draws allocates nothing even when it
//! first needs a power of the transition matrix and builds it. The
//! counting allocator is installed as this binary's global allocator.

use bfl_bench::CountingAllocator;
use bfl_fl::client::Client;
use bfl_harness::runner::generate_dataset;
use bfl_harness::DatasetSpec;
use bfl_ml::model::{Model, ModelKind};
use bfl_ml::optimizer::LocalTrainingConfig;
use bfl_ml::tensor::Scratch;
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
    let mut scratch = Scratch::new();
    let pass = |client: &Client, config: &LocalTrainingConfig, scratch: &mut Scratch| {
        client.local_update_as(
            None,
            model,
            &global,
            &train.features,
            &train.labels,
            config,
            7,
            scratch,
        )
    };

    // Warm the workspace on a larger shard than the measured ones, so the
    // brackets also show a reused workspace is not regrown to fit.
    let paper = LocalTrainingConfig::default();
    drop(pass(
        &Client::honest(1, (0..60).collect()),
        &paper,
        &mut scratch,
    ));

    let streaming = LocalTrainingConfig { epochs: 1, ..paper };
    for (shape, client, config) in [
        ("paper", Client::honest(2, (60..95).collect()), paper),
        (
            "pop1m_streaming",
            Client::honest(3, (95..103).collect()),
            streaming,
        ),
    ] {
        ALLOC.reset_peak();
        let start = ALLOC.snapshot();
        let update = pass(&client, &config, &mut scratch);
        let delta = ALLOC.delta_since(&start);
        let high_water = ALLOC.peak_bytes() - start.live_bytes;

        assert_eq!(update.params.len(), model.num_params());
        assert_ne!(update.params, global, "{shape}: the pass trained");
        assert_eq!(
            delta.allocations, 1,
            "a warm {shape}-shaped local pass made {} allocator calls (exactly 1 allowed: its \
             parameter vector)",
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
    let params = vec![0.5; fresh.num_params()];
    let mut rng = StdRng::seed_from_u64(7);
    ALLOC.reset_peak();
    let start = ALLOC.snapshot();
    let adopted = fresh.adopt(params, &mut rng);
    rng.discard(1 << 40);
    let delta = ALLOC.delta_since(&start);
    let high_water = ALLOC.peak_bytes() - start.live_bytes;
    assert_eq!(adopted.num_params(), fresh.num_params());
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
