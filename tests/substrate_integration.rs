//! Cross-substrate integration tests that exercise the seams between the
//! workspace crates without running the full simulation: signed gradient
//! transactions flowing through the mempool into mined blocks, real
//! training gradients being clustered by Algorithm 2's backends, and the
//! delay model agreeing with the chain substrate's expectations.

use fair_bfl::chain::{Block, Blockchain, Mempool, PowConfig, Transaction};
use fair_bfl::cluster::{ClusteringAlgorithm, DistanceMetric};
use fair_bfl::crypto::signature::sign_message;
use fair_bfl::crypto::KeyStore;
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::ml::gradient;
use fair_bfl::ml::model::{Model, ModelKind};
use fair_bfl::ml::optimizer::{train_local, LocalTrainingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn signed_gradient_transactions_flow_from_clients_to_a_mined_block() {
    let mut rng = StdRng::seed_from_u64(71);

    // Provision three clients with RSA keys held by the miner.
    let mut keystore = KeyStore::new();
    let pairs = keystore.provision(&mut rng, &[1, 2, 3], 256).unwrap();

    // Each client produces a (fake) gradient payload and signs it; the
    // miner verifies each upload before it submits it to its mempool.
    let mut mempool = Mempool::new();
    for id in 1..=3u64 {
        let grad: Vec<f64> = (0..32)
            .map(|i| (id as f64) * 0.1 + i as f64 * 0.01)
            .collect();
        let payload = gradient::to_bytes(&grad);
        let envelope = sign_message(id, &payload, &pairs[&id].private);
        keystore
            .verify_detached(id, &payload, &envelope.signature)
            .expect("registered client uploads verify");
        mempool.submit(Transaction::local_gradient(id, 1, payload));
    }
    assert_eq!(mempool.len(), 3);

    // A forged submission (client 2 impersonating client 1) never reaches
    // the pool.
    let forged_envelope = sign_message(1, b"poison", &pairs[&2].private);
    assert!(keystore
        .verify_detached(1, b"poison", &forged_envelope.signature)
        .is_err());
    assert_eq!(mempool.len(), 3);

    // The miner drains the pool into a block and mines it onto its chain.
    let mut chain = Blockchain::new();
    let batch = mempool.drain_block(chain.max_block_bytes);
    assert_eq!(batch.len(), 3);
    let pow = PowConfig::new(32);
    let mut block = Block::candidate(chain.tip(), batch, 1_000, pow.difficulty, 0);
    block.mine(&pow);
    chain.append(block).unwrap();
    chain.validate_all().unwrap();
    assert_eq!(chain.height(), 1);
    assert_eq!(chain.tip().transactions.len(), 3);

    // Round-trip: the payload recorded on chain decodes back to a gradient.
    for tx in &chain.tip().transactions {
        match &tx.kind {
            fair_bfl::chain::TransactionKind::LocalGradient { payload, .. } => {
                let decoded = gradient::from_bytes(payload).expect("valid gradient bytes");
                assert_eq!(decoded.len(), 32);
            }
            other => panic!("unexpected transaction {other:?}"),
        }
    }
}

#[test]
fn real_training_gradients_cluster_by_data_quality() {
    // Train several models from the same initialization: most on correct
    // labels, two on permuted labels. DBSCAN over the resulting parameter
    // vectors should separate the two populations — the property
    // Algorithm 2's contribution identification relies on.
    let mut rng = StdRng::seed_from_u64(72);
    let data = SynthMnist::new(SynthMnistConfig {
        train_samples: 200,
        test_samples: 10,
        noise_std: 0.05,
        max_translation: 1.0,
    })
    .generate_split(200, &mut rng);

    let kind = ModelKind::SoftmaxRegression {
        features: 784,
        classes: 10,
    };
    let init = kind.build(&mut rng).params();
    let config = LocalTrainingConfig {
        epochs: 2,
        batch_size: 10,
        learning_rate: 0.1,
        proximal_mu: 0.0,
    };

    let mut uploads: Vec<Vec<f64>> = Vec::new();
    for worker in 0..6 {
        let honest = worker < 4;
        let labels: Vec<usize> = if honest {
            data.labels.clone()
        } else {
            data.labels.iter().map(|&l| (l + 5) % 10).collect()
        };
        let samples: Vec<usize> = (0..data.len()).collect();
        let mut model = kind.build(&mut StdRng::seed_from_u64(100 + worker as u64));
        model.set_params(&init);
        let mut train_rng = StdRng::seed_from_u64(300 + worker as u64);
        train_local(
            &mut model,
            &data.features,
            &labels,
            &samples,
            &config,
            &mut train_rng,
        );
        let delta: Vec<f64> = model
            .params()
            .iter()
            .zip(init.iter())
            .map(|(a, b)| a - b)
            .collect();
        uploads.push(delta);
    }

    let rows: Vec<&[f64]> = uploads.iter().map(Vec::as_slice).collect();
    let dbscan = ClusteringAlgorithm::Dbscan {
        eps: 0.6,
        min_points: 2,
    };
    let labels = dbscan.run_rows(&rows, DistanceMetric::Cosine);
    // The four honest deltas share a cluster; the two label-permuted deltas
    // do not join it.
    assert!(labels.same_cluster(0, 1));
    assert!(labels.same_cluster(0, 2));
    assert!(labels.same_cluster(0, 3));
    assert!(!labels.same_cluster(0, 4));
    assert!(!labels.same_cluster(0, 5));
}

#[test]
fn delay_model_block_interval_matches_chain_expectation() {
    use fair_bfl::chain::miner::{expected_competition_time, Miner};
    use fair_bfl::core::DelayModel;

    let model = DelayModel::default();
    let miners: Vec<Miner> = (0..2)
        .map(|id| Miner::new(id, model.miner_hash_rate))
        .collect();
    let chain_expectation = expected_competition_time(&miners, &model.pow_config());
    // The delay model's expected T_bl is the chain substrate's expected
    // competition time plus the consensus overhead — the two layers agree.
    assert!((model.expected_t_bl(2) - chain_expectation - model.consensus_overhead_s).abs() < 1e-9);
}
