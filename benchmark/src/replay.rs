//! The layer replay: one rep's worth of rounds rebuilt from the layers'
//! public functions, one span per call, plus leaf probes that re-run the
//! inner layer calls on each round's actual data.
//!
//! On the synchronous workloads the replay mirrors
//! `SimulationRun::step` draw for draw and must be **bit-identical** to
//! the engine (every block hash, the final parameters) — that identity is
//! what licenses attributing the engine's round time to these spans, and
//! the traced run fails when it breaks. On the flexible workloads the
//! event engine cannot be rebuilt from outside; there the replay runs a
//! lockstep round of the same *shape* (as many local passes, signatures
//! and aggregated uploads as the engine's round had, read from its event
//! trace) and the gap to the engine's step time is reported as
//! `core.events.residual_ms`, not hidden.
//!
//! Leaf probes run after the round they belong to, under their own
//! `replay.probes` parent, so they never inflate the round's spans. They
//! overlap one another by design (`crypto.sign` hashes its payload too,
//! `core.contribution` contains the distance matrix and the clustering):
//! each answers "what does this call cost on this round's data", and
//! their sum is not a round time.

use crate::engine::{self, RoundShape};
use crate::trace::Recorder;
use crate::workloads::Workload;
use bfl_chain::consensus::RoundConsensus;
use bfl_chain::merkle::merkle_root;
use bfl_chain::miner::Miner;
use bfl_chain::{Block, PowConfig};
use bfl_cluster::dbscan::{dbscan_with_distances, DbscanConfig};
use bfl_cluster::distance::distance_matrix_packed;
use bfl_cluster::ClusteringAlgorithm;
use bfl_core::contribution::analyze_contributions;
use bfl_core::procedures::exchange::exchange_gradients;
use bfl_core::procedures::global_update::{
    compute_global_update, GlobalUpdateOutcome, GlobalUpdatePolicy,
};
use bfl_core::procedures::local_update::{max_local_steps, run_local_updates_with_attacks};
use bfl_core::procedures::mining::mine_round;
use bfl_core::procedures::upload::{upload_gradients, VerifiedUpload};
use bfl_core::reward::build_reward_list;
use bfl_core::{
    fair_aggregate, AggregationMode, BflConfig, CoreError, ProportionalReward, RewardEntry,
};
use bfl_crypto::{sha256, sign_message, BatchVerifier, KeyStore, RsaKeyPair, SignedMessage};
use bfl_fl::attack::AttackKind;
use bfl_fl::client::{Client, LocalUpdate};
use bfl_fl::config::PartitionKind;
use bfl_fl::implicit::implicit_client;
use bfl_fl::selection::{drop_stragglers, select_clients};
use bfl_fl::trainer::{FlAlgorithm, FlTrainer};
use bfl_ml::gradient;
use bfl_ml::metrics::accuracy;
use bfl_ml::model::Model;
use bfl_ml::tensor::Matrix;
use bfl_net::{EventQueue, SimClock, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// The engine's key stream (`engine.rs`: `seed ^ 0x5EED_0F4B`) and its
/// hard-coded real PoW difficulty; mirrored here, guarded by the
/// bit-identity check.
const KEY_STREAM: u64 = 0x5EED_0F4B;
const ENGINE_POW_DIFFICULTY: u64 = 64;

/// What the replay hands back for the identity check.
pub struct Replayed {
    pub block_hashes: Vec<String>,
    pub final_params: Vec<f64>,
}

type Keys = (KeyStore, BTreeMap<u64, RsaKeyPair>);

/// Replays `workload` under `seed`; `shapes` is the engine rep's work, one
/// entry per round (ignored on lockstep workloads, where the
/// configuration alone fixes it).
pub fn replay(
    workload: &Workload,
    seed: u64,
    shapes: &[RoundShape],
    rec: &mut Recorder,
) -> Result<Replayed, CoreError> {
    let config = workload.config_for(seed);
    let lockstep = config.sync.is_synchronous();

    let setup = rec.begin("replay.setup", 0);
    let (train, test) = rec.span("data.generate", 0, || {
        let data = engine::dataset(workload, seed);
        let samples = data.0.len() + data.1.len();
        (data, samples as u64)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let implicit_samples = match config.fl.partition {
        PartitionKind::ImplicitIid { samples_per_client } => Some(samples_per_client),
        _ => None,
    };
    let clients: Vec<Client> = match implicit_samples {
        Some(_) => Vec::new(),
        None => rec.span("fl.partition", 0, || {
            let clients =
                FlTrainer::new(config.fl, FlAlgorithm::FedAvg).build_clients(&train, &mut rng);
            let count = clients.len() as u64;
            (clients, count)
        }),
    };
    // Eager provisioning, as every signed workload uses.
    let keys: Option<Keys> = if config.verify_signatures {
        let ids: Vec<u64> = (0..config.fl.clients as u64).collect();
        let mut store = KeyStore::new();
        let pairs = rec.span("crypto.keygen", 0, || {
            let mut key_rng = StdRng::seed_from_u64(seed ^ KEY_STREAM);
            let pairs = store.provision(&mut key_rng, &ids, config.rsa_modulus_bits);
            (pairs, ids.len() as u64)
        })?;
        Some((store, pairs))
    } else {
        None
    };
    let miners = (0..config.miners as u64)
        .map(|id| Miner::new(id, config.delay.miner_hash_rate))
        .collect();
    let mut consensus = RoundConsensus::new(
        miners,
        PowConfig::new(ENGINE_POW_DIFFICULTY).with_mining_threads(config.mining_threads),
    );
    for replica in &mut consensus.replicas {
        replica.max_block_bytes = config.delay.max_block_bytes;
    }
    let topology = Topology::new(config.fl.clients, config.miners);
    let mut global_model = config.fl.model.build(&mut rng);
    let mut global_params = global_model.params();
    let mut clock = SimClock::new();
    let mut cooldown: BTreeMap<u64, usize> = BTreeMap::new();
    let reward = ProportionalReward {
        base: config.reward_base,
    };
    rec.end(setup, 0);

    let mut verifier = BatchVerifier::new();
    let mut block_hashes = Vec::with_capacity(config.fl.rounds);
    for round in 1..=config.fl.rounds {
        let shape = (!lockstep).then(|| shapes[round - 1]);
        let round_span = rec.begin("replay.round", round);
        cooldown.retain(|_, remaining| {
            *remaining = remaining.saturating_sub(1);
            *remaining > 0
        });

        // Procedure I: selection, attacker designation, local passes.
        let want = shape.map_or(config.fl.selected_per_round(), |s| s.trained.max(1));
        let selected = rec.span("fl.select", round, || {
            let picked = if implicit_samples.is_some() {
                sample_population(config.fl.clients, want, &cooldown, &mut rng)
            } else {
                let active: Vec<usize> = (0..clients.len())
                    .filter(|i| !cooldown.contains_key(&clients[*i].id))
                    .collect();
                if active.is_empty() {
                    select_clients(clients.len(), want, &mut rng)
                } else {
                    select_clients(active.len(), want, &mut rng)
                        .into_iter()
                        .map(|i| active[i])
                        .collect()
                }
            };
            let count = picked.len() as u64;
            (picked, count)
        });
        let selected = drop_stragglers(&selected, config.fl.drop_percent, &mut rng);
        let attacks = designate_attackers(&config, &selected, &mut rng);

        let round_seed = seed ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let derived: Vec<Client>;
        let identity: Vec<usize>;
        let (pool, positions): (&[Client], &[usize]) = match implicit_samples {
            Some(samples) => {
                derived = rec.span("fl.implicit_client", round, || {
                    let derived: Vec<Client> = selected
                        .iter()
                        .map(|&p| implicit_client(seed, p as u64, samples, train.len()))
                        .collect();
                    let count = derived.len() as u64;
                    (derived, count)
                });
                identity = (0..derived.len()).collect();
                (&derived, &identity)
            }
            None => (&clients, &selected),
        };
        let sgd_samples: usize = positions
            .iter()
            .map(|&p| pool[p].sample_count() * config.fl.local.epochs)
            .sum();
        let updates = rec.span("core.local_update", round, || {
            let updates = run_local_updates_with_attacks(
                pool,
                positions,
                &attacks,
                config.fl.model,
                &global_params,
                &train,
                &config.fl.local,
                round_seed,
            );
            (updates, sgd_samples as u64)
        });
        let max_steps = max_local_steps(pool, positions, &config.fl.local);

        // Procedure II: sign, upload, verify — for as many uploads as the
        // engine's round admitted.
        let sent = match (shape, &keys) {
            (Some(shape), Some(_)) => shape.admitted.clamp(1, updates.len()),
            _ => updates.len(),
        };
        let sent = &updates[..sent];
        let uploads = rec.span("core.upload", round, || {
            let outcome = upload_gradients(
                sent,
                &topology,
                keys.as_ref().map(|k| &k.1),
                keys.as_ref().map(|k| &k.0),
                &mut rng,
            );
            (outcome, sent.len() as u64)
        });

        // Procedure III.
        let merged = rec.span("core.exchange", round, || {
            let merged = exchange_gradients(uploads, config.miners).merged;
            let count = merged.len() as u64;
            (merged, count)
        });
        if merged.is_empty() {
            return Err(CoreError::EmptyRound { round });
        }
        let included = shape.map_or(merged.len(), |s| s.included.clamp(1, merged.len()));
        let merged = &merged[..included];

        // Procedure IV: one Algorithm 2 pass, or one per chunk committee.
        let chunk = match config.aggregation {
            AggregationMode::Streaming { chunk } => chunk,
            AggregationMode::Materialized => merged.len(),
        };
        let policy = GlobalUpdatePolicy {
            clustering: &config.clustering,
            metric: config.metric,
            strategy: config.strategy,
            fair_aggregation: config.fair_aggregation,
            anchor: config.anchor,
            round,
            reward: &reward,
        };
        let (next_params, rewards, dropped) = rec.span("core.global_update", round, || {
            let committees: Vec<(usize, GlobalUpdateOutcome)> = merged
                .chunks(chunk)
                .map(|c| (c.len(), compute_global_update(c, &policy)))
                .collect();
            (fold_committees(committees), merged.len() as u64)
        });
        global_params = next_params;
        global_model.set_params(&global_params);

        // Procedure V.
        let sealed = rec.span("core.mining", round, || {
            let sealed = mine_round(
                &mut consensus,
                round as u64,
                &global_params,
                &rewards,
                clock.now_millis(),
                &mut rng,
            );
            (sealed, rewards.len() as u64 + 1)
        })?;
        block_hashes.push(sealed.block.hash_hex());

        if config.strategy.discards() {
            for &id in &dropped {
                cooldown.insert(id, config.discard_cooldown_rounds.max(1));
            }
        }
        let breakdown = config
            .delay
            .fair_round(merged.len(), max_steps, config.miners, &mut rng);
        clock.advance(breakdown.total());
        rec.span("ml.eval", round, || {
            let acc = accuracy(&global_model, &test.features, &test.labels, None);
            (black_box(acc), test.len() as u64)
        });
        rec.end(round_span, 0);

        let probes = rec.begin("replay.probes", round);
        if let Some((store, pairs)) = &keys {
            let corrupt = shape.map_or(0, |s| s.rejected);
            probe_crypto(rec, round, sent, store, pairs, corrupt, &mut verifier);
        }
        for committee in merged.chunks(chunk) {
            probe_algorithm2(rec, round, committee, &config);
        }
        probe_block(rec, round, &sealed.block, &consensus.pow);
        probe_event_queue(rec, round, shape.map_or(0, |s| s.popped));
        rec.end(probes, 0);
    }

    rec.span("chain.validate", 0, || {
        let chain = consensus.canonical_chain();
        (black_box(chain.validate_all().is_ok()), chain.height())
    });
    Ok(Replayed {
        block_hashes,
        final_params: global_params,
    })
}

/// The engine's implicit-population selection (`population.rs`, private
/// to `bfl-core`): bounded rejection sampling of distinct eligible
/// indices, sorted ascending.
fn sample_population(
    population: usize,
    count: usize,
    cooldown: &BTreeMap<u64, usize>,
    rng: &mut StdRng,
) -> Vec<usize> {
    let count = count.clamp(1, population);
    let mut picked = BTreeSet::new();
    let max_attempts = count.saturating_mul(64).max(1024);
    let mut attempts = 0;
    while picked.len() < count && attempts < max_attempts {
        attempts += 1;
        let candidate = rng.gen_range(0..population);
        if !cooldown.contains_key(&(candidate as u64)) {
            picked.insert(candidate);
        }
    }
    picked.into_iter().collect()
}

/// The engine's per-round attacker designation (`engine.rs`, private to
/// `bfl-core`), draw for draw: one attack slot per selected position.
fn designate_attackers(
    config: &BflConfig,
    selected: &[usize],
    rng: &mut StdRng,
) -> Vec<Option<AttackKind>> {
    let mut attacks = vec![None; selected.len()];
    if config.attack.enabled && !selected.is_empty() {
        let max = config.attack.max_attackers.min(selected.len());
        let min = config.attack.min_attackers.min(max);
        let count = if min == max {
            min
        } else {
            rng.gen_range(min..=max)
        };
        let mut order: Vec<usize> = (0..selected.len()).collect();
        order.shuffle(rng);
        for &i in order.iter().take(count) {
            attacks[i] = Some(config.attack.kind);
        }
    }
    attacks
}

/// Combines the chunk committees of one round. A single committee is the
/// materialized Procedure IV and passes through untouched (bit-identity);
/// several are averaged by size and their reward lists concatenated,
/// which has the streaming fold's shape but not its exact arithmetic.
fn fold_committees(
    mut committees: Vec<(usize, GlobalUpdateOutcome)>,
) -> (Vec<f64>, Vec<RewardEntry>, Vec<u64>) {
    if committees.len() == 1 {
        let (_, only) = committees.pop().expect("one committee");
        return (only.global_params, only.report.rewards, only.dropped);
    }
    let total: usize = committees.iter().map(|(size, _)| size).sum();
    let mut params = vec![0.0; committees[0].1.global_params.len()];
    let mut rewards = Vec::new();
    let mut dropped = Vec::new();
    for (size, outcome) in committees {
        let weight = size as f64 / total as f64;
        for (acc, v) in params.iter_mut().zip(&outcome.global_params) {
            *acc += weight * v;
        }
        rewards.extend(outcome.report.rewards);
        dropped.extend(outcome.dropped);
    }
    (params, rewards, dropped)
}

/// Procedure II's inner calls on the round's uploads: serialise, hash,
/// sign, then batch-verify with `corrupt` envelopes damaged in transit.
fn probe_crypto(
    rec: &mut Recorder,
    round: usize,
    sent: &[LocalUpdate],
    store: &KeyStore,
    pairs: &BTreeMap<u64, RsaKeyPair>,
    corrupt: usize,
    verifier: &mut BatchVerifier,
) {
    let uploads = sent.len() as u64;
    let payloads: Vec<Vec<u8>> = rec.span("ml.grad_to_bytes", round, || {
        let payloads = sent.iter().map(|u| gradient::to_bytes(&u.params)).collect();
        (payloads, uploads)
    });
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    rec.span("crypto.sha256", round, || {
        for payload in &payloads {
            black_box(sha256(payload));
        }
        ((), bytes as u64)
    });
    let mut envelopes: Vec<SignedMessage> = rec.span("crypto.sign", round, || {
        let envelopes = sent
            .iter()
            .zip(&payloads)
            .map(|(u, payload)| sign_message(u.client_id, payload, &pairs[&u.client_id].private))
            .collect();
        (envelopes, uploads)
    });
    for envelope in envelopes.iter_mut().take(corrupt) {
        envelope.payload[0] ^= 0x01;
    }
    let refs: Vec<&SignedMessage> = envelopes.iter().collect();
    let rejects = rec.span("crypto.verify", round, || {
        let verdicts = store.verify_batch(&refs, verifier);
        (verdicts.iter().filter(|v| v.is_err()).count(), uploads)
    });
    rec.mark("crypto.rejects", round, rejects as u64);
}

/// Algorithm 2's inner calls on one clustering committee.
fn probe_algorithm2(
    rec: &mut Recorder,
    round: usize,
    committee: &[VerifiedUpload],
    config: &BflConfig,
) {
    let uploads = committee.len() as u64;
    let refs: Vec<(u64, &[f64])> = committee
        .iter()
        .map(|u| (u.client_id, u.params.as_slice()))
        .collect();
    let vectors: Vec<&[f64]> = refs.iter().map(|(_, v)| *v).collect();
    let anchor = rec.span("ml.anchor", round, || {
        (config.anchor.compute(&vectors), uploads)
    });

    // The clustered set: the uploads plus the anchor, appended last.
    let mut rows: Vec<Vec<f64>> = vectors.iter().map(|v| v.to_vec()).collect();
    rows.push(anchor.clone());
    let packed = Matrix::from_rows(&rows);
    let owned = &rows[..committee.len()];
    let distances = rec.span("cluster.distance", round, || {
        (distance_matrix_packed(&packed, config.metric), uploads + 1)
    });
    if let ClusteringAlgorithm::Dbscan { eps, min_points } = config.clustering {
        let dbscan = DbscanConfig {
            eps,
            min_points,
            metric: config.metric,
        };
        rec.span("cluster.dbscan", round, || {
            (
                black_box(dbscan_with_distances(&distances, &dbscan)),
                uploads + 1,
            )
        });
    }
    let analysis = rec.span("core.contribution", round, || {
        let analysis =
            analyze_contributions(&refs, &config.clustering, config.metric, config.anchor);
        (analysis, uploads)
    });
    rec.span("core.fair_aggregate", round, || {
        (black_box(fair_aggregate(owned, &anchor)), uploads)
    });
    rec.span("core.reward", round, || {
        let rewards = build_reward_list(&analysis.high_contribution, config.reward_base);
        let paid = rewards.len() as u64;
        (black_box(rewards), paid)
    });
}

/// Procedure V's inner calls on the block the round sealed.
fn probe_block(rec: &mut Recorder, round: usize, block: &Block, pow: &PowConfig) {
    rec.span("chain.merkle", round, || {
        let leaves: Vec<_> = block.transactions.iter().map(|tx| tx.id()).collect();
        (black_box(merkle_root(&leaves)), leaves.len() as u64)
    });
    let mut header = block.header.clone();
    header.nonce = 0;
    rec.span("chain.pow", round, || {
        let nonce = pow.search_header(&header, 0, u64::MAX);
        (black_box(nonce), nonce.map_or(0, |n| n + 1))
    });
    rec.mark("chain.block_bytes", round, block.size_bytes() as u64);
}

/// The event queue under the round's event count: `popped` pushes at
/// scattered times, then batch drains until empty.
fn probe_event_queue(rec: &mut Recorder, round: usize, popped: usize) {
    rec.span("net.event_queue", round, || {
        let mut queue: EventQueue<usize> = EventQueue::new();
        for i in 0..popped {
            let scattered = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
            queue.push(scattered as f64 * 1e-3, i);
        }
        let mut due = Vec::new();
        while queue.pop_due_batch(&mut due) > 0 {
            black_box(&due);
            due.clear();
        }
        ((), popped as u64)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_rep;
    use crate::engine::tests::tiny;

    #[test]
    fn the_lockstep_replay_is_bit_identical_to_the_engine() {
        for name in ["sync_paper", "attack_discard"] {
            let workload = tiny(name);
            let mut rec = Recorder::on();
            let rep = run_rep(&workload, 11, &mut rec);
            assert!(rep.errors.is_empty(), "{name}: {:?}", rep.errors);
            let detail = rep.detail.expect("traced");
            let replayed = replay(&workload, 11, &detail.shapes, &mut rec).expect("replays");
            let sealed: Vec<String> = detail
                .outcomes
                .iter()
                .map(|o| o.block_hash.clone().expect("FullBfl rounds seal a block"))
                .collect();
            assert_eq!(sealed.len(), 3);
            assert_eq!(replayed.block_hashes, sealed, "{name}");
            assert_eq!(replayed.final_params, detail.final_params, "{name}");
        }
    }

    #[test]
    fn the_flexible_replay_reproduces_the_engines_shape() {
        let workload = tiny("flex_signed_faulty");
        let mut rec = Recorder::on();
        let rep = run_rep(&workload, 5, &mut rec);
        let detail = rep.detail.expect("traced");
        replay(&workload, 5, &detail.shapes, &mut rec).expect("replays");
        let signed: Vec<f64> = detail
            .shapes
            .iter()
            .map(|s| s.admitted.clamp(1, s.trained) as f64)
            .collect();
        assert_eq!(rec.count_per_round("crypto.sign"), signed);
        assert_eq!(rec.count_per_round("crypto.verify"), signed);
        let included: Vec<f64> = detail
            .shapes
            .iter()
            .zip(&signed)
            .map(|(s, &accepted)| (s.included as f64).clamp(1.0, accepted))
            .collect();
        assert_eq!(rec.count_per_round("core.global_update"), included);
        // Every probe hangs under the round's probe parent, never under
        // the round itself.
        for span in rec.spans.iter().filter(|s| s.name == "crypto.sign") {
            assert_eq!(
                rec.spans[span.parent.expect("nested")].name,
                "replay.probes"
            );
        }
    }
}
