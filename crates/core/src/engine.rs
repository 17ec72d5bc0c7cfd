//! The stepwise round engine behind every FAIR-BFL run.
//!
//! PR 1–3 made the substrates fast; this module makes the round loop
//! *composable*. [`SimulationRun`] owns all of a run's state — clients,
//! keys, consensus group, clock, accumulated outcomes — and advances one
//! communication round per [`SimulationRun::step`] call, so drivers can
//! interleave their own logic (early stopping, logging, checkpointing,
//! sweep bookkeeping) between rounds instead of handing control to a
//! monolithic `run()` for the whole experiment. A full run is literally
//! `while run.step()?.is_some() {}` — which is exactly what the
//! [`crate::scenario::Scenario`] drivers do, so a step-driven run is
//! bit-identical to a one-shot run by construction.
//!
//! A learning round is written once. The lockstep engine here and the
//! event engine ([`crate::events`]) share Procedure I (selection through
//! `ClientPool::select`, each under its own eligibility predicate and
//! fallback; one training fan-out, `LearningState::train_selection`), the
//! Procedure-IV hand-off (`SealedRound`, adopted through
//! `LearningState::adopt`) and the round's tail
//! (`LearningState::finish_round`: evaluation, [`RoundOutcome`]). What
//! each engine keeps to itself is how uploads get from the clients to
//! Procedure IV — the lockstep *middle* of `step_synchronous`, or the
//! event engine's commission and pump phases — and which miners seal: the
//! whole mesh, or those the event engine's fault plan leaves able to.

use crate::config::{BflConfig, ProvisioningMode};
use crate::delay_model::DelayBreakdown;
use crate::detection::{DetectionRow, DetectionTable};
use crate::error::CoreError;
use crate::flexibility::FlexibilityMode;
use crate::policy::ProportionalReward;
use crate::population::{ClientPool, ImplicitSpec};
use crate::procedures::global_update::{GlobalUpdateOutcome, GlobalUpdatePolicy};
use crate::procedures::{exchange, global_update, local_update, mining, upload};
use crate::reward::RewardEntry;
use crate::simulation::{KpiRow, RoundOutcome, SimulationResult};
use bfl_chain::consensus::RoundConsensus;
use bfl_chain::mempool::Mempool;
use bfl_chain::miner::Miner;
use bfl_chain::{Blockchain, Transaction};
use bfl_crypto::{KeyVault, RsaKeyPair};
use bfl_data::Dataset;
use bfl_fl::attack::AttackKind;
use bfl_fl::client::LocalUpdate;
use bfl_fl::config::PartitionKind;
use bfl_fl::selection::drop_stragglers;
use bfl_fl::trainer::{FlAlgorithm, FlTrainer};
use bfl_ml::metrics::accuracy;
use bfl_ml::model::Model;
use bfl_ml::optimizer::{local_step_count, LocalTrainingConfig};
use bfl_ml::SoftmaxRegression;
use bfl_net::{InvalidEventTime, SimClock, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A resumable FAIR-BFL run: construct once, [`step`](Self::step) per
/// round, [`into_result`](Self::into_result) when done (or bail early —
/// the result covers the completed rounds).
pub struct SimulationRun<'a> {
    config: BflConfig,
    state: RunState<'a>,
    round: usize,
    finished: bool,
    outcomes: Vec<RoundOutcome>,
    detection: DetectionTable,
    reward_totals: BTreeMap<u64, u64>,
}

/// Mode-specific live state.
enum RunState<'a> {
    Learning(Box<LearningState<'a>>),
    ChainOnly(ChainOnlyState),
}

/// Live state of the learning modes (full FAIR-BFL and FL-only). Fields
/// are crate-visible because the event-driven engine
/// ([`crate::events`]) drives the same state through its handlers.
pub(crate) struct LearningState<'a> {
    pub(crate) train: &'a Dataset,
    pub(crate) test: &'a Dataset,
    pub(crate) rng: StdRng,
    /// The client population: a materialized `Vec<Client>`, or an
    /// implicit population derived per index wherever a client is used
    /// (client id == population index in both backends).
    pub(crate) pool: ClientPool,
    pub(crate) local_config: LocalTrainingConfig,
    /// RSA identities when `verify_signatures` is on: each client's pair
    /// derived from its id ([`KeyVault::derive`]), the whole population
    /// at run start under [`ProvisioningMode::Eager`], or on first
    /// selection within the lazy cache budget.
    pub(crate) keys: Option<KeyVault>,
    pub(crate) consensus: Option<RoundConsensus>,
    pub(crate) topology: Topology,
    pub(crate) global_model: SoftmaxRegression,
    pub(crate) global_params: Vec<f64>,
    pub(crate) clock: SimClock,
    /// Clients currently sitting out after being discarded.
    pub(crate) cooldown: BTreeMap<u64, usize>,
    /// The event-driven runtime, present when the scenario runs a
    /// flexible block quota ([`SyncMode::FlexibleQuota`]); `None` keeps
    /// the lockstep engine with zero overhead.
    pub(crate) async_rt: Option<Box<crate::events::AsyncRuntime>>,
}

/// Live state of the chain-only (pure blockchain) mode.
struct ChainOnlyState {
    rng: StdRng,
    consensus: RoundConsensus,
    mempool: Mempool,
    clock: SimClock,
}

impl<'a> SimulationRun<'a> {
    /// Validates the configuration and provisions the run's state (client
    /// population, data shards, RSA identities, consensus group, model).
    /// No rounds execute until [`step`](Self::step) is called.
    pub fn new(
        config: BflConfig,
        train: &'a Dataset,
        test: &'a Dataset,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let state = match config.mode {
            FlexibilityMode::ChainOnly => RunState::ChainOnly(ChainOnlyState::new(&config)),
            _ => RunState::Learning(Box::new(LearningState::new(&config, train, test)?)),
        };
        Ok(SimulationRun {
            config,
            state,
            round: 0,
            finished: false,
            outcomes: Vec::new(),
            detection: DetectionTable::new(),
            reward_totals: BTreeMap::new(),
        })
    }

    /// The run's configuration.
    pub fn config(&self) -> &BflConfig {
        &self.config
    }

    /// True once every configured round has run (or a round failed).
    pub fn is_finished(&self) -> bool {
        self.finished || self.round >= self.config.fl.rounds
    }

    /// Per-round outcomes accumulated so far.
    pub fn outcomes(&self) -> &[RoundOutcome] {
        &self.outcomes
    }

    /// The detection table accumulated so far.
    pub fn detection(&self) -> &DetectionTable {
        &self.detection
    }

    /// Cumulative rewards per client so far, in milli-units.
    pub fn reward_totals(&self) -> &BTreeMap<u64, u64> {
        &self.reward_totals
    }

    /// The deterministic event trace accumulated so far. Empty for
    /// synchronous runs (lockstep rounds schedule no events); under a
    /// flexible quota, the same scenario and seed always produce the
    /// identical trace — a property the tests pin.
    pub fn event_trace(&self) -> &[crate::events::EventRecord] {
        match &self.state {
            RunState::Learning(state) => state
                .async_rt
                .as_deref()
                .map(|rt| rt.trace())
                .unwrap_or(&[]),
            RunState::ChainOnly(_) => &[],
        }
    }

    /// The canonical ledger, when the mode mines.
    pub fn chain(&self) -> Option<&Blockchain> {
        match &self.state {
            RunState::Learning(state) => state.consensus.as_ref().map(|c| c.canonical_chain()),
            RunState::ChainOnly(state) => Some(state.consensus.canonical_chain()),
        }
    }

    /// Advances one communication round. Returns the round's outcome — a
    /// borrow of the record just appended to [`outcomes`](Self::outcomes)
    /// — or `None` once all configured rounds have run. A failed round
    /// (ledger rejection, empty gradient set) finishes the run and
    /// surfaces its error.
    pub fn step(&mut self) -> Result<Option<&RoundOutcome>, CoreError> {
        if self.is_finished() {
            self.finished = true;
            return Ok(None);
        }
        let round = self.round + 1;
        let stepped = match &mut self.state {
            RunState::Learning(state) => state.step(&self.config, round),
            RunState::ChainOnly(state) => state.step(&self.config, round),
        };
        let outcome = match stepped {
            Ok(outcome) => outcome,
            Err(e) => {
                self.finished = true;
                return Err(e);
            }
        };
        self.round = round;

        for reward in &outcome.rewards {
            *self.reward_totals.entry(reward.client_id).or_insert(0) += reward.amount_milli;
        }
        // Chain-only rounds never run Algorithm 2, so they score no row.
        if self.config.mode.learns() {
            self.detection.push(DetectionRow::new(
                round,
                &outcome.attackers,
                &outcome.dropped,
            ));
        }
        self.outcomes.push(outcome);
        Ok(self.outcomes.last())
    }

    /// Runs every remaining round.
    pub fn run_to_completion(&mut self) -> Result<(), CoreError> {
        while self.step()?.is_some() {}
        Ok(())
    }

    /// Finalizes the run into a [`SimulationResult`] covering the rounds
    /// completed so far.
    pub fn into_result(self) -> SimulationResult {
        let (chain, final_params) = match self.state {
            RunState::Learning(state) => (
                state.consensus.map(RoundConsensus::into_canonical_chain),
                state.global_params,
            ),
            RunState::ChainOnly(state) => {
                (Some(state.consensus.into_canonical_chain()), Vec::new())
            }
        };
        SimulationResult {
            outcomes: self.outcomes,
            chain,
            detection: self.detection,
            reward_totals: self.reward_totals,
            final_params,
            mode: self.config.mode,
        }
    }
}

/// Procedure I's per-round seed: every local pass of `round` derives its
/// own stream from this and its client id.
pub(crate) fn round_seed(config: &BflConfig, round: usize) -> u64 {
    config.fl.seed ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// The run's consensus group (Procedure V): `config.miners` replicas
/// mining at a light real difficulty — wall-clock time stays negligible,
/// the *simulated* delay comes from the delay model — under the delay
/// model's block-size limit (population-scale rounds carry
/// O(participants) reward lists, which outgrow the default limit long
/// before the gradient does).
fn consensus_group(config: &BflConfig) -> RoundConsensus {
    let miners: Vec<Miner> = (0..config.miners as u64)
        .map(|id| Miner::new(id, config.delay.miner_hash_rate))
        .collect();
    let mut consensus = RoundConsensus::new(miners, bfl_chain::PowConfig::new(64));
    consensus
        .replicas
        .iter_mut()
        .for_each(|c| c.max_block_bytes = config.delay.max_block_bytes);
    consensus
}

/// The error that ends a run in `round` when a time it schedules or
/// advances to leaves `f64`'s finite range: each delay field is validated
/// finite, but their sums and products are not, and a `Normal` latency is
/// unbounded.
pub(crate) fn time_overflow(round: usize) -> impl Fn(InvalidEventTime) -> CoreError {
    move |e| {
        CoreError::invalid(format!(
            "round {round}: simulated time reached {} s, past the finite range; \
             the configured delays are too large",
            e.time_s
        ))
    }
}

/// Advances `clock` by `seconds`, or ends the run (see [`time_overflow`]).
pub(crate) fn advance_clock(
    clock: &mut SimClock,
    seconds: f64,
    round: usize,
) -> Result<(), CoreError> {
    clock.try_advance(seconds).map_err(time_overflow(round))
}

/// What Procedure IV hands to the rest of a round, in either engine: the
/// new global parameters (until [`LearningState::adopt`] moves them into
/// the run), what Procedure V records in the block, and what the round's
/// tail ([`LearningState::finish_round`]) reports. Built from a
/// materialized [`GlobalUpdateOutcome`] by
/// [`from_global_update`](Self::from_global_update), or by sealing the
/// event engine's streaming fold; Algorithm 2's full report (anchor
/// gradients, contribution labels) ends here.
pub(crate) struct SealedRound {
    /// Uploads that entered the aggregation.
    pub(crate) participants: usize,
    /// How many of them were commissioned in an earlier round.
    pub(crate) stale_included: usize,
    /// Mean final-epoch training loss the round reports.
    pub(crate) train_loss: f64,
    /// Ground-truth attacker ids the detection row is scored against.
    pub(crate) attackers: Vec<u64>,
    /// The round's global update.
    pub(crate) global_params: Vec<f64>,
    /// The reward list the block records.
    pub(crate) rewards: Vec<RewardEntry>,
    /// Clients the discard strategy excluded.
    pub(crate) dropped: Vec<u64>,
    /// Clients labelled high contribution.
    pub(crate) high_contributors: usize,
}

impl SealedRound {
    /// The hand-off from a materialized Procedure IV over `participants`
    /// uploads.
    pub(crate) fn from_global_update(
        global: GlobalUpdateOutcome,
        participants: usize,
        stale_included: usize,
        train_loss: f64,
        attackers: Vec<u64>,
    ) -> Self {
        SealedRound {
            participants,
            stale_included,
            train_loss,
            attackers,
            global_params: global.global_params,
            high_contributors: global.report.high_contribution.len(),
            rewards: global.report.rewards,
            dropped: global.dropped,
        }
    }
}

impl<'a> LearningState<'a> {
    pub(crate) fn new(
        config: &BflConfig,
        train: &'a Dataset,
        test: &'a Dataset,
    ) -> Result<Self, CoreError> {
        // The first place that sees both the population and the data.
        config.validate_for_dataset(train.len(), train.feature_count(), train.classes)?;
        let mut rng = StdRng::seed_from_u64(config.fl.seed);

        // Client population and data shards (`bfl-fl`'s partitioning, so
        // every mode sees identical splits).
        // An implicit partition always gets the implicit pool — and with
        // it the rejection-sampled Procedure I — regardless of the
        // provisioning mode, so that eager and lazy provisioning draw
        // identically from the learning stream and stay bit-identical.
        // The pool keeps no client: each is derived where it is used, so
        // the provisioning mode sizes only the key vault below. Implicit
        // partitions consume zero learning-stream draws either way.
        let pool = match config.fl.partition {
            PartitionKind::ImplicitIid { samples_per_client } => {
                ClientPool::Implicit(ImplicitSpec {
                    seed: config.fl.seed,
                    population: config.fl.clients,
                    samples_per_client,
                    train_len: train.len(),
                })
            }
            _ => {
                let trainer = FlTrainer::new(config.fl, FlAlgorithm::FedAvg);
                ClientPool::Materialized(trainer.build_clients(train, &mut rng))
            }
        };
        let local_config = config.fl.local;

        // Key provisioning (Procedure-II's RSA identities). Each client's
        // pair comes from its own stream, seeded by the run's key seed and
        // its id, so the learning trajectory is invariant to crypto
        // details: how many candidates a prime search consumes — or
        // whether signatures are enabled at all — must not reshuffle
        // client selection and training randomness. The provisioning mode
        // only sizes the vault: eager holds the whole population, derived
        // here (client ids are population indices, so `0..n`), and no
        // round derives; lazy derives each client on first selection.
        let vault = |budget| {
            KeyVault::new(
                config.fl.seed ^ 0x5EED_0F4B,
                config.rsa_modulus_bits,
                budget,
            )
        };
        let keys = match (config.verify_signatures, config.provisioning) {
            (false, _) => None,
            (true, ProvisioningMode::Lazy { cache_budget }) => Some(vault(cache_budget)),
            (true, ProvisioningMode::Eager) => {
                let mut vault = vault(config.fl.clients);
                let ids: Vec<u64> = (0..config.fl.clients as u64).collect();
                vault.ensure(&ids)?;
                Some(vault)
            }
        };

        // Consensus group (Procedure-V), only when the mode mines.
        let consensus = config.mode.mines().then(|| consensus_group(config));

        let topology = Topology::new(config.fl.clients, config.miners);
        let global_model = config.fl.model.build(&mut rng);
        let global_params = global_model.params();

        // The event-driven runtime only exists when the scenario asks for
        // a flexible block quota; the synchronous path stays untouched.
        let async_rt = if config.sync.is_synchronous() {
            None
        } else {
            Some(Box::new(crate::events::AsyncRuntime::new(config)))
        };

        Ok(LearningState {
            train,
            test,
            rng,
            pool,
            local_config,
            keys,
            consensus,
            topology,
            global_model,
            global_params,
            clock: SimClock::new(),
            cooldown: BTreeMap::new(),
            async_rt,
        })
    }

    /// One communication round, dispatched on the scenario's sync mode:
    /// the lockstep pass (the PR 4 engine, bit-identical) or the
    /// event-driven flexible-quota round of [`crate::events`].
    fn step(&mut self, config: &BflConfig, round: usize) -> Result<RoundOutcome, CoreError> {
        match config.sync {
            crate::config::SyncMode::Synchronous => self.step_synchronous(config, round),
            crate::config::SyncMode::FlexibleQuota { quota } => {
                crate::events::step_flexible(self, config, round, quota)
            }
        }
    }

    /// Advances the discard cooldowns by one round (shared verbatim by
    /// both engines — the RNG is untouched, so extraction cannot perturb
    /// the lockstep path).
    pub(crate) fn advance_cooldowns(&mut self) {
        self.cooldown.retain(|_, remaining| {
            *remaining = remaining.saturating_sub(1);
            *remaining > 0
        });
    }

    /// Designates this round's attackers among `selected_positions`.
    /// Returns the per-participant attack side table (aligned with the
    /// selection, so the client population is never cloned per round)
    /// and the sorted ground-truth attacker ids. Shared verbatim by both
    /// engines: the RNG draw order is part of the bit-identity contract.
    pub(crate) fn designate_attackers(
        &mut self,
        config: &BflConfig,
        selected_positions: &[usize],
    ) -> (Vec<Option<AttackKind>>, Vec<u64>) {
        let mut attacks: Vec<Option<AttackKind>> = vec![None; selected_positions.len()];
        let mut attackers = Vec::new();
        if config.attack.enabled && !selected_positions.is_empty() {
            let max = config.attack.max_attackers.min(selected_positions.len());
            let min = config.attack.min_attackers.min(max);
            let count = if min == max {
                min
            } else {
                self.rng.gen_range(min..=max)
            };
            let mut order: Vec<usize> = (0..selected_positions.len()).collect();
            use rand::seq::SliceRandom;
            order.shuffle(&mut self.rng);
            for &i in order.iter().take(count) {
                attacks[i] = Some(config.attack.kind);
                // Client id == population index in both pool backends, so
                // no client needs materializing to name an attacker.
                attackers.push(selected_positions[i] as u64);
            }
            attackers.sort_unstable();
        }
        (attacks, attackers)
    }

    /// Puts the round's dropped clients on the discard cooldown (the
    /// "clients selection" effect of Section 3.2). Shared by both engines.
    pub(crate) fn apply_discard_cooldowns(&mut self, config: &BflConfig, dropped: &[u64]) {
        if config.strategy.discards() {
            for &id in dropped {
                self.cooldown
                    .insert(id, config.discard_cooldown_rounds.max(1));
            }
        }
    }

    /// SGD steps of client `position`'s local pass (what `T_local` is
    /// proportional to), read off the pool without deriving the client.
    pub(crate) fn local_steps(&self, position: usize) -> usize {
        local_step_count(self.pool.sample_count(position), &self.local_config)
    }

    /// Procedure I's fan-out, shared by both engines: trains the selection
    /// `positions` under `attacks` against the current global parameters
    /// and `round`'s seed — over the working set the pool lends — and hands
    /// each update to `finish` on the worker that trained it, together
    /// with its client's signing pair when the run signs (the caller has
    /// ensured the selection in the vault). Results come back in selection
    /// order.
    pub(crate) fn train_selection<U: Send>(
        &mut self,
        config: &BflConfig,
        round: usize,
        positions: &[usize],
        attacks: &[Option<AttackKind>],
        finish: impl Fn(LocalUpdate, Option<&RsaKeyPair>) -> U + Sync,
    ) -> Vec<U> {
        let (clients, indices) = self.pool.working_set(positions);
        let pairs = self.keys.as_ref().map(KeyVault::pairs);
        local_update::fan_out(
            &clients,
            &indices,
            attacks,
            config.fl.model,
            &self.global_params,
            self.train,
            &self.local_config,
            round_seed(config, round),
            |update| {
                let pair = pairs.and_then(|pairs| pairs.get(&update.client_id));
                finish(update, pair)
            },
        )
    }

    /// Adopts the sealed round's global update as the run's model, moving
    /// the parameters out of `sealed`.
    pub(crate) fn adopt(&mut self, sealed: &mut SealedRound) {
        self.global_params = std::mem::take(&mut sealed.global_params);
        self.global_model.set_params(&self.global_params);
    }

    /// The tail every learning round ends in, once its block is mined and
    /// the clock has advanced: evaluates the adopted model on the test
    /// set and assembles the [`RoundOutcome`].
    /// `kpi` carries the event engine's counters (all zero in lockstep);
    /// the makespan and the stale count are filled in here.
    pub(crate) fn finish_round(
        &self,
        round: usize,
        sealed: SealedRound,
        breakdown: DelayBreakdown,
        block_hash: Option<String>,
        kpi: KpiRow,
    ) -> RoundOutcome {
        let test_accuracy = accuracy(
            &self.global_model,
            &self.test.features,
            &self.test.labels,
            None,
        );
        let rewards_paid = sealed.rewards.iter().map(|r| r.amount_milli).sum();
        RoundOutcome {
            round,
            elapsed_s: self.clock.now_seconds(),
            breakdown,
            accuracy: test_accuracy,
            train_loss: sealed.train_loss,
            participants: sealed.participants,
            stale_included: sealed.stale_included,
            attackers: sealed.attackers,
            dropped: sealed.dropped,
            high_contributors: sealed.high_contributors,
            rewards_paid_milli: rewards_paid,
            rewards: sealed.rewards,
            block_hash,
            kpi: KpiRow {
                makespan_s: breakdown.total(),
                stale_included: sealed.stale_included,
                ..kpi
            },
        }
    }

    /// One lockstep round. Procedure I, the Procedure-IV hand-off
    /// ([`SealedRound`], [`adopt`](Self::adopt)) and the tail
    /// ([`finish_round`](Self::finish_round)) are the pieces shared with
    /// the event engine; what is written out between them is the lockstep
    /// *middle* — key provisioning, `upload_gradients`,
    /// `exchange_gradients`, `compute_global_update`, `mine_round` and the
    /// delay model's one `fair_round`/`federated_round` draw. The middle is
    /// still here because the benchmark's replay (`benchmark/src/replay.rs`)
    /// calls those lockstep drivers itself and checks every block hash
    /// against this engine bit for bit, while the event engine draws from
    /// `rng` in a different order (per send: association, then latency);
    /// making lockstep a configuration of the event engine has to re-pin
    /// that benchmark first.
    fn step_synchronous(
        &mut self,
        config: &BflConfig,
        round: usize,
    ) -> Result<RoundOutcome, CoreError> {
        self.advance_cooldowns();

        // Procedure-I. Lockstep eligibility is "not cooling down"; when
        // that leaves nobody, re-draw ignoring cooldowns rather than run
        // an empty round.
        let count = config.fl.selected_per_round();
        let LearningState {
            pool,
            cooldown,
            rng,
            ..
        } = self;
        let mut picked = pool.select(count, |i| !cooldown.contains_key(&(i as u64)), rng);
        if picked.is_empty() {
            picked = pool.select(count, |_| true, rng);
        }
        let selected = drop_stragglers(&picked, config.fl.drop_percent, rng);
        let (attacks, attackers) = self.designate_attackers(config, &selected);
        let updates = self.train_selection(config, round, &selected, &attacks, |update, _| update);
        let max_steps = selected
            .iter()
            .map(|&position| self.local_steps(position))
            .max()
            .unwrap_or(0);
        let train_loss = updates
            .iter()
            .map(|u| u.stats.final_epoch_loss)
            .sum::<f64>()
            / updates.len().max(1) as f64;

        // Procedure-II: upload + verification. The vault derives (or
        // LRU-touches) exactly the selected identities before the signing
        // fan-out.
        if let Some(keys) = self.keys.as_mut() {
            let ids: Vec<u64> = updates.iter().map(|u| u.client_id).collect();
            keys.ensure(&ids).map_err(CoreError::from)?;
        }
        let uploads = upload::upload_gradients(
            &updates,
            &self.topology,
            self.keys.as_ref().map(KeyVault::pairs),
            self.keys.as_ref().map(KeyVault::store),
            &mut self.rng,
        );

        // Procedure-III: miner exchange (skipped in FL-only mode, where
        // the single aggregator already holds every accepted upload).
        // Both paths consume the upload outcome, moving the round's
        // parameter vectors into the merged set instead of cloning.
        let merged = if config.mode.runs(crate::flexibility::Procedure::Exchange) {
            exchange::exchange_gradients(uploads, config.miners).merged
        } else {
            uploads.into_all_accepted()
        };
        if merged.is_empty() {
            return Err(CoreError::EmptyRound { round });
        }

        // Procedure-IV: global update + Algorithm 2, under the scenario's
        // anchor, paying the paper's proportional reward.
        let reward = ProportionalReward {
            base: config.reward_base,
        };
        let global = global_update::compute_global_update(
            &merged,
            &GlobalUpdatePolicy::for_round(config, round, &reward),
        );
        let mut sealed =
            SealedRound::from_global_update(global, merged.len(), 0, train_loss, attackers);
        self.adopt(&mut sealed);

        // Procedure-V: mining and consensus.
        let block_hash = if let Some(consensus) = self.consensus.as_mut() {
            let outcome = mining::mine_round(
                consensus,
                round as u64,
                &self.global_params,
                &sealed.rewards,
                self.clock.now_millis(),
                &mut self.rng,
            )?;
            Some(outcome.block.hash_hex())
        } else {
            None
        };

        // Discard strategy: dropped clients sit out the next few rounds.
        self.apply_discard_cooldowns(config, &sealed.dropped);

        // Delay accounting and the clock.
        let breakdown = match config.mode {
            FlexibilityMode::FullBfl => {
                config
                    .delay
                    .fair_round(merged.len(), max_steps, config.miners, &mut self.rng)
            }
            FlexibilityMode::FlOnly => {
                config
                    .delay
                    .federated_round(merged.len(), max_steps, &mut self.rng)
            }
            FlexibilityMode::ChainOnly => unreachable!("handled by ChainOnlyState"),
        };
        advance_clock(&mut self.clock, breakdown.total(), round)?;

        Ok(self.finish_round(round, sealed, breakdown, block_hash, KpiRow::default()))
    }
}

impl ChainOnlyState {
    /// Chain-only mode: workers submit generic transactions, miners drain
    /// the mempool into blocks — the pure-blockchain baseline.
    fn new(config: &BflConfig) -> Self {
        ChainOnlyState {
            rng: StdRng::seed_from_u64(config.fl.seed),
            consensus: consensus_group(config),
            mempool: Mempool::new(),
            clock: SimClock::new(),
        }
    }

    fn step(&mut self, config: &BflConfig, round: usize) -> Result<RoundOutcome, CoreError> {
        // Every worker submits one transaction. Its size passed validation
        // against the block limit, which may itself be near `usize::MAX`,
        // so the payload is reserved fallibly.
        let tx_bytes = config.delay.baseline_tx_bytes;
        for worker in 0..config.fl.clients as u64 {
            let mut payload = Vec::new();
            payload.try_reserve_exact(tx_bytes).map_err(|e| {
                CoreError::invalid(format!(
                    "delay.baseline_tx_bytes = {tx_bytes} cannot be allocated for a \
                     chain-only transaction: {e}"
                ))
            })?;
            payload.resize(tx_bytes, 0);
            self.mempool
                .submit(Transaction::local_gradient(worker, round as u64, payload));
        }
        // Miners clear the backlog, one block at a time.
        while !self.mempool.is_empty() {
            let batch = self.mempool.drain_block(config.delay.max_block_bytes);
            self.consensus
                .seal_round(batch, self.clock.now_millis(), &mut self.rng)
                .map_err(CoreError::from)?;
        }

        let breakdown =
            config
                .delay
                .blockchain_round(config.fl.clients, config.miners, &mut self.rng);
        advance_clock(&mut self.clock, breakdown.total(), round)?;
        Ok(RoundOutcome {
            round,
            elapsed_s: self.clock.now_seconds(),
            breakdown,
            accuracy: 0.0,
            train_loss: 0.0,
            participants: config.fl.clients,
            stale_included: 0,
            attackers: Vec::new(),
            dropped: Vec::new(),
            high_contributors: 0,
            rewards_paid_milli: 0,
            rewards: Vec::new(),
            block_hash: Some(self.consensus.canonical_chain().tip().hash_hex()),
            kpi: KpiRow {
                makespan_s: breakdown.total(),
                ..KpiRow::default()
            },
        })
    }
}
