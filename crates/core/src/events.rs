//! The event-driven round engine: flexible block quotas, stragglers,
//! client churn, and deterministic fault injection on the simulated clock.
//!
//! Under [`SyncMode::FlexibleQuota`](crate::config::SyncMode) Procedures
//! I–V stop executing in lockstep and become *event handlers* on
//! `bfl-net`'s deterministic [`EventQueue`]:
//!
//! * **Procedure-I** is scheduled: each selected client's local pass
//!   finishes at `round start + t_local · compute_multiplier` of its
//!   [`NodeProfile`](bfl_net::NodeProfile), producing a `TrainingFinished`
//!   event.
//! * **Procedure-II** starts where the paper puts it, at the client: the
//!   worker that trains a client's pass signs the update right after, in
//!   the same fan-out (the `finish` step of the engines' shared
//!   `LearningState::train_selection`), and
//!   the detached [`Signature`] (128 bytes under 1024-bit keys) rides the
//!   upload's ticket through every retry, duplicate, strand and salvage —
//!   one private-key operation per commission, none on the event pump. The
//!   `TrainingFinished` handler then associates the client with a miner
//!   through the run's [`Topology`](bfl_net::Topology), and the upload is
//!   scheduled to arrive after its profile's uplink latency plus the
//!   payload transfer and miner-side processing time.
//! * The `UploadArrived` handler is the miner's half: it hashes the
//!   upload's serialized form as it streams from the `f64`s, flipping the
//!   byte an in-transit corruption struck on the way, verifies the
//!   signature against the registered key (the Figure 2 verification
//!   step) and admits the upload into the miner's pending pool — the
//!   runtime's `arrived` map of verified, decoded uploads, keyed by
//!   client. Every delivery is hashed and checked on its own, duplicates,
//!   retransmissions and salvages included. The pool is the only one
//!   there is: under the paper's Assumption 2 a block carries the global
//!   gradient and the reward list, never a local gradient, so no
//!   serialized upload is ever kept. Stale uploads — commissioned in an
//!   earlier round, arriving after that round's block sealed — pass
//!   through the configured
//!   [`StalenessPolicy`](crate::policy::StalenessPolicy) first; one the
//!   policy discards whatever it carries is dropped unopened. (It was
//!   still signed, in the parallel region, when its client sent it — a
//!   client cannot know its upload will arrive late.)
//! * **Procedures III–V** fire when the *flexible block quota* `K` of
//!   uploads has arrived — the paper's flexible block size — rather than
//!   when every participant reports. Uploads leave the pending pool
//!   through the round's one fold, which tallies them and runs Algorithm 2
//!   and Equation 1 under the scenario's anchor/reward policies; the block
//!   seals at the quota's simulated time. From the Procedure-IV hand-off
//!   on, the round is the lockstep engine's: one `SealedRound`, one
//!   `adopt`, one `finish_round` (`engine.rs`).
//!
//! ## Fault injection
//!
//! A [`FaultPlan`](bfl_net::FaultPlan) threads adversity through the same
//! handlers. Link faults strike each send: a *dropped* upload never
//! arrives (the client retransmits per the
//! [`RetryPolicy`] seam), a *duplicated*
//! upload arrives twice (the engine's delivery ledger and the pending
//! pool's one-upload-per-client key squash the copy), and a *corrupted*
//! upload arrives with one payload byte flipped — the miner's signature
//! check is the detector and rejects it. A [`CrashSchedule`](bfl_net::CrashSchedule)
//! takes one miner down: uploads landing on it are swallowed, its pending
//! uploads are lost at the crash instant, and it rejoins sealing
//! only after resynchronising its replica. A
//! [`Partition`](bfl_net::Partition) splits the miner mesh: each
//! component seals its own branch (a real fork), and the first round
//! prologue after the window heals it by longest-chain adoption
//! ([`RoundConsensus::heal`]) — the losing branch's uploads are salvaged
//! or discarded per the [`ReorgPolicy`], and
//! the resolution cost is charged to the round as `T_fork` from the
//! configured [`ForkModel`](bfl_chain::ForkModel). When faults leave the
//! quota unreachable, `FaultPlan::deadline_s` degrades the round
//! gracefully: it seals with whatever arrived. Every fault coin-flip
//! draws from a dedicated RNG stream (`seed ^ 0xFA17_5EED`), so an
//! inactive plan performs **zero** extra draws and replays the fault-free
//! engine bit-for-bit.
//!
//! The pump pops one event at a time in `(time, seq)` order, checking the
//! quota and the deadline before each pop, so stragglers beyond the quota
//! simply keep their events in the queue across rounds; clients leave and
//! rejoin mid-run according to their profile's churn schedule (FAIR-BFL's
//! dynamic-join property), and every event is
//! appended to a deterministic [`EventRecord`] trace that tests pin:
//! the same scenario and seed produce the identical trace on any machine
//! and under any sweep parallelism.
//!
//! ## Population-scale rounds
//!
//! Per-round cost scales with *participants*, not the configured
//! population. Heterogeneity profiles come from a stateless oracle
//! (`ProfileConfig::profile_of`) instead of a population-sized table; an
//! implicit `ClientPool` backend (`population` module) rejection-samples
//! Procedure-I's selection without materializing a `Vec<Client>` and
//! derives a client wherever one is used, keeping none; and
//! under [`AggregationMode::Streaming`](crate::config::AggregationMode)
//! each upload is carried as a *deferred ticket* — the local pass runs
//! no later than the upload's admission, against the commissioning
//! round's snapshot of the global parameters (a pure function, so retries
//! and duplicates resolve identically), and the client signs at
//! admission — and the round's fold drains the pool chunk by chunk: each
//! full chunk runs Algorithm 2 as its own clustering committee and is
//! absorbed into one running weighted sum, so no round ever holds more
//! than one chunk of gradients. (A materialized round is one committee,
//! analysed at the seal.) Rewards still settle exactly once per round
//! over the concatenated θ scores. Streaming requires the mean
//! anchor (the only anchor whose aggregation composes across chunks) and
//! a plan without crashes or partitions (crash purges and partition
//! strands cannot un-fold an absorbed chunk); validation enforces both.
//!
//! Deferred passes are opened *a run at a time*. When the pump is about
//! to admit a deferred ticket with no pass waiting for it, it looks at
//! the deferred arrivals queued directly behind that ticket — up to as
//! many as the chunk buffer and the quota still have room for, so nothing
//! is trained that this round cannot take — and runs all their passes in
//! one fan-out across workers (`resolve_run_ahead`). The resulting
//! updates are *parked* in the runtime under `(client_id, born_round)`;
//! each event is then popped, checked and recorded exactly as before, and
//! `admit_upload` merely finds its ticket's pass already there. Parked
//! passes plus buffered uploads never exceed one chunk, so the heap
//! high-water does not move. A parked pass whose arrival is not admitted
//! after all (a squashed duplicate, a client gone offline, a round sealed
//! by its deadline first) is dropped when the next run starts or the
//! round seals — never carried in the queue, where its ticket, if still
//! in flight, stays deferred. Order cannot change because the walk only
//! *reads* the queue (events it pops to look at go straight back with
//! their sequence numbers) and because a pass is a pure function of its
//! ticket: the thread it ran on and the moment it ran leave no mark on
//! the trace, the KPIs, or any RNG stream.

use crate::aggregation::WEIGHT_FLOOR;
use crate::config::{AggregationMode, BflConfig};
use crate::contribution::analyze_contributions;
use crate::delay_model::DelayBreakdown;
use crate::engine::{advance_clock, round_seed, time_overflow, LearningState, SealedRound};
use crate::error::CoreError;
use crate::flexibility::FlexibilityMode;
use crate::policy::{ReorgPolicy, RetryPolicy, RewardPolicy};
use crate::procedures::global_update::{self, GlobalUpdatePolicy};
use crate::procedures::mining;
use crate::procedures::upload::{received_envelope, sign_update, Corruption, VerifiedUpload};
use crate::simulation::{KpiRow, RoundOutcome};
use bfl_chain::consensus::RoundConsensus;
use bfl_crypto::{BatchVerifier, Signature};
use bfl_fl::attack::AttackKind;
use bfl_fl::client::{Client, LocalUpdate};
use bfl_fl::selection::drop_stragglers;
use bfl_ml::gradient;
use bfl_ml::par;
use bfl_ml::tensor::Scratch;
use bfl_net::{EventQueue, ScheduledEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU8;
use std::sync::Arc;

/// XOR'd into the scenario seed to derive the fault stream, so fault
/// coin-flips never perturb the learning stream's draw sequence.
const FAULT_STREAM: u64 = 0xFA17_5EED;

/// What happened when an event resolved — the observable half of the
/// deterministic event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// Procedure-I scheduled: the client started its local pass.
    TrainingScheduled,
    /// Procedure-I finished: the client's local pass completed.
    TrainingFinished,
    /// Procedure-II completed: the upload arrived and was admitted.
    UploadArrived,
    /// The upload arrived but the miner refused it: its signature failed
    /// verification (or was missing), or it carried a non-finite
    /// coordinate.
    UploadRejected,
    /// The upload was lost: its client churned offline before it landed,
    /// or a miner crash wiped it from the pending pool.
    UploadLost,
    /// A stale upload was discarded by the staleness policy. Under
    /// `StalenessPolicy::Discard` the verdict cannot depend on the
    /// payload, so the upload is dropped unopened — it is `StaleDiscarded`
    /// even if its payload would have been refused as non-finite.
    StaleDiscarded,
    /// A stale upload was decayed and carried into the next block.
    StaleIncluded,
    /// The flexible block quota was reached; Procedures III–V fired.
    QuotaReached,
    /// A link fault dropped the upload in transit (or a downed miner
    /// swallowed it on arrival).
    UploadDropped,
    /// The client's retransmission timer fired and the upload was resent.
    UploadRetried,
    /// A redundant delivery (duplicate fault, or a retransmission racing
    /// its original) was recognised and ignored.
    DuplicateIgnored,
    /// The upload landed on the partition's secondary component and is
    /// stranded off the primary pool until the mesh heals.
    UploadStranded,
    /// The mesh healed a fork (or caught a lagging component up) by
    /// longest-chain adoption.
    ForkHealed,
    /// The round's fault deadline expired and it sealed with whatever
    /// had arrived.
    DeadlineSealed,
}

/// One entry of the deterministic event trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventRecord {
    /// Simulated second at which the event resolved.
    pub time_s: f64,
    /// The round being executed when it resolved.
    pub round: usize,
    /// The round that commissioned the work (differs for stale uploads).
    pub born_round: usize,
    /// The client involved (`u64::MAX` for round-level events).
    pub client_id: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What an upload in flight carries: either the eagerly computed local
/// update with the signature its client made when it sent it, or a
/// *deferred* commission
/// whose local pass has not run yet — the streaming aggregation path,
/// where an event must not pin a full parameter vector per in-flight
/// client. A deferred ticket is trained no later than its admission — by
/// [`resolve_run_ahead`], together with the deferred arrivals queued right
/// behind it, or else by [`admit_upload`] itself — and signed at it.
///
/// Cloning a ticket (a duplicate delivery, an armed retransmission) shares
/// the commissioned update and its signature instead of copying them:
/// however many copies of a commission travel, it was trained and signed
/// once, and its parameters are held once. A deferred ticket is resolved
/// by a pure function of its [`Commission`], so a retransmission or
/// duplicate resolves to the identical [`LocalUpdate`] — and, raw RSA
/// being deterministic, the identical signature — the original would
/// have, whenever and on whichever thread it is opened.
#[derive(Clone)]
enum UploadTicket {
    /// The computed local update travels inside the event, shared by
    /// every copy of it in flight.
    Ready(Arc<SentUpdate>),
    /// The local pass runs when (or just before) the upload is admitted.
    Deferred(Commission),
}

/// What a client sent: its local update and its signature over it.
struct SentUpdate {
    update: LocalUpdate,
    /// The client's signature over what it sent, made at commission.
    /// `None` when signatures are off, or when the client holds no
    /// identity (the miner then rejects the upload).
    signature: Option<Signature>,
}

/// Everything a deferred Procedure-I pass is a function of, besides the
/// client's own derivation and the run's training configuration.
#[derive(Clone)]
struct Commission {
    client_id: u64,
    attack: Option<AttackKind>,
    /// The commissioning round's seed (Procedure-I determinism).
    born_seed: u64,
    /// The commissioning round's global parameters, shared across the
    /// round's tickets.
    snapshot: Arc<Vec<f64>>,
}

impl UploadTicket {
    /// The ticket of an update trained and signed at commission.
    fn ready(update: LocalUpdate, signature: Option<Signature>) -> Self {
        UploadTicket::Ready(Arc::new(SentUpdate { update, signature }))
    }

    fn client_id(&self) -> u64 {
        match self {
            UploadTicket::Ready(sent) => sent.update.client_id,
            UploadTicket::Deferred(commission) => commission.client_id,
        }
    }
}

/// An upload in flight, from its commission to its terminal state: the
/// one value the events, the stranded list and the send / retry / admit
/// steps pass whole.
#[derive(Clone)]
struct InFlightUpload {
    ticket: UploadTicket,
    /// The round that commissioned the pass (earlier than the round that
    /// resolves it for stale uploads).
    born_round: usize,
    /// Finish time of its Procedure-I pass (for the delay breakdown).
    train_finished_s: f64,
    /// The send attempt it travels on (1-based); on a `RetryTimer`, the
    /// attempt the resend will carry.
    attempt: u32,
}

impl InFlightUpload {
    fn client_id(&self) -> u64 {
        self.ticket.client_id()
    }
}

/// Timed payloads flowing through the engine's event queue.
enum EngineEvent {
    /// Procedure-I completion: the client sends its first attempt.
    TrainingFinished(InFlightUpload),
    /// Procedure-II arrival at the associated miner.
    UploadArrived {
        upload: InFlightUpload,
        miner: usize,
        /// In-transit corruption, applied to the serialized payload as
        /// the miner hashes it at admission.
        corrupt: Option<Corruption>,
        /// A retransmission is already armed for this commission, so the
        /// client stays busy regardless of this delivery's outcome.
        retry_pending: bool,
    },
    /// The client-side retransmission timer for a failed attempt.
    RetryTimer(InFlightUpload),
}

/// An upload admitted to the pending pool, awaiting the block quota.
struct ArrivedUpload {
    upload: VerifiedUpload,
    born_round: usize,
    /// Finish time of its Procedure-I pass (for the delay breakdown).
    train_finished_s: f64,
    /// The pass's final-epoch training loss (for the round record, which
    /// averages over the uploads that actually entered the block).
    final_epoch_loss: f64,
}

/// An upload that landed on the partition's secondary component, held
/// there until the mesh heals. Always an `UploadTicket::Ready` in
/// practice: streaming aggregation (the only producer of deferred
/// tickets) rejects partition plans at validation.
struct StrandedUpload {
    upload: InFlightUpload,
    miner: usize,
}

/// The event engine's live state, embedded in
/// [`LearningState`](crate::engine::LearningState) when the scenario runs
/// a flexible block quota.
pub(crate) struct AsyncRuntime {
    queue: EventQueue<EngineEvent>,
    /// Clients with a commissioned pass or in-flight upload.
    in_flight: BTreeSet<u64>,
    /// The miners' pending pool: verified, decoded uploads waiting for the
    /// quota, keyed by client id (a client never has two pending at once,
    /// and the merged set comes out ordered by client id, like the
    /// synchronous engine's). Under streaming aggregation it is the chunk
    /// buffer.
    arrived: BTreeMap<u64, ArrivedUpload>,
    trace: Vec<EventRecord>,
    /// Dedicated RNG stream for fault coin-flips: an inactive plan draws
    /// nothing from it, keeping fault-free runs bit-identical.
    fault_rng: StdRng,
    /// Highest commissioning round delivered per client — squashes
    /// redundant deliveries (duplicates, retransmission races).
    delivered: BTreeMap<u64, usize>,
    /// Uploads held on the partition's secondary component until heal.
    stranded: Vec<StrandedUpload>,
    /// The (single-shot) partition has been healed.
    fork_healed: bool,
    /// The crashed miner's pending pool has been wiped.
    crash_purged: bool,
    /// The recovered miner has resynchronised its replica.
    crash_resynced: bool,
    /// Shared batch verifier for the arrival path: one Montgomery
    /// workspace amortised across every envelope this engine checks.
    /// Decisions are identical to per-upload `verify`, so the cache is
    /// invisible to replay determinism.
    verifier: BatchVerifier,
    /// The run-ahead walk's holding buffer for the events it pops to look
    /// at, kept so its capacity is reused; empty outside the walk.
    drain_buf: Vec<ScheduledEvent<EngineEvent>>,
    /// Reusable training workspace for deferred tickets `admit_upload`
    /// opens itself, so they don't build a fresh `Scratch` per admitted
    /// upload.
    scratch: Scratch,
    /// Deferred passes [`resolve_run_ahead`] ran ahead of their admission,
    /// keyed by `(client_id, born_round)`; `admit_upload` takes them from
    /// here. Never more than the chunk buffer and the quota have room
    /// for, and empty between rounds.
    parked: BTreeMap<(u64, usize), LocalUpdate>,
    /// Stale uploads discarded since the last KPI reset (one round,
    /// spanning `EmptyRound` retries).
    kpi_stale_discarded: usize,
    /// Uploads lost to drop/partition faults since the last KPI reset.
    kpi_dropped: usize,
    /// Retransmissions scheduled since the last KPI reset.
    kpi_retried: usize,
}

impl AsyncRuntime {
    pub(crate) fn new(config: &BflConfig) -> Self {
        AsyncRuntime {
            queue: EventQueue::new(),
            in_flight: BTreeSet::new(),
            arrived: BTreeMap::new(),
            trace: Vec::new(),
            fault_rng: StdRng::seed_from_u64(config.fl.seed ^ FAULT_STREAM),
            delivered: BTreeMap::new(),
            stranded: Vec::new(),
            fork_healed: false,
            crash_purged: false,
            crash_resynced: false,
            verifier: BatchVerifier::new(),
            drain_buf: Vec::new(),
            scratch: Scratch::new(),
            parked: BTreeMap::new(),
            kpi_stale_discarded: 0,
            kpi_dropped: 0,
            kpi_retried: 0,
        }
    }

    /// Zeroes the per-round KPI counters. Called once per round, before
    /// the first sealing attempt, so counts accumulate across
    /// `EmptyRound` fast-forward retries — matching the trace, which
    /// also keeps every attempt's records.
    fn reset_kpi_counters(&mut self) {
        self.kpi_stale_discarded = 0;
        self.kpi_dropped = 0;
        self.kpi_retried = 0;
    }

    pub(crate) fn trace(&self) -> &[EventRecord] {
        &self.trace
    }

    fn record(
        &mut self,
        time_s: f64,
        round: usize,
        born_round: usize,
        client_id: u64,
        kind: EventKind,
    ) {
        match kind {
            EventKind::StaleDiscarded => self.kpi_stale_discarded += 1,
            EventKind::UploadLost | EventKind::UploadDropped => self.kpi_dropped += 1,
            EventKind::UploadRetried => self.kpi_retried += 1,
            _ => {}
        }
        self.trace.push(EventRecord {
            time_s,
            round,
            born_round,
            client_id,
            kind,
        });
    }
}

/// Executes one flexible-quota round: schedules this round's Procedure-I
/// passes, pumps the event queue until the block quota is reached, and
/// runs Procedures III–V at the quota's simulated time.
pub(crate) fn step_flexible(
    state: &mut LearningState<'_>,
    config: &BflConfig,
    reward_policy: &dyn RewardPolicy,
    round: usize,
    quota: usize,
) -> Result<RoundOutcome, CoreError> {
    let mut rt = state
        .async_rt
        .take()
        .expect("flexible-quota runs hold an async runtime");
    rt.reset_kpi_counters();
    // A heavily churning population can produce an attempt whose every
    // possible arrival was lost or discarded (e.g. all free clients
    // offline while the only in-flight uploads are doomed stale ones),
    // and a harsh partition can strand every upload on the secondary
    // component. That is a stall, not the end of the run: fast-forward
    // the clock to the next rejoin (or past the partition) and try the
    // round again, bounded so a schedule with no future joins still
    // surfaces `EmptyRound`. (Each retry re-runs the round prologue, so
    // cooldowns may tick once per attempt — acceptable for the
    // pathological schedules this covers.)
    let mut attempts = || {
        let mut result = step_flexible_inner(state, &mut rt, config, reward_policy, round, quota);
        for _ in 0..8 {
            if !matches!(result, Err(CoreError::EmptyRound { .. }))
                || !(fast_forward_to_next_join(state, config, &rt)
                    || fast_forward_past_partition(state, config, &rt, round)?)
            {
                break;
            }
            result = step_flexible_inner(state, &mut rt, config, reward_policy, round, quota);
        }
        result
    };
    let result = attempts();
    state.async_rt = Some(rt);
    result
}

/// The next simulated second strictly after `now` at which any
/// non-cooling-down client is online, if one ever will be.
fn next_join_after(state: &LearningState<'_>, config: &BflConfig, now: f64) -> Option<f64> {
    let next = (0..state.pool.population())
        .filter(|&i| !state.cooldown.contains_key(&(i as u64)))
        .map(|i| {
            config
                .profiles
                .profile_of(i, config.fl.clients)
                .next_online_from(now)
        })
        .fold(f64::INFINITY, f64::min);
    (next.is_finite() && next > now).then_some(next)
}

/// Advances the clock to the next rejoin (see [`next_join_after`]).
/// Returns `false` when that would not make progress (events still
/// pending, someone already online, or no client ever rejoins). The
/// epsilon absorbs the churn arithmetic's floating-point slack so the
/// rejoining client is online at the new instant.
fn fast_forward_to_next_join(
    state: &mut LearningState<'_>,
    config: &BflConfig,
    rt: &AsyncRuntime,
) -> bool {
    if !rt.queue.is_empty() {
        return false;
    }
    let now = state.clock.now_seconds();
    match next_join_after(state, config, now) {
        Some(next) => {
            // `next` is finite, so the clock stays in range.
            state.clock.advance(next - now + 1e-9);
            true
        }
        None => false,
    }
}

/// Advances the clock past an active partition's heal instant, so a
/// round whose every upload stranded on the secondary component retries
/// after the mesh (and its pool, under `ReorgPolicy::Salvage`) is whole
/// again. Returns `false` when no partition is active or events are
/// still pending.
fn fast_forward_past_partition(
    state: &mut LearningState<'_>,
    config: &BflConfig,
    rt: &AsyncRuntime,
    round: usize,
) -> Result<bool, CoreError> {
    if !rt.queue.is_empty() || rt.fork_healed {
        return Ok(false);
    }
    let now = state.clock.now_seconds();
    match config.fault.partition {
        Some(p) if p.is_active(now) => {
            advance_clock(&mut state.clock, p.end_s() - now + 1e-9, round).map(|()| true)
        }
        _ => Ok(false),
    }
}

/// The round prologue's fault bookkeeping: wipes the crashed miner's
/// pending pool at the crash instant, heals the partition fork once its
/// window has passed (charging the `ForkModel` resolution cost and
/// applying the reorg policy to the stranded uploads), and resynchronises
/// a recovered miner's replica. Returns the `T_fork` seconds charged to
/// this round. A no-op (zero draws, zero clock movement) when the fault
/// plan is inactive.
fn fault_prologue(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
) -> Result<f64, CoreError> {
    if !config.fault.is_active() {
        return Ok(0.0);
    }
    let now = state.clock.now_seconds();
    purge_crashed_pending(rt, config, round, now);

    let mut t_fork = 0.0;
    if let Some(partition) = config.fault.partition {
        if !rt.fork_healed && now >= partition.end_s() && state.consensus.is_some() {
            rt.fork_healed = true;
            let consensus = state.consensus.as_mut().expect("checked above");
            if consensus.agreed_height().is_none() {
                let orphans = consensus.heal();
                let fork = &config.delay.fork;
                t_fork =
                    fork.resolution_overhead_s + fork.propagation_delay_s * orphans.len() as f64;
                advance_clock(&mut state.clock, t_fork, round)?;
                rt.record(now, round, round, u64::MAX, EventKind::ForkHealed);
            }
            salvage_stranded(state, rt, config, round);
        }
    }

    if let Some(crash) = config.fault.crash {
        let partition_live = config
            .fault
            .partition
            .is_some_and(|p| p.is_active(now) && !rt.fork_healed);
        if !rt.crash_resynced && now >= crash.recover_at_s() && !partition_live {
            rt.crash_resynced = true;
            // The rebooted miner pulls the canonical chain from the
            // surviving miners; no orphans, it was strictly behind.
            if let Some(consensus) = state.consensus.as_mut() {
                consensus.heal();
            }
        }
    }
    Ok(t_fork)
}

/// The crash instant: every upload pending at the crashed miner vanishes
/// from the pool (and from the delivery ledger, so a redundant copy or a
/// retransmission may still save it).
fn purge_crashed_pending(rt: &mut AsyncRuntime, config: &BflConfig, round: usize, now: f64) {
    let Some(crash) = config.fault.crash else {
        return;
    };
    if rt.crash_purged || now < crash.crash_at_s {
        return;
    }
    rt.crash_purged = true;
    let victims: Vec<u64> = rt
        .arrived
        .iter()
        .filter(|(_, a)| a.upload.miner == crash.miner)
        .map(|(&id, _)| id)
        .collect();
    for id in victims {
        let lost = rt.arrived.remove(&id).expect("victim is pending");
        rt.delivered.remove(&id);
        rt.record(
            crash.crash_at_s,
            round,
            lost.born_round,
            id,
            EventKind::UploadLost,
        );
    }
}

/// Applies the reorg policy to the uploads stranded on the healed
/// partition's losing side: `Salvage` re-admits them to the winning
/// branch's pool through the staleness policy (they are by definition at
/// least one round old), `Discard` wastes their training work.
fn salvage_stranded(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
) {
    let stranded = std::mem::take(&mut rt.stranded);
    if stranded.is_empty() {
        return;
    }
    let now = state.clock.now_seconds();
    for StrandedUpload { upload, miner } in stranded {
        let (id, born_round) = (upload.client_id(), upload.born_round);
        if config.reorg == ReorgPolicy::Discard {
            rt.record(now, round, born_round, id, EventKind::StaleDiscarded);
            continue;
        }
        // A stranded upload was never delivered — stranding happens
        // *instead of* delivery — so the client's high-water mark says
        // nothing about it even when fresher rounds delivered meanwhile.
        // The only real collision is an upload by the same client already
        // awaiting this round's seal.
        if rt.arrived.contains_key(&id) {
            rt.record(now, round, born_round, id, EventKind::DuplicateIgnored);
            continue;
        }
        let kind = admit_upload(state, rt, config, round, upload, miner, None);
        if matches!(
            kind,
            EventKind::UploadArrived | EventKind::StaleIncluded | EventKind::StaleDiscarded
        ) {
            // Never lower the high-water mark: the client may have
            // delivered fresher rounds while this upload sat stranded.
            let mark = rt.delivered.entry(id).or_insert(born_round);
            *mark = (*mark).max(born_round);
        }
        rt.record(now, round, born_round, id, kind);
    }
}

/// The replica indices of one mesh component that can seal together right
/// now: alive (not mid-crash), on `component`'s side of an active
/// partition, and on the component's longest tip (a just-recovered miner
/// lags until the next heal and must not co-sign a block it cannot
/// append). Falls back to the full mesh if every primary miner is down,
/// rather than deadlocking the round.
fn sealing_members(
    consensus: &RoundConsensus,
    config: &BflConfig,
    now: f64,
    component: usize,
) -> Vec<usize> {
    let down = config
        .fault
        .crash
        .filter(|c| c.is_down(now))
        .map(|c| c.miner);
    let candidates: Vec<usize> = (0..consensus.miner_count())
        .filter(|&m| Some(m) != down)
        .filter(|&m| match config.fault.partition {
            Some(p) if p.is_active(now) => p.component_of(m) == component,
            _ => component == 0,
        })
        .collect();
    if candidates.is_empty() {
        if component != 0 {
            return Vec::new();
        }
        let all: Vec<usize> = (0..consensus.miner_count()).collect();
        return agreeing_subset(consensus, &all);
    }
    agreeing_subset(consensus, &candidates)
}

/// The subset of `candidates` sharing the longest tip among them (ties
/// toward the lowest index, deterministically).
fn agreeing_subset(consensus: &RoundConsensus, candidates: &[usize]) -> Vec<usize> {
    let leader = candidates
        .iter()
        .copied()
        .max_by_key(|&i| (consensus.replicas[i].height(), std::cmp::Reverse(i)))
        .expect("candidates is non-empty");
    let tip = consensus.replicas[leader].tip().hash();
    candidates
        .iter()
        .copied()
        .filter(|&i| consensus.replicas[i].tip().hash() == tip)
        .collect()
}

fn step_flexible_inner(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    reward_policy: &dyn RewardPolicy,
    round: usize,
    quota: usize,
) -> Result<RoundOutcome, CoreError> {
    // Cooldowns advance exactly as in the synchronous engine.
    state.advance_cooldowns();

    // Fault bookkeeping precedes selection: a heal both advances the
    // clock (the fork resolution cost) and, under `Salvage`, seeds this
    // round's pool with the rescued uploads.
    let t_fork = fault_prologue(state, rt, config, round)?;

    // Select this round's participants among clients that are not cooling
    // down, not still busy with an earlier round's work, and online at the
    // round's start (the churn schedule's dynamic-join property). When
    // churn has taken every selectable client offline and nothing is in
    // flight, the round fast-forwards the clock to the next rejoin
    // instead of aborting — the system waits for someone to join.
    let mut round_start = state.clock.now_seconds();
    let count = config.fl.selected_per_round();
    let select = |state: &mut LearningState<'_>, rt: &AsyncRuntime, now: f64| {
        let LearningState {
            pool,
            cooldown,
            rng,
            ..
        } = state;
        pool.select(
            count,
            |i| {
                let id = i as u64;
                !cooldown.contains_key(&id)
                    && !rt.in_flight.contains(&id)
                    && !rt.arrived.contains_key(&id)
                    && config
                        .profiles
                        .profile_of(i, config.fl.clients)
                        .is_online(now)
            },
            rng,
        )
    };
    let mut picked = select(state, rt, round_start);
    if picked.is_empty() && rt.in_flight.is_empty() && fast_forward_to_next_join(state, config, rt)
    {
        round_start = state.clock.now_seconds();
        picked = select(state, rt, round_start);
    }
    let selected_positions = drop_stragglers(&picked, config.fl.drop_percent, &mut state.rng);

    // Designation drives Procedure-I's forging; the outcome's attacker
    // list is rebuilt later from the uploads that entered the block, so
    // stale attackers land in the round they were actually judged in.
    let (attacks, _designated) = state.designate_attackers(config, &selected_positions);

    // Procedure-I. Every commissioned pass *finishes* at its client's
    // profile-scaled simulated time — that is what the events model.
    let commission = |state: &LearningState<'_>,
                      rt: &mut AsyncRuntime,
                      position: usize,
                      ticket: UploadTicket| {
        let id = position as u64;
        let t_local = config.delay.t_local(state.local_steps(position));
        let profile = config.profiles.profile_of(position, config.fl.clients);
        let finish = round_start + profile.training_seconds(t_local);
        rt.record(round_start, round, round, id, EventKind::TrainingScheduled);
        rt.in_flight.insert(id);
        rt.queue
            .try_push(
                finish,
                EngineEvent::TrainingFinished(InFlightUpload {
                    ticket,
                    born_round: round,
                    train_finished_s: finish,
                    attempt: 1,
                }),
            )
            .map_err(time_overflow(round))
    };
    if config.aggregation.is_streaming() {
        // Each pass is deferred into its ticket and runs just before its
        // admission, against this round's parameter snapshot, so in-flight
        // state is O(1) per client.
        let snapshot = Arc::new(state.global_params.clone());
        let born_seed = round_seed(config, round);
        for (&position, &attack) in selected_positions.iter().zip(&attacks) {
            let ticket = UploadTicket::Deferred(Commission {
                client_id: position as u64,
                attack,
                born_seed,
                snapshot: Arc::clone(&snapshot),
            });
            commission(state, rt, position, ticket)?;
        }
    } else {
        // The passes are computed eagerly (their *content* is a pure
        // function of the round seed), and Procedure-II's client half
        // rides the same fan-out: the round's identities are resolved up
        // front (the lazy chain derives or LRU-touches exactly the
        // selection) and every worker signs the update it just trained.
        if let Some(keys) = state.keys.as_mut() {
            let ids: Vec<u64> = selected_positions.iter().map(|&p| p as u64).collect();
            keys.ensure_selected(&ids).map_err(CoreError::from)?;
        }
        let tickets = state.train_selection(
            config,
            round,
            &selected_positions,
            &attacks,
            |update, pair| {
                let signature = pair.map(|pair| sign_update(&update, &pair.private));
                UploadTicket::ready(update, signature)
            },
        );
        for (&position, ticket) in selected_positions.iter().zip(tickets) {
            commission(state, rt, position, ticket)?;
        }
    }

    // The flexible block quota: K uploads seal the block, capped at what
    // can still possibly arrive so a small round cannot deadlock. A round
    // seeded by salvaged uploads may seal on them alone.
    let target = quota.min(rt.in_flight.len());
    if target == 0 && rt.arrived.is_empty() {
        return Err(CoreError::EmptyRound { round });
    }

    // The round's one Procedure-IV fold: what it has absorbed counts
    // toward the quota even though `rt.arrived` no longer holds it.
    let mut fold = RoundFold::new(config, round, round_start, state.global_params.len());

    // Pump the queue until the quota is reached (or nothing is left in
    // flight — churn losses, drops and rejections can shrink a round, and
    // the fault deadline cuts the wait short).
    let deadline = (config.fault.deadline_s > 0.0).then_some(round_start + config.fault.deadline_s);
    let stranded_mark = rt.stranded.len();
    let mut quota_time = round_start;
    let mut deadline_hit = false;
    // One event at a time, in `(time, seq)` order: the quota and the
    // deadline are checked before each pop, and whatever the round seals
    // without simply stays queued.
    loop {
        let pending = fold.pending(rt);
        if pending >= target {
            break;
        }
        let Some(time) = rt.queue.peek_time() else {
            break;
        };
        if deadline.is_some_and(|deadline| time > deadline) && pending > 0 {
            deadline_hit = true;
            break;
        }
        let event = rt.queue.pop().expect("peeked");
        // A crash mid-pump wipes the victim miner's pending pool.
        purge_crashed_pending(rt, config, round, time);
        match event.payload {
            EngineEvent::TrainingFinished(upload) => {
                let (id, born_round) = (upload.client_id(), upload.born_round);
                rt.record(time, round, born_round, id, EventKind::TrainingFinished);
                send_upload(state, rt, config, round, time, upload)?;
            }
            EngineEvent::RetryTimer(upload) => {
                let (id, born_round) = (upload.client_id(), upload.born_round);
                rt.record(time, round, born_round, id, EventKind::UploadRetried);
                send_upload(state, rt, config, round, time, upload)?;
            }
            EngineEvent::UploadArrived {
                upload,
                miner,
                corrupt,
                retry_pending,
            } => {
                let (id, born_round) = (upload.client_id(), upload.born_round);
                if !retry_pending {
                    rt.in_flight.remove(&id);
                }
                // A client that churned offline mid-flight loses its
                // upload (and retransmits once back online, when the
                // policy allows).
                let profile = config.profiles.profile_of(id as usize, config.fl.clients);
                if !profile.is_online(time) {
                    rt.record(time, round, born_round, id, EventKind::UploadLost);
                    if !retry_pending {
                        let earliest = profile.next_online_from(time);
                        if earliest.is_finite()
                            && schedule_retry(rt, config, round, time, upload, earliest)?
                        {
                            rt.in_flight.insert(id);
                        }
                    }
                    continue;
                }
                // Partition: an upload landing on the secondary component
                // is verified there but stranded off the primary pool
                // until the mesh heals.
                let stranded_here = state.consensus.is_some()
                    && config
                        .fault
                        .partition
                        .is_some_and(|p| p.is_active(time) && p.component_of(miner) == 1);
                if stranded_here {
                    if corrupt.is_some() && state.keys.is_some() {
                        // The secondary miner checks signatures too.
                        rt.record(time, round, born_round, id, EventKind::UploadRejected);
                    } else {
                        rt.record(time, round, born_round, id, EventKind::UploadStranded);
                        rt.stranded.push(StrandedUpload { upload, miner });
                    }
                    continue;
                }
                // Redundant deliveries (duplicate fault, or a
                // retransmission racing its original) are squashed by the
                // per-commission delivery ledger.
                if rt.delivered.get(&id).is_some_and(|&r| r >= born_round)
                    || rt.arrived.contains_key(&id)
                {
                    rt.record(time, round, born_round, id, EventKind::DuplicateIgnored);
                    continue;
                }
                // A deferred ticket about to be opened brings the deferred
                // arrivals queued right behind it along, as far as the
                // chunk buffer and the quota have room.
                let room = (fold.chunk - rt.arrived.len()).min(target - pending);
                resolve_run_ahead(state, rt, config, round, room, &upload);
                let kind = admit_upload(state, rt, config, round, upload, miner, corrupt);
                rt.record(time, round, born_round, id, kind);
                match kind {
                    EventKind::UploadArrived | EventKind::StaleIncluded => {
                        rt.delivered.insert(id, born_round);
                        quota_time = time;
                    }
                    EventKind::StaleDiscarded => {
                        rt.delivered.insert(id, born_round);
                    }
                    _ => {}
                }
                // Streaming: a full chunk is absorbed into the running
                // sum immediately, keeping the pending pool bounded by the
                // chunk size. A materialized chunk is never full.
                if rt.arrived.len() >= fold.chunk {
                    let chunk = fold.drain(rt);
                    fold.absorb(chunk, config);
                }
            }
        }
    }
    // Passes resolved ahead for arrivals this round did not admit are
    // dropped, never carried: their tickets (if still queued) stay
    // deferred and resolve again, identically, when they do arrive.
    rt.parked.clear();

    let pending = fold.pending(rt);
    if pending == 0 {
        return Err(CoreError::EmptyRound { round });
    }
    // Only record the quota as *reached* when it actually was: churn
    // losses and rejections can drain the queue short, in which case the
    // round seals with what arrived but the trace must not claim K.
    if pending >= target {
        rt.record(quota_time, round, round, u64::MAX, EventKind::QuotaReached);
    } else if deadline_hit {
        let expired = deadline.expect("deadline_hit implies a deadline");
        rt.record(expired, round, round, u64::MAX, EventKind::DeadlineSealed);
    }

    // KPI snapshot, taken before sealing drains the buffer: how many
    // uploads were pending at the instant the quota (or deadline) fired.
    // The streaming path reports its un-flushed tail, which is the whole
    // buffer it keeps.
    let mempool_depth_at_seal = rt.arrived.len();

    // Procedure-IV at the quota's simulated time, under the scenario's
    // anchor and reward policies.
    let (mut sealed, max_own_finish) = fold.seal(rt, config, reward_policy);
    state.adopt(&mut sealed);

    // The round's delay breakdown, read off the event clock: the wait for
    // the quota decomposes into the slowest counted own-round local pass
    // (T_local) and the remaining upload tail (T_up); exchange,
    // aggregation and mining costs come from the delay model as in the
    // synchronous engine.
    let wait = (quota_time - round_start).max(0.0);
    let t_local = max_own_finish.clamp(0.0, wait);
    let full = config.mode == FlexibilityMode::FullBfl;
    let t_ex = if full {
        config
            .delay
            .t_ex(sealed.participants, config.miners, &mut state.rng)
    } else {
        0.0
    };
    let t_gl = if full {
        config.delay.t_gl(sealed.participants + 1)
    } else {
        config.delay.aggregation_seconds
    };

    // Procedure-V: the winning miner seals the block at the quota time
    // (plus exchange and aggregation), while late events stay queued.
    // Under a partition or crash only the reachable component seals —
    // and while the mesh is split, the secondary component seals its own
    // block over the uploads stranded on its side, growing the divergent
    // branch the heal will have to resolve.
    advance_clock(&mut state.clock, wait + t_ex + t_gl, round)?;
    let block_hash = if let Some(consensus) = state.consensus.as_mut() {
        let seal_s = state.clock.now_seconds();
        let outcome = if config.fault.partition.is_none() && config.fault.crash.is_none() {
            mining::mine_round(
                consensus,
                round as u64,
                &state.global_params,
                &sealed.rewards,
                state.clock.now_millis(),
                &mut state.rng,
            )?
        } else {
            let members = sealing_members(consensus, config, seal_s, 0);
            mining::mine_round_among(
                consensus,
                &members,
                round as u64,
                &state.global_params,
                &sealed.rewards,
                state.clock.now_millis(),
                &mut state.rng,
            )?
        };
        if let Some(partition) = config.fault.partition {
            let fresh = &rt.stranded[stranded_mark.min(rt.stranded.len())..];
            if partition.is_active(seal_s) && !fresh.is_empty() {
                let secondary = sealing_members(consensus, config, seal_s, 1);
                if !secondary.is_empty() {
                    // The secondary component aggregates what it has —
                    // the stranded uploads — and seals its own block.
                    let refs: Vec<&[f64]> = fresh
                        .iter()
                        .map(|s| match &s.upload.ticket {
                            UploadTicket::Ready(sent) => sent.update.params.as_slice(),
                            UploadTicket::Deferred(_) => {
                                unreachable!("streaming aggregation rejects partition plans")
                            }
                        })
                        .collect();
                    let branch_params = gradient::average_refs(&refs);
                    let submitter = consensus.miners[secondary[0]].id;
                    let txs = mining::build_block_transactions(
                        submitter,
                        round as u64,
                        &branch_params,
                        &[],
                    );
                    consensus
                        .seal_round_among(&secondary, txs, state.clock.now_millis(), &mut state.rng)
                        .map_err(CoreError::from)?;
                }
            }
        }
        Some(outcome.block.hash_hex())
    } else {
        None
    };
    let t_bl = if full {
        config.delay.t_bl(config.miners, &mut state.rng)
    } else {
        0.0
    };
    advance_clock(&mut state.clock, t_bl, round)?;

    state.apply_discard_cooldowns(config, &sealed.dropped);

    let breakdown = DelayBreakdown {
        t_local,
        t_up: wait - t_local,
        t_ex,
        t_gl,
        t_bl,
        t_queue: 0.0,
        t_fork,
    };

    let kpi = KpiRow {
        mempool_depth_at_seal,
        stale_discarded: rt.kpi_stale_discarded,
        dropped_uploads: rt.kpi_dropped,
        retried_uploads: rt.kpi_retried,
        ..KpiRow::default()
    };
    Ok(state.finish_round(round, sealed, breakdown, block_hash, kpi))
}

/// A flexible round's one Procedure-IV fold. Uploads enter it as they
/// leave the pending pool, and it tallies them: the admitted count the
/// quota reads, the stale count, the slowest own-round pass, the loss sum
/// and the forged ids.
///
/// [`AggregationMode`] decides only where Algorithm 2 runs. A materialized
/// round is one committee, analysed by `compute_global_update` at the
/// seal. A streaming round runs it on each full chunk as its own committee
/// and folds the kept uploads into one running `Σ wᵢ·uᵢ / Σ wᵢ` — w = θ
/// under fair aggregation (Equation 1, the composition the mean anchor
/// admits, which is why validation requires it), 1 under plain averaging
/// — so it never holds more than one chunk of gradients. Rewards settle
/// once, at [`RoundFold::seal`], over the concatenated θ scores: the
/// proportional policy normalizes per call.
struct RoundFold {
    round: usize,
    round_start: f64,
    /// Uploads per committee: the streaming chunk, or `usize::MAX` for a
    /// materialized round, whose pool never fills before the seal.
    chunk: usize,
    /// Uploads drained from the pool so far (they count toward the quota).
    admitted: usize,
    stale_included: usize,
    max_own_finish: f64,
    /// The round record averages the losses of the passes that entered
    /// the block, so a stale-heavy round reports its real training loss.
    loss_sum: f64,
    /// The detection row's ground truth: forged uploads in this block (a
    /// stale attacker counts in the round whose block it entered).
    forged: Vec<u64>,
    /// Σ wᵢ·uᵢ over kept uploads (streaming only; empty when
    /// materialized).
    weighted_sum: Vec<f64>,
    /// Σ wᵢ over kept uploads (streaming only).
    weight_sum: f64,
    /// Concatenated (id, θ) high-contribution pairs across chunks.
    scores: Vec<(u64, f64)>,
    /// Concatenated low-contribution ids across chunks.
    low: Vec<u64>,
}

impl RoundFold {
    fn new(config: &BflConfig, round: usize, round_start: f64, dim: usize) -> Self {
        let (chunk, dim) = match config.aggregation {
            AggregationMode::Streaming { chunk } => (chunk, dim),
            AggregationMode::Materialized => (usize::MAX, 0),
        };
        RoundFold {
            round,
            round_start,
            chunk,
            admitted: 0,
            stale_included: 0,
            max_own_finish: 0.0,
            loss_sum: 0.0,
            forged: Vec::new(),
            weighted_sum: vec![0.0; dim],
            weight_sum: 0.0,
            scores: Vec::new(),
            low: Vec::new(),
        }
    }

    /// Uploads the round holds: the pending pool plus what it has drained.
    fn pending(&self, rt: &AsyncRuntime) -> usize {
        rt.arrived.len() + self.admitted
    }

    /// Drains the pending pool into the round's tally and returns its
    /// uploads, ordered by client id.
    fn drain(&mut self, rt: &mut AsyncRuntime) -> Vec<VerifiedUpload> {
        let pool = std::mem::take(&mut rt.arrived);
        self.admitted += pool.len();
        self.stale_included += pool.values().filter(|a| a.born_round < self.round).count();
        self.max_own_finish = pool
            .values()
            .filter(|a| a.born_round == self.round)
            .map(|a| a.train_finished_s - self.round_start)
            .fold(self.max_own_finish, f64::max);
        self.loss_sum += pool.values().map(|a| a.final_epoch_loss).sum::<f64>();
        let uploads: Vec<VerifiedUpload> = pool.into_values().map(|a| a.upload).collect();
        self.forged
            .extend(uploads.iter().filter(|u| u.forged).map(|u| u.client_id));
        uploads
    }

    /// Streaming: absorbs one chunk committee into the running sum.
    fn absorb(&mut self, uploads: Vec<VerifiedUpload>, config: &BflConfig) {
        if uploads.is_empty() {
            return;
        }
        let refs: Vec<(u64, &[f64])> = uploads
            .iter()
            .map(|u| (u.client_id, u.params.as_slice()))
            .collect();
        let analysis =
            analyze_contributions(&refs, &config.clustering, config.metric, config.anchor);
        let discards = config.strategy.discards();
        for ((_, params), theta) in refs.iter().zip(&analysis.theta_by_upload) {
            // Kept-but-low uploads (the keep strategy) weigh in at the
            // floor, mirroring `compute_global_update`.
            let weight = match theta {
                None if discards => continue,
                _ if !config.fair_aggregation => 1.0,
                Some(theta) => *theta,
                None => WEIGHT_FLOOR,
            };
            for (acc, &v) in self.weighted_sum.iter_mut().zip(*params) {
                *acc += weight * v;
            }
            self.weight_sum += weight;
        }
        self.scores.extend(analysis.high_contribution);
        if discards {
            self.low.extend(analysis.low_contribution);
        }
    }

    /// Settles the round over what the pool still holds. Returns the
    /// hand-off with, beside it, the slowest counted own-round local pass
    /// (the event clock's `T_local`).
    fn seal(
        mut self,
        rt: &mut AsyncRuntime,
        config: &BflConfig,
        reward_policy: &dyn RewardPolicy,
    ) -> (SealedRound, f64) {
        let uploads = self.drain(rt);
        let train_loss = self.loss_sum / self.admitted as f64;
        let sealed = if config.aggregation.is_streaming() {
            // The final partial chunk; then rewards are paid exactly once
            // over the concatenated θ scores, sorted by client id (the
            // materialized order).
            self.absorb(uploads, config);
            self.scores.sort_unstable_by_key(|entry| entry.0);
            self.low.sort_unstable();
            self.forged.sort_unstable();
            SealedRound {
                participants: self.admitted,
                stale_included: self.stale_included,
                train_loss,
                global_params: self
                    .weighted_sum
                    .iter()
                    .map(|&v| v / self.weight_sum)
                    .collect(),
                rewards: reward_policy.round_rewards(self.round, &self.scores),
                high_contributors: self.scores.len(),
                attackers: self.forged,
                dropped: self.low,
            }
        } else {
            let policy = GlobalUpdatePolicy::for_round(config, self.round, reward_policy);
            let global = global_update::compute_global_update(&uploads, &policy);
            let (participants, stale) = (self.admitted, self.stale_included);
            SealedRound::from_global_update(global, participants, stale, train_loss, self.forged)
        };
        (sealed, self.max_own_finish)
    }
}

/// Procedure-II's send step: topology-driven miner association, uplink
/// latency, and — only while the fault plan's link window is active —
/// the drop/corrupt/duplicate coin-flips from the dedicated fault
/// stream. A fault-free send performs exactly the draws of the PR 5
/// engine (one association, one latency sample) and schedules exactly
/// one arrival.
fn send_upload(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    time: f64,
    upload: InFlightUpload,
) -> Result<(), CoreError> {
    let (id, born_round) = (upload.client_id(), upload.born_round);
    let miner = state.topology.associate_one(&mut state.rng);
    let transfer = config.delay.gradient_bytes as f64 / config.delay.uplink.bandwidth_bytes_per_s;
    let latency = config
        .profiles
        .profile_of(id as usize, config.fl.clients)
        .uplink
        .sample(&mut state.rng);
    let arrival = time + latency + transfer + config.delay.upload_processing_s;

    let faults = &config.fault.uplink;
    let mut dropped = false;
    let mut corrupt = None;
    let mut duplicated = false;
    if faults.is_active() && faults.window.contains(time) {
        if faults.drop_rate > 0.0 {
            dropped = rt.fault_rng.gen::<f64>() < faults.drop_rate;
        }
        if !dropped && faults.corrupt_rate > 0.0 && rt.fault_rng.gen::<f64>() < faults.corrupt_rate
        {
            let index_seed = rt.fault_rng.gen::<u64>();
            let mask = rt.fault_rng.gen_range(1..=255u8);
            corrupt = Some((
                index_seed,
                NonZeroU8::new(mask).expect("drawn from 1..=255"),
            ));
        }
        if !dropped && faults.duplicate_rate > 0.0 {
            duplicated = rt.fault_rng.gen::<f64>() < faults.duplicate_rate;
        }
    }
    // A miner that is down when the upload would land swallows it whole.
    let swallowed = config
        .fault
        .crash
        .is_some_and(|c| c.miner == miner && c.is_down(arrival));

    if dropped || swallowed {
        rt.record(time, round, born_round, id, EventKind::UploadDropped);
        if !schedule_retry(rt, config, round, time, upload, time)? {
            rt.in_flight.remove(&id);
        }
        return Ok(());
    }

    // A corrupted upload is certain to be rejected at the miner, so the
    // client's retransmission timer (when the policy grants one) is
    // armed at send time — the timeout models the missing receipt.
    let certain_reject = corrupt.is_some() && state.keys.is_some();
    let retry_pending =
        certain_reject && schedule_retry(rt, config, round, time, upload.clone(), time)?;

    if duplicated {
        // The duplicate is an independent network copy arriving one
        // store-and-forward later; corruption strikes per copy, so the
        // clone arrives clean.
        rt.queue
            .try_push(
                arrival + transfer + config.delay.upload_processing_s,
                EngineEvent::UploadArrived {
                    upload: upload.clone(),
                    miner,
                    corrupt: None,
                    retry_pending,
                },
            )
            .map_err(time_overflow(round))?;
    }
    rt.queue
        .try_push(
            arrival,
            EngineEvent::UploadArrived {
                upload,
                miner,
                corrupt,
                retry_pending,
            },
        )
        .map_err(time_overflow(round))?;
    Ok(())
}

/// Arms the client-side retransmission timer for `upload`'s failed send
/// attempt. Returns `false` when the retry policy grants no further
/// attempt. The resend fires no earlier than `earliest` (a churned client
/// waits for its next online window).
fn schedule_retry(
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    now: f64,
    upload: InFlightUpload,
    earliest: f64,
) -> Result<bool, CoreError> {
    let jitter01 = match config.retry {
        RetryPolicy::Backoff { jitter_s, .. } if jitter_s > 0.0 => rt.fault_rng.gen::<f64>(),
        _ => 0.0,
    };
    match config.retry.backoff_delay(upload.attempt, jitter01) {
        Some(delay) => rt
            .queue
            .try_push(
                (now + delay).max(earliest),
                EngineEvent::RetryTimer(InFlightUpload {
                    attempt: upload.attempt + 1,
                    ..upload
                }),
            )
            .map(|_| true)
            .map_err(time_overflow(round)),
        None => Ok(false),
    }
}

/// The `UploadArrived` handler's admission step — the miner's half of
/// Procedure-II. In order: the staleness verdict when it cannot depend on
/// the payload, opening the ticket, the finite-gradient check, the
/// staleness policy for carried uploads, and signature verification
/// against the registered key (Figure 2) over the payload's serialized
/// form, hashed as it streams from the `f64`s with any in-transit
/// corruption applied. An upload that passes them all is *admitted*: it
/// joins the miners' pending pool, `rt.arrived`, as a decoded
/// [`VerifiedUpload`] (the decayed vector for a carried stale upload) and
/// counts toward the quota — moving the sent parameters out of the ticket
/// when no other copy of it is in flight. Returns the trace kind of the
/// resolution.
///
/// The caller has already squashed redundant deliveries: the pool holds
/// at most one upload per client, and both the pump and the salvage check
/// `rt.arrived` (the pump also the delivery ledger) before admitting.
///
/// A `Ready` ticket arrives with the signature its client made at
/// commission; nothing here touches a private key for it, so a corrupted
/// delivery and its retransmission are checked against one and the same
/// signature. A `Deferred` ticket is opened here: its pass is taken from
/// where [`resolve_run_ahead`] parked it, or run now if none is parked,
/// and its client signs here either way. Where the pass came from is the
/// only thing the run-ahead changes — every check below runs at
/// admission, in admission order, on every ticket.
///
/// A stale upload under `StalenessPolicy::Discard` is dropped before the
/// ticket is opened — no deferred local pass, no hashing — and is
/// `StaleDiscarded` whatever its payload held. Fresh uploads and
/// `DecayedInclude` keep the finite check first.
fn admit_upload(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    upload: InFlightUpload,
    miner: usize,
    corrupt: Option<Corruption>,
) -> EventKind {
    let InFlightUpload {
        ticket,
        born_round,
        train_finished_s,
        ..
    } = upload;
    let age = round - born_round;
    if dropped_unopened(config, round, born_round) {
        return EventKind::StaleDiscarded;
    }

    // A deferred ticket's local pass — a pure function of its commission,
    // so a retransmission or duplicate resolves to the identical update —
    // is either waiting where `resolve_run_ahead` parked it, or runs now.
    let opened = match ticket {
        UploadTicket::Ready(sent) => Opened::Sent(sent),
        UploadTicket::Deferred(commission) => Opened::Trained(
            match rt.parked.remove(&(commission.client_id, born_round)) {
                Some(update) => update,
                None => resolve_deferred(state, &mut rt.scratch, config, &commission),
            },
        ),
    };
    let update = opened.update();
    // A NaN or infinite coordinate would poison the anchor and the
    // aggregate for everyone: the miner refuses the upload outright, as
    // it would a bad signature.
    if !gradient::all_finite(&update.params) {
        return EventKind::UploadRejected;
    }
    let id = update.client_id;
    let forged = update.forged;
    let final_epoch_loss = update.stats.final_epoch_loss;

    let decayed = if age > 0 {
        match config
            .staleness
            .apply(&state.global_params, &update.params, age)
        {
            None => return EventKind::StaleDiscarded,
            Some(decayed) => Some(decayed),
        }
    } else {
        None
    };

    // Miner-side verification of what the client sent and signed — the
    // original upload, hashed where it lies. The unsigned ablation has
    // nothing to verify. Looking the identity up also re-registers a
    // lazily provisioned key the LRU has evicted since the commission, so
    // stale and retried uploads stay verifiable after any amount of
    // eviction.
    if let Some(chain) = state.keys.as_mut() {
        let Some(pair) = chain.signing_pair(id) else {
            return EventKind::UploadRejected;
        };
        let signed_now;
        let signature = match &opened {
            Opened::Sent(sent) => match &sent.signature {
                Some(signature) => signature,
                // Commissioned without an identity: nothing vouches for it.
                None => return EventKind::UploadRejected,
            },
            Opened::Trained(update) => {
                signed_now = sign_update(update, &pair.private);
                &signed_now
            }
        };
        // The corrupt fault flips one byte of the payload in transit; the
        // signature check is the detector. (The unsigned ablation has no
        // detector.)
        let envelope = received_envelope(update, corrupt);
        if chain
            .store()
            .verify_envelope(envelope, signature, &mut rt.verifier)
            .is_err()
        {
            return EventKind::UploadRejected;
        }
    }

    // What the block may aggregate: the decayed vector for carried stale
    // uploads, the sent vector for fresh ones.
    let (params, kind) = match decayed {
        Some(decayed) => (decayed, EventKind::StaleIncluded),
        None => (opened.into_params(), EventKind::UploadArrived),
    };
    let previous = rt.arrived.insert(
        id,
        ArrivedUpload {
            upload: VerifiedUpload {
                client_id: id,
                miner,
                params,
                forged,
            },
            born_round,
            train_finished_s,
            final_epoch_loss,
        },
    );
    debug_assert!(
        previous.is_none(),
        "a client never has two uploads pending at once"
    );
    kind
}

/// A ticket opened at admission: the update it carries.
enum Opened {
    /// A `Ready` ticket's commission, shared with any copy still in
    /// flight.
    Sent(Arc<SentUpdate>),
    /// A deferred ticket's pass, run for this admission (its client signs
    /// it here).
    Trained(LocalUpdate),
}

impl Opened {
    fn update(&self) -> &LocalUpdate {
        match self {
            Opened::Sent(sent) => &sent.update,
            Opened::Trained(update) => update,
        }
    }

    /// The sent parameters, for the pending pool: moved out when no other
    /// copy of the commission is still in flight, copied when one is.
    fn into_params(self) -> Vec<f64> {
        match self {
            Opened::Sent(sent) => match Arc::try_unwrap(sent) {
                Ok(sent) => sent.update.params,
                Err(shared) => shared.update.params.clone(),
            },
            Opened::Trained(update) => update.params,
        }
    }
}

/// The verdict that cannot depend on the payload: an upload commissioned
/// in an earlier round, under a staleness policy that discards whatever a
/// stale upload carries. [`admit_upload`] returns it before opening the
/// ticket, so [`resolve_run_ahead`] runs no pass for such a ticket either.
fn dropped_unopened(config: &BflConfig, round: usize, born_round: usize) -> bool {
    born_round < round && config.staleness.discards_unseen()
}

/// Runs one deferred commission's Procedure-I pass on the event pump: the
/// client (derived, if implicit) trains against the commissioning round's
/// global-parameter snapshot under its designated attack and the born
/// round's seed, reusing the runtime's training workspace. This is [`admit_upload`]'s fallback for a ticket
/// [`resolve_run_ahead`] did not open — a run of one, or an admission
/// outside the pump (a salvage).
fn resolve_deferred(
    state: &mut LearningState<'_>,
    scratch: &mut Scratch,
    config: &BflConfig,
    commission: &Commission,
) -> LocalUpdate {
    let train = state.train;
    let local = state.local_config;
    state
        .pool
        .client(commission.client_id as usize)
        .local_update_as(
            commission.attack,
            config.fl.model,
            &commission.snapshot,
            &train.features,
            &train.labels,
            &local,
            commission.born_seed,
            scratch,
        )
}

/// Local-pass work (samples × epochs × parameters) worth one worker of
/// the run-ahead fan-out: about eight of `pop1m_streaming`'s one-step
/// passes, a few hundred microseconds against the ~11 µs it takes to hand
/// a chunk to a parked `bfl_ml::par` worker and collect it (measured on a
/// 2-vCPU x86-64 VM). Paper-sized passes clear it one apiece.
const MIN_RUN_AHEAD_WORK: usize = 1 << 19;

/// Opens a run of deferred tickets at once, ahead of their admission.
///
/// Called when the pump is about to hand `admit_upload` the deferred
/// arrival `head`. If that ticket will be opened and no pass is parked
/// for it, this walks the deferred `UploadArrived` events that follow it
/// in the queue's `(time_s, seq)` order — each event popped and put
/// straight back with [`EventQueue::reinsert`] so the pop order is
/// untouched — until the first event of any other kind, or until `room`
/// distinct commissions are collected: the caller passes what the arrival buffer and the quota
/// can still take, so parked passes plus buffered uploads never exceed one
/// chunk and no pass is run for a round that cannot admit it. Tickets the
/// staleness policy will drop unopened are skipped; a commission queued
/// twice (a duplicate, a retransmission) is run once. The run's passes
/// then go through one `par_map_with` over clients the pool lends
/// (borrowed when materialized, derived when implicit) and are parked in
/// `rt.parked` under `(client_id, born_round)`, where `admit_upload` finds
/// them.
///
/// Only *where a pass runs* changes. Every event is still popped, checked
/// and recorded by the pump in its original order, and a pass is a pure
/// function of its commission, so the trace, the KPIs and every RNG draw
/// are those of opening each ticket at its admission. A parked pass whose
/// event turns out not to be admitted (a squashed duplicate, a client
/// that churned offline, a seal that came first) is dropped — by the next
/// run, which starts from an empty set, or at the seal — and its ticket,
/// if still queued, stays deferred.
fn resolve_run_ahead(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    room: usize,
    head: &InFlightUpload,
) {
    let (head_born, UploadTicket::Deferred(first)) = (head.born_round, &head.ticket) else {
        return;
    };
    if dropped_unopened(config, round, head_born)
        || rt.parked.contains_key(&(first.client_id, head_born))
    {
        return;
    }
    // Every event of the previous run has been handled by now; what it
    // left parked was not admitted.
    rt.parked.clear();

    let mut run: Vec<(usize, Commission)> = vec![(head_born, first.clone())];
    let mut seen = BTreeSet::from([(first.client_id, head_born)]);
    // Extends the run by one event; `false` once the run is over.
    let mut extend = |event: &EngineEvent| {
        let EngineEvent::UploadArrived {
            upload:
                InFlightUpload {
                    ticket: UploadTicket::Deferred(commission),
                    born_round,
                    ..
                },
            ..
        } = event
        else {
            return false;
        };
        if !dropped_unopened(config, round, *born_round)
            && seen.insert((commission.client_id, *born_round))
        {
            run.push((*born_round, commission.clone()));
        }
        run.len() < room
    };
    if room > 1 {
        while let Some(event) = rt.queue.pop() {
            let more = extend(&event.payload);
            rt.drain_buf.push(event);
            if !more {
                break;
            }
        }
        for event in rt.drain_buf.drain(..) {
            rt.queue.reinsert(event);
        }
    }
    // A run of one is the pass `admit_upload` runs itself, in the
    // runtime's warm workspace.
    if run.len() < 2 {
        return;
    }

    let clients: Vec<Cow<'_, Client>> = run
        .iter()
        .map(|(_, commission)| state.pool.client(commission.client_id as usize))
        .collect();
    let (train, local) = (state.train, &state.local_config);
    let work: usize = clients
        .iter()
        .map(|client| client.sample_count() * local.epochs * state.global_params.len())
        .sum();
    let min_per_thread = MIN_RUN_AHEAD_WORK.div_ceil((work / run.len()).max(1));
    let updates = par::par_map_with(
        &run,
        min_per_thread,
        Scratch::new,
        |scratch, i, (_, commission)| {
            clients[i].local_update_as(
                commission.attack,
                config.fl.model,
                &commission.snapshot,
                &train.features,
                &train.labels,
                local,
                commission.born_seed,
                scratch,
            )
        },
    );
    rt.parked.extend(
        run.iter()
            .zip(updates)
            .map(|((born_round, commission), update)| {
                ((commission.client_id, *born_round), update)
            }),
    );
    debug_assert!(rt.parked.len() <= room, "a run never outgrows its room");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProfileConfig, SyncMode};
    use crate::engine::KeyChain;
    use crate::policy::StalenessPolicy;
    use bfl_crypto::RsaKeyPair;
    use bfl_data::{Dataset, SynthMnist, SynthMnistConfig};
    use bfl_fl::config::PartitionKind;
    use bfl_ml::optimizer::LocalTrainingStats;

    fn dataset() -> (Dataset, Dataset) {
        let generator = SynthMnist::new(SynthMnistConfig {
            train_samples: 120,
            test_samples: 20,
            noise_std: 0.05,
            max_translation: 1.0,
        });
        generator.generate(&mut StdRng::seed_from_u64(99))
    }

    /// Six signed clients (256-bit keys, eager provisioning) on the event
    /// engine, mining, stale uploads carried.
    fn signed_config() -> BflConfig {
        let mut config = BflConfig::small_test(3);
        config.fl.clients = 6;
        config.fl.participation_ratio = 1.0;
        config.fl.partition = PartitionKind::Iid;
        config.sync = SyncMode::FlexibleQuota { quota: 4 };
        config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
        config.validate().unwrap();
        assert!(config.verify_signatures && config.mode.mines());
        config
    }

    /// Round 1's Procedure-I plus the client half of Procedure-II for
    /// `positions`, through the fan-out `step_flexible_inner` commissions
    /// them with.
    fn commission(
        state: &mut LearningState<'_>,
        config: &BflConfig,
        positions: &[usize],
    ) -> Vec<UploadTicket> {
        let attacks = vec![None; positions.len()];
        state.train_selection(config, 1, positions, &attacks, |update, pair| {
            let signature = pair.map(|pair| sign_update(&update, &pair.private));
            UploadTicket::ready(update, signature)
        })
    }

    /// Replaces `id`'s private half with an unrelated key while the miners
    /// keep the public half they registered: from here on, anything signed
    /// for `id` fails verification, so an upload of `id`'s that still
    /// verifies can only carry a signature made before the swap.
    fn swap_private_key(state: &mut LearningState<'_>, id: u64) {
        let Some(KeyChain::Eager { pairs, .. }) = state.keys.as_mut() else {
            panic!("the signed test config provisions eagerly");
        };
        let stranger = RsaKeyPair::generate(&mut StdRng::seed_from_u64(0x57A6), 256).unwrap();
        pairs.insert(id, stranger);
    }

    fn admit(
        state: &mut LearningState<'_>,
        rt: &mut AsyncRuntime,
        config: &BflConfig,
        round: usize,
        born_round: usize,
        ticket: UploadTicket,
        corrupt: Option<Corruption>,
    ) -> EventKind {
        let upload = InFlightUpload {
            ticket,
            born_round,
            train_finished_s: 0.25,
            attempt: 1,
        };
        admit_upload(state, rt, config, round, upload, 0, corrupt)
    }

    #[test]
    fn a_retried_upload_is_checked_against_the_signature_made_at_commission() {
        let (train, test) = dataset();
        let config = signed_config();
        let mut state = LearningState::new(&config, &train, &test).unwrap();
        let mut rt = state.async_rt.take().unwrap();

        // One private-key operation per commission: every ticket leaves
        // the fan-out signed.
        let mut tickets = commission(&mut state, &config, &[0, 1, 2]);
        assert!(tickets.iter().all(|t| matches!(
            t,
            UploadTicket::Ready(sent) if sent.signature.as_ref().is_some_and(|s| !s.is_empty())
        )));
        let (stale, fresh) = (tickets.pop().unwrap(), tickets.pop().unwrap());
        swap_private_key(&mut state, 1);
        swap_private_key(&mut state, 2);
        let params_at = |ticket: &UploadTicket| match ticket {
            UploadTicket::Ready(sent) => sent.update.params.as_ptr(),
            UploadTicket::Deferred(_) => unreachable!(),
        };
        let sent_at = params_at(&fresh);

        // The corrupted delivery fails the miner's check ...
        let copy = fresh.clone();
        assert_eq!(params_at(&copy), sent_at, "a copy shares the update");
        let corrupted = admit(
            &mut state,
            &mut rt,
            &config,
            1,
            1,
            copy,
            Some((12345, NonZeroU8::new(0x20).unwrap())),
        );
        assert_eq!(corrupted, EventKind::UploadRejected);
        assert!(rt.arrived.is_empty());
        // ... and its retransmission passes it, with the signature the
        // client made when it first sent the upload — the last copy, so
        // the pool takes the sent parameters themselves.
        let retried = admit(&mut state, &mut rt, &config, 1, 1, fresh, None);
        assert_eq!(retried, EventKind::UploadArrived);
        assert_eq!(rt.arrived.keys().copied().collect::<Vec<u64>>(), [1]);
        assert_eq!(rt.arrived[&1].upload.params.as_ptr(), sent_at);

        // A carried stale upload verifies the same way: what was signed
        // is what was sent, whatever the block aggregates.
        let carried = admit(&mut state, &mut rt, &config, 2, 1, stale, None);
        assert_eq!(carried, EventKind::StaleIncluded);
        assert_eq!(rt.arrived.keys().copied().collect::<Vec<u64>>(), [1, 2]);
        assert_eq!(rt.arrived[&2].born_round, 1);

        // Admitted while a copy is still in flight, an upload's
        // parameters are copied into the pool and the copy keeps its own.
        let first = tickets.pop().unwrap();
        let in_flight = first.clone();
        let admitted = admit(&mut state, &mut rt, &config, 1, 1, first, None);
        assert_eq!(admitted, EventKind::UploadArrived);
        let UploadTicket::Ready(sent) = &in_flight else {
            unreachable!()
        };
        assert_eq!(rt.arrived[&0].upload.params, sent.update.params);
        assert_ne!(rt.arrived[&0].upload.params.as_ptr(), params_at(&in_flight));
    }

    #[test]
    fn an_upload_without_a_commission_signature_is_rejected() {
        let (train, test) = dataset();
        let config = signed_config();
        let mut state = LearningState::new(&config, &train, &test).unwrap();
        let mut rt = state.async_rt.take().unwrap();

        // Client 3 holds no identity at all: unsigned at commission,
        // unknown at admission.
        let Some(KeyChain::Eager { pairs, .. }) = state.keys.as_mut() else {
            panic!("eager chain");
        };
        pairs.remove(&3);
        let mut tickets = commission(&mut state, &config, &[3, 4]);
        let known = tickets.pop().unwrap();
        let nobody = tickets.pop().unwrap();
        assert!(matches!(&nobody, UploadTicket::Ready(sent) if sent.signature.is_none()));
        assert_eq!(
            admit(&mut state, &mut rt, &config, 1, 1, nobody, None),
            EventKind::UploadRejected
        );

        // Client 4 has one, but its upload arrives bare: the miner never
        // signs on a client's behalf.
        let UploadTicket::Ready(sent) = known else {
            unreachable!()
        };
        assert!(sent.signature.is_some());
        let bare = UploadTicket::ready(sent.update.clone(), None);
        assert_eq!(
            admit(&mut state, &mut rt, &config, 1, 1, bare, None),
            EventKind::UploadRejected
        );
        assert!(rt.arrived.is_empty());
    }

    #[test]
    fn a_stranded_upload_is_salvaged_with_its_commission_signature() {
        let (train, test) = dataset();
        let mut config = signed_config();
        config.reorg = ReorgPolicy::Salvage;
        let mut state = LearningState::new(&config, &train, &test).unwrap();
        let mut rt = state.async_rt.take().unwrap();

        let ticket = commission(&mut state, &config, &[5]).pop().unwrap();
        swap_private_key(&mut state, 5);
        rt.stranded.push(StrandedUpload {
            upload: InFlightUpload {
                ticket,
                born_round: 1,
                train_finished_s: 0.5,
                attempt: 1,
            },
            miner: 1,
        });
        salvage_stranded(&mut state, &mut rt, &config, 2);
        let last = rt.trace.last().expect("the salvage is traced");
        assert_eq!((last.client_id, last.kind), (5, EventKind::StaleIncluded));
        assert_eq!(rt.arrived[&5].born_round, 1);
        assert_eq!(rt.delivered[&5], 1);
    }

    /// Forty implicit, unsigned clients streaming through chunks of six.
    fn streaming_config(staleness: StalenessPolicy) -> BflConfig {
        let mut config = BflConfig::small_test(4);
        config.fl.clients = 40;
        config.fl.participation_ratio = 0.5;
        config.fl.partition = PartitionKind::ImplicitIid {
            samples_per_client: 6,
        };
        config.verify_signatures = false;
        config.sync = SyncMode::FlexibleQuota { quota: 14 };
        config.aggregation = AggregationMode::Streaming { chunk: 6 };
        config.staleness = staleness;
        config.profiles = ProfileConfig {
            straggler_slowdown: 6.0,
            straggler_fraction: 0.25,
            uplink: bfl_net::DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        };
        config.validate().unwrap();
        config
    }

    #[test]
    fn no_pass_stays_parked_across_a_seal() {
        let (train, test) = dataset();
        let config = streaming_config(StalenessPolicy::DecayedInclude { decay: 0.5 });
        let reward = crate::policy::ProportionalReward {
            base: config.reward_base,
        };
        let mut state = LearningState::new(&config, &train, &test).unwrap();
        for round in 1..=config.fl.rounds {
            // (Every walk of the round also ran `resolve_run_ahead`'s own
            // `parked.len() <= room` assertion.)
            let outcome = step_flexible(&mut state, &config, &reward, round, 14).unwrap();
            assert_eq!(outcome.participants, 14);
            let rt = state.async_rt.as_ref().unwrap();
            assert!(rt.parked.is_empty(), "round {round} left a pass parked");
            assert!(
                rt.arrived.is_empty(),
                "round {round} left an upload buffered"
            );
        }
        // Stragglers' tickets are still queued, and still deferred.
        assert!(!state.async_rt.as_ref().unwrap().queue.is_empty());
    }

    /// The walk itself, on a hand-built queue: what it parks, what it
    /// skips, where it stops, and that the queue cannot tell it happened.
    #[test]
    fn a_run_is_resolved_within_its_room_and_the_queue_keeps_its_order() {
        const CHUNK: usize = 6;
        let (train, test) = dataset();
        let config = streaming_config(StalenessPolicy::Discard);
        let mut state = LearningState::new(&config, &train, &test).unwrap();
        let mut rt = state.async_rt.take().unwrap();
        let snapshot = Arc::new(state.global_params.clone());
        let poisoned = Arc::new(vec![f64::NAN; snapshot.len()]);
        let commission = |client_id: u64, snapshot: &Arc<Vec<f64>>| Commission {
            client_id,
            attack: None,
            born_seed: 7,
            snapshot: Arc::clone(snapshot),
        };
        let in_flight = |born_round: usize, commission: Commission| InFlightUpload {
            ticket: UploadTicket::Deferred(commission),
            born_round,
            train_finished_s: 0.5,
            attempt: 1,
        };
        let arrival = |born_round: usize, commission: Commission| EngineEvent::UploadArrived {
            upload: in_flight(born_round, commission),
            miner: 0,
            corrupt: None,
            retry_pending: false,
        };

        // Round 2's queue. One timestamp holds clients 1 and 2, a second
        // copy of 2's ticket, a round-1 ticket `Discard` will drop
        // unopened, client 4 (whose snapshot is poisoned) and 5; clients
        // 6 and 7 arrive later; a `TrainingFinished` ends the run before
        // client 9's arrival.
        for (id, born_round) in [(1, 2), (2, 2), (2, 2), (3, 1), (4, 2), (5, 2)] {
            let source = if id == 4 { &poisoned } else { &snapshot };
            rt.queue
                .push(1.0, arrival(born_round, commission(id, source)));
        }
        rt.queue.push(1.5, arrival(2, commission(6, &snapshot)));
        rt.queue.push(1.5, arrival(2, commission(7, &snapshot)));
        rt.queue.push(
            2.0,
            EngineEvent::TrainingFinished(in_flight(2, commission(8, &snapshot))),
        );
        rt.queue.push(2.5, arrival(2, commission(9, &snapshot)));

        // The pump's position: the head popped and in hand.
        let head = rt.queue.pop().unwrap();
        let EngineEvent::UploadArrived {
            upload: head_upload,
            ..
        } = &head.payload
        else {
            unreachable!()
        };
        let parked_ids = |rt: &AsyncRuntime| rt.parked.keys().map(|k| k.0).collect::<Vec<u64>>();
        let walk = |rt: &mut AsyncRuntime, state: &mut LearningState<'_>, room: usize| {
            resolve_run_ahead(state, rt, &config, 2, room, head_upload);
            assert!(rt.drain_buf.is_empty(), "everything popped went back");
        };

        // Room for three: the duplicate and the stale ticket take none.
        walk(&mut rt, &mut state, 3);
        assert_eq!(parked_ids(&rt), [1, 2, 4]);
        // With its head already parked the walk has nothing to do ...
        walk(&mut rt, &mut state, CHUNK);
        assert_eq!(parked_ids(&rt), [1, 2, 4]);
        // ... and a run of one is left to `admit_upload`.
        rt.parked.clear();
        walk(&mut rt, &mut state, 1);
        assert!(rt.parked.is_empty());
        // A whole chunk's room reaches past the head's timestamp and stops
        // when the chunk is spoken for.
        walk(&mut rt, &mut state, CHUNK);
        assert_eq!(parked_ids(&rt), [1, 2, 4, 5, 6, 7]);
        // More room than run: the `TrainingFinished` ends it, and client
        // 9's arrival behind it is not looked at.
        rt.parked.clear();
        walk(&mut rt, &mut state, 2 * CHUNK);
        assert_eq!(parked_ids(&rt), [1, 2, 4, 5, 6, 7]);

        // The queue pops exactly what it would have popped untouched.
        let rest: Vec<(f64, u64)> = std::iter::from_fn(|| rt.queue.pop())
            .map(|e| (e.time_s, e.seq))
            .collect();
        assert_eq!(
            rest,
            [
                (1.0, 1),
                (1.0, 2),
                (1.0, 3),
                (1.0, 4),
                (1.0, 5),
                (1.5, 6),
                (1.5, 7),
                (2.0, 8),
                (2.5, 9)
            ]
        );

        // Admission takes each pass from where it was parked — the very
        // update the ticket resolves to on its own — and every check still
        // runs on it: the poisoned pass is refused.
        for (id, source) in [(1, &snapshot), (4, &poisoned), (2, &snapshot)] {
            let ticket = commission(id, source);
            let expected = resolve_deferred(&mut state, &mut Scratch::new(), &config, &ticket);
            let before = rt.parked.len();
            let kind = admit(
                &mut state,
                &mut rt,
                &config,
                2,
                2,
                UploadTicket::Deferred(ticket),
                None,
            );
            assert_eq!(rt.parked.len(), before - 1, "client {id}'s pass was taken");
            assert!(rt.parked.len() <= CHUNK - rt.arrived.len());
            if id == 4 {
                assert_eq!(kind, EventKind::UploadRejected);
                assert!(!rt.arrived.contains_key(&4));
            } else {
                assert_eq!(kind, EventKind::UploadArrived);
                assert_eq!(rt.arrived[&id].upload.params, expected.params);
            }
        }
    }

    /// The discard-before-open rule, on the path it saves the most: a
    /// deferred ticket's local pass.
    #[test]
    fn a_stale_upload_under_discard_is_dropped_unopened() {
        let (train, test) = dataset();
        let mut config = BflConfig::small_test(3);
        config.fl.clients = 40;
        config.fl.partition = PartitionKind::ImplicitIid {
            samples_per_client: 6,
        };
        config.verify_signatures = false;
        config.sync = SyncMode::FlexibleQuota { quota: 4 };
        config.aggregation = AggregationMode::Streaming { chunk: 4 };
        config.staleness = StalenessPolicy::Discard;
        config.validate().unwrap();
        let mut state = LearningState::new(&config, &train, &test).unwrap();
        let mut rt = state.async_rt.take().unwrap();
        let grown = |rt: &AsyncRuntime| rt.scratch.grad.capacity() > 0;
        assert!(!grown(&rt), "nothing has trained yet");

        let deferred = |client_id: u64, snapshot: &[f64]| {
            UploadTicket::Deferred(Commission {
                client_id,
                attack: None,
                born_seed: 7,
                snapshot: Arc::new(snapshot.to_vec()),
            })
        };
        let snapshot = state.global_params.clone();
        // Late: discarded without deriving the client or training it.
        let late = admit(
            &mut state,
            &mut rt,
            &config,
            2,
            1,
            deferred(17, &snapshot),
            None,
        );
        assert_eq!(late, EventKind::StaleDiscarded);
        assert!(!grown(&rt), "no local pass ran");
        // On time: the same ticket trains at admission.
        let fresh = admit(
            &mut state,
            &mut rt,
            &config,
            1,
            1,
            deferred(17, &snapshot),
            None,
        );
        assert_eq!(fresh, EventKind::UploadArrived);
        assert!(grown(&rt), "the pass ran in the runtime's workspace");
        // Under a policy that reads the payload, a late ticket is opened.
        config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
        let carried = admit(
            &mut state,
            &mut rt,
            &config,
            2,
            1,
            deferred(18, &snapshot),
            None,
        );
        assert_eq!(carried, EventKind::StaleIncluded);

        // The documented difference: unopened means unchecked, so a late
        // non-finite upload is `StaleDiscarded` under `Discard` and
        // `UploadRejected` everywhere else.
        let poisoned = || {
            let update = LocalUpdate {
                client_id: 19,
                params: vec![f64::NAN; snapshot.len()],
                forged: true,
                stats: LocalTrainingStats {
                    steps: 1,
                    final_epoch_loss: 0.5,
                },
            };
            UploadTicket::ready(update, None)
        };
        let kinds = |config: &BflConfig, state: &mut LearningState<'_>, rt: &mut AsyncRuntime| {
            [2, 1].map(|round| admit(state, rt, config, round, 1, poisoned(), None))
        };
        assert_eq!(
            kinds(&config, &mut state, &mut rt),
            [EventKind::UploadRejected, EventKind::UploadRejected]
        );
        config.staleness = StalenessPolicy::Discard;
        assert_eq!(
            kinds(&config, &mut state, &mut rt),
            [EventKind::StaleDiscarded, EventKind::UploadRejected]
        );
    }
}
