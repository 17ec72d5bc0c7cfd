//! The event-driven round engine: flexible block quotas, stragglers,
//! client churn, and deterministic fault injection on the simulated clock.
//!
//! Under [`SyncMode::FlexibleQuota`](crate::config::SyncMode) Procedures
//! I–V stop executing in lockstep and become *event handlers* on
//! `bfl-net`'s deterministic [`EventQueue`]. A round runs in four phases:
//!
//! 1. **Prologue and selection.** Cooldowns tick, the fault plan's crash
//!    purge and heal run, and Procedure I picks clients that are free and
//!    online — clients leave and rejoin mid-run on their profile's churn
//!    schedule (FAIR-BFL's dynamic-join property).
//! 2. **Commission.** Each pass is trained and signed by its client in one
//!    fan-out (or deferred into its ticket, under streaming aggregation),
//!    and finishes at a time its [`NodeProfile`](bfl_net::NodeProfile)
//!    scales: a `TrainingFinished` event.
//! 3. **Pump.** Events pop one at a time in `(time, seq)` order. A
//!    finished pass or a retransmission timer sends its upload to a miner
//!    of the run's [`Topology`](bfl_net::Topology); an `UploadArrived` is
//!    hashed, verified against the client's registered key (the Figure 2
//!    step) and admitted to the miners' one pending pool — through the
//!    [`StalenessPolicy`](crate::policy::StalenessPolicy) when it is
//!    stale — until the *flexible block quota* `K` has arrived, the
//!    paper's flexible block size. Stragglers beyond the quota keep their
//!    events queued across rounds.
//! 4. **Seal.** Procedures III–V at the quota's simulated time: the
//!    round's one fold runs Algorithm 2 and Equation 1 under the scenario's
//!    anchor and reward policies, and the reachable miners seal one block.
//!    From the Procedure-IV hand-off on, the round is the lockstep
//!    engine's: one `SealedRound`, one `adopt`, one `finish_round`.
//!
//! Every event is appended to a deterministic [`EventRecord`] trace that
//! tests pin: the same scenario and seed produce the identical trace on
//! any machine and under any sweep parallelism. Per-round cost scales
//! with *participants*, not the configured population.

mod delivery;
mod faults;
mod fold;
mod run_ahead;
#[cfg(test)]
mod tests;

use crate::config::BflConfig;
use crate::delay_model::DelayBreakdown;
use crate::engine::{advance_clock, round_seed, time_overflow, LearningState};
use crate::error::CoreError;
use crate::flexibility::FlexibilityMode;
use crate::procedures::mining;
use crate::procedures::upload::{sign_update, Corruption, VerifiedUpload};
use crate::simulation::{KpiRow, RoundOutcome};
use bfl_crypto::{BatchVerifier, RsaKeyPair, Signature};
use bfl_fl::attack::AttackKind;
use bfl_fl::client::LocalUpdate;
use bfl_fl::selection::drop_stragglers;
use bfl_ml::tensor::Scratch;
use bfl_net::{EventQueue, ScheduledEvent};
use delivery::{admit_upload, schedule_retry, send_upload};
use faults::{
    fast_forward_past_partition, fast_forward_to_next_join, fault_prologue, purge_crashed_pending,
    seal_stranded_branch, sealing_members, StrandedUpload,
};
use fold::RoundFold;
use rand::rngs::StdRng;
use rand::SeedableRng;
use run_ahead::resolve_run_ahead;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
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
    /// `None` when signatures are off.
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
    /// The ticket of an update trained at commission, signed there by its
    /// client's `pair` (unsigned without one).
    fn signed(update: LocalUpdate, pair: Option<&RsaKeyPair>) -> Self {
        let signature = pair.map(|pair| sign_update(&update, &pair.private));
        UploadTicket::Ready(Arc::new(SentUpdate { update, signature }))
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
        match &self.ticket {
            UploadTicket::Ready(sent) => sent.update.client_id,
            UploadTicket::Deferred(commission) => commission.client_id,
        }
    }
}

/// Timed payloads flowing through the engine's event queue.
enum EngineEvent {
    /// Procedure-I completion: the client sends its first attempt.
    TrainingFinished(InFlightUpload),
    /// Procedure-II arrival at the associated miner.
    UploadArrived(Delivery),
    /// The client-side retransmission timer for a failed attempt.
    RetryTimer(InFlightUpload),
}

/// One copy of an upload on its way to a miner.
struct Delivery {
    upload: InFlightUpload,
    miner: usize,
    /// In-transit corruption, applied to the serialized payload as the
    /// miner hashes it at admission.
    corrupt: Option<Corruption>,
    /// A retransmission is already armed for this commission, so the
    /// client stays busy regardless of this delivery's outcome.
    retry_pending: bool,
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

/// The event engine's live state, embedded in
/// [`LearningState`] when the scenario runs
/// a flexible block quota.
pub(crate) struct AsyncRuntime {
    queue: EventQueue<EngineEvent>,
    /// Clients with a commissioned pass or in-flight upload.
    in_flight: BTreeSet<u64>,
    /// The miners' pending pool: verified, decoded uploads waiting for the
    /// quota, keyed by client id (a client never has two pending at once,
    /// and the merged set comes out ordered by client id, like the
    /// synchronous engine's). Under streaming aggregation it is the chunk
    /// buffer. It is the only pool there is: under the paper's Assumption 2
    /// a block never carries a local gradient, so no serialized upload is
    /// kept.
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
        let mut result = attempt_round(state, &mut rt, config, round, quota);
        for _ in 0..8 {
            if !matches!(result, Err(CoreError::EmptyRound { .. }))
                || !(fast_forward_to_next_join(state, config, &rt)
                    || fast_forward_past_partition(state, config, &rt, round)?)
            {
                break;
            }
            result = attempt_round(state, &mut rt, config, round, quota);
        }
        result
    };
    let result = attempts();
    state.async_rt = Some(rt);
    result
}

/// One attempt at a round, phase by phase.
fn attempt_round(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    quota: usize,
) -> Result<RoundOutcome, CoreError> {
    let (round_start, t_fork, selected) = prologue(state, rt, config, round)?;
    commission(state, rt, config, round, round_start, &selected)?;
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
    let pumped = pump(state, rt, config, &mut fold, target)?;
    seal(state, rt, config, fold, pumped, t_fork)
}

/// The round's prologue and Procedure-I selection. Cooldowns tick, the
/// fault bookkeeping runs, and the round picks its participants among
/// clients that are not cooling down, not still busy with an earlier
/// round's work, and online at the round's start (the churn schedule's
/// dynamic-join property). When churn has taken every selectable client
/// offline and nothing is in flight, the clock fast-forwards to the next
/// rejoin instead of aborting — the system waits for someone to join.
/// Returns the round's start, the `T_fork` a heal charged, and the
/// selected positions with the stragglers dropped.
fn prologue(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
) -> Result<(f64, f64, Vec<usize>), CoreError> {
    // Cooldowns advance exactly as in the synchronous engine.
    state.advance_cooldowns();

    // Fault bookkeeping precedes selection: a heal both advances the
    // clock (the fork resolution cost) and, under `Salvage`, seeds this
    // round's pool with the rescued uploads.
    let t_fork = fault_prologue(state, rt, config, round)?;

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
    let selected = drop_stragglers(&picked, config.fl.drop_percent, &mut state.rng);
    Ok((round_start, t_fork, selected))
}

/// Procedure I and the client half of Procedure II: designates the
/// round's attackers among `selected` and commissions every pass. Each
/// pass *finishes* at its client's profile-scaled simulated time — that is
/// what the events model.
fn commission(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    round_start: f64,
    selected: &[usize],
) -> Result<(), CoreError> {
    // Designation drives Procedure-I's forging; the outcome's attacker
    // list is rebuilt later from the uploads that entered the block, so
    // stale attackers land in the round they were actually judged in.
    let (attacks, _designated) = state.designate_attackers(config, selected);

    let schedule = |state: &LearningState<'_>,
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
        for (&position, &attack) in selected.iter().zip(&attacks) {
            let ticket = UploadTicket::Deferred(Commission {
                client_id: position as u64,
                attack,
                born_seed,
                snapshot: Arc::clone(&snapshot),
            });
            schedule(state, rt, position, ticket)?;
        }
    } else {
        // The passes are computed eagerly (their *content* is a pure
        // function of the round seed), and Procedure-II's client half
        // rides the same fan-out: the round's identities are resolved up
        // front (the vault derives or LRU-touches exactly the selection)
        // and every worker signs the update it just trained.
        if let Some(keys) = state.keys.as_mut() {
            let ids: Vec<u64> = selected.iter().map(|&p| p as u64).collect();
            keys.ensure(&ids).map_err(CoreError::from)?;
        }
        let tickets =
            state.train_selection(config, round, selected, &attacks, UploadTicket::signed);
        for (&position, ticket) in selected.iter().zip(tickets) {
            schedule(state, rt, position, ticket)?;
        }
    }
    Ok(())
}

/// Where the pump left the round for the seal.
struct Pumped {
    /// When the last upload the quota counts was admitted (the round's
    /// start if none was).
    quota_time: f64,
    /// Index in `rt.stranded` of the first upload this attempt stranded.
    stranded_from: usize,
}

/// Pumps the queue one event at a time, in `(time, seq)` order, until the
/// fold holds `target` uploads, or nothing is left in flight (churn
/// losses, drops and rejections can shrink a round), or the fault
/// deadline cuts the wait short. The quota and the deadline are checked
/// before each pop, and whatever the round seals without simply stays
/// queued. Records how the wait ended.
fn pump(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    fold: &mut RoundFold,
    target: usize,
) -> Result<Pumped, CoreError> {
    let round = fold.round;
    let deadline =
        (config.fault.deadline_s > 0.0).then_some(fold.round_start + config.fault.deadline_s);
    let stranded_from = rt.stranded.len();
    let mut quota_time = fold.round_start;
    let mut deadline_hit = false;
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
        // A finished pass and a retransmission timer both send; they
        // differ only in what the trace records.
        let (kind, upload) = match event.payload {
            EngineEvent::TrainingFinished(upload) => (EventKind::TrainingFinished, upload),
            EngineEvent::RetryTimer(upload) => (EventKind::UploadRetried, upload),
            EngineEvent::UploadArrived(delivery) => {
                if upload_arrived(state, rt, config, fold, target - pending, time, delivery)? {
                    quota_time = time;
                }
                continue;
            }
        };
        rt.record(time, round, upload.born_round, upload.client_id(), kind);
        send_upload(state, rt, config, round, time, upload)?;
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
    Ok(Pumped {
        quota_time,
        stranded_from,
    })
}

/// The `UploadArrived` handler. The client is no longer in flight unless
/// a retransmission is armed; an offline client loses the upload, a
/// partition strands it, the delivery ledger squashes a redundant copy,
/// and anything left is the miner's to admit — after the run-ahead, which
/// `quota_room` (what the quota could still take when the event was
/// popped) bounds. Returns whether the upload counts toward the quota.
fn upload_arrived(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    fold: &mut RoundFold,
    quota_room: usize,
    time: f64,
    delivery: Delivery,
) -> Result<bool, CoreError> {
    let Delivery {
        upload,
        miner,
        corrupt,
        retry_pending,
    } = delivery;
    let round = fold.round;
    let (id, born_round) = (upload.client_id(), upload.born_round);
    if !retry_pending {
        rt.in_flight.remove(&id);
    }
    // A client that churned offline mid-flight loses its upload (and
    // retransmits once back online, when the policy allows).
    let profile = config.profiles.profile_of(id as usize, config.fl.clients);
    if !profile.is_online(time) {
        rt.record(time, round, born_round, id, EventKind::UploadLost);
        if !retry_pending {
            let earliest = profile.next_online_from(time);
            if earliest.is_finite() && schedule_retry(rt, config, round, time, upload, earliest)? {
                rt.in_flight.insert(id);
            }
        }
        return Ok(false);
    }
    // Partition: an upload landing on the secondary component is verified
    // there but stranded off the primary pool until the mesh heals.
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
        return Ok(false);
    }
    // Redundant deliveries (duplicate fault, or a retransmission racing
    // its original) are squashed by the per-commission delivery ledger.
    if rt.delivered.get(&id).is_some_and(|&r| r >= born_round) || rt.arrived.contains_key(&id) {
        rt.record(time, round, born_round, id, EventKind::DuplicateIgnored);
        return Ok(false);
    }
    // A deferred ticket about to be opened brings the deferred arrivals
    // queued right behind it along, as far as the chunk buffer and the
    // quota have room.
    let room = (fold.chunk - rt.arrived.len()).min(quota_room);
    resolve_run_ahead(state, rt, config, round, room, &upload);
    let kind = admit_upload(state, rt, config, round, upload, miner, corrupt);
    rt.record(time, round, born_round, id, kind);
    let counted = matches!(kind, EventKind::UploadArrived | EventKind::StaleIncluded);
    if counted || kind == EventKind::StaleDiscarded {
        rt.delivered.insert(id, born_round);
    }
    // Streaming: a full chunk is absorbed into the running sum
    // immediately, keeping the pending pool bounded by the chunk size. A
    // materialized chunk is never full.
    if rt.arrived.len() >= fold.chunk {
        let chunk = fold.drain(rt);
        fold.absorb(chunk, config);
    }
    Ok(counted)
}

/// Procedures IV–V at the quota's simulated time, and the round's delay
/// breakdown read off the event clock.
fn seal(
    state: &mut LearningState<'_>,
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    fold: RoundFold,
    pumped: Pumped,
    t_fork: f64,
) -> Result<RoundOutcome, CoreError> {
    let (round, round_start) = (fold.round, fold.round_start);
    // KPI snapshot, taken before sealing drains the buffer: how many
    // uploads were pending at the instant the quota (or deadline) fired.
    // The streaming path reports its un-flushed tail, which is the whole
    // buffer it keeps.
    let mempool_depth_at_seal = rt.arrived.len();

    // Procedure-IV under the scenario's anchor, paying the paper's
    // proportional reward.
    let (mut sealed, max_own_finish) = fold.seal(rt, config);
    state.adopt(&mut sealed);

    // The wait for the quota decomposes into the slowest counted
    // own-round local pass (T_local) and the remaining upload tail (T_up);
    // exchange, aggregation and mining costs come from the delay model as
    // in the synchronous engine.
    let wait = (pumped.quota_time - round_start).max(0.0);
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

    // Procedure-V: the miners that can seal together — every miner, in a
    // fault-free run — seal the block at the quota time (plus exchange and
    // aggregation), while late events stay queued. While the mesh is
    // split, the secondary component seals its own branch as well.
    advance_clock(&mut state.clock, wait + t_ex + t_gl, round)?;
    let primary = match state.consensus.as_mut() {
        Some(consensus) => {
            let members = sealing_members(consensus, config, state.clock.now_seconds(), 0);
            Some(mining::mine_round_among(
                consensus,
                &members,
                round as u64,
                &state.global_params,
                &sealed.rewards,
                state.clock.now_millis(),
                &mut state.rng,
            )?)
        }
        None => None,
    };
    seal_stranded_branch(state, config, round, &rt.stranded[pumped.stranded_from..])?;
    let block_hash = primary.map(|outcome| outcome.block.hash_hex());
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
