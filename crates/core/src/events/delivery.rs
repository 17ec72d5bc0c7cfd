//! Procedure II on the event clock: the client's send and retransmission,
//! and the miner's admission of what arrives.

use super::run_ahead::resolve_deferred;
use super::{
    ArrivedUpload, AsyncRuntime, Delivery, EngineEvent, EventKind, InFlightUpload, SentUpdate,
    UploadTicket,
};
use crate::config::BflConfig;
use crate::engine::{time_overflow, LearningState};
use crate::error::CoreError;
use crate::policy::RetryPolicy;
use crate::procedures::upload::{
    finite_verdict, received_envelope, sign_update, Corruption, VerifiedUpload,
};
use bfl_fl::client::LocalUpdate;
use rand::Rng;
use std::num::NonZeroU8;
use std::sync::Arc;

/// Procedure-II's send step: topology-driven miner association, uplink
/// latency, and — only while the fault plan's link window is active —
/// the drop/corrupt/duplicate coin-flips from the dedicated fault
/// stream. A fault-free send draws one association and one latency
/// sample and schedules exactly one arrival.
pub(super) fn send_upload(
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

    let mut deliver = |time_s, upload, corrupt| {
        let delivery = Delivery {
            upload,
            miner,
            corrupt,
            retry_pending,
        };
        rt.queue
            .try_push(time_s, EngineEvent::UploadArrived(delivery))
            .map(|_| ())
            .map_err(time_overflow(round))
    };
    if duplicated {
        // The duplicate is an independent network copy arriving one
        // store-and-forward later; corruption strikes per copy, so the
        // clone arrives clean.
        let later = arrival + transfer + config.delay.upload_processing_s;
        deliver(later, upload.clone(), None)?;
    }
    deliver(arrival, upload, corrupt)
}

/// Arms the client-side retransmission timer for `upload`'s failed send
/// attempt. Returns `false` when the retry policy grants no further
/// attempt. The resend fires no earlier than `earliest` (a churned client
/// waits for its next online window).
pub(super) fn schedule_retry(
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
/// the payload, opening the ticket, the finite-gradient check (read at
/// this same step from the verdict the update's local pass formed,
/// [`LocalUpdate::finite`]), the staleness policy for carried uploads,
/// and signature verification against the registered key (Figure 2) over
/// the payload's serialized form, hashed as it streams from the `f64`s
/// with any in-transit corruption applied. An upload that passes them all is *admitted*: it
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
/// where [`resolve_run_ahead`](super::run_ahead::resolve_run_ahead) parked
/// it, or run now if none is parked, and its client signs here either
/// way. Where the pass came from is the
/// only thing the run-ahead changes — every check below runs at
/// admission, in admission order, on every ticket.
///
/// A stale upload under `StalenessPolicy::Discard` is dropped before the
/// ticket is opened — no deferred local pass, no hashing — and is
/// `StaleDiscarded` whatever its payload held. Fresh uploads and
/// `DecayedInclude` keep the finite check first.
pub(super) fn admit_upload(
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
                None => resolve_deferred(state, config, &commission),
            },
        ),
    };
    let update = opened.update();
    // A NaN or infinite coordinate would poison the anchor and the
    // aggregate for everyone: the miner refuses the upload outright, as
    // it would a bad signature. The pass formed the verdict over what it
    // returned; nothing here scans the upload again.
    if !finite_verdict(update) {
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
    // eviction; only a failed keygen leaves the client without one.
    if let Some(vault) = state.keys.as_mut() {
        let Ok(pair) = vault.pair(id) else {
            return EventKind::UploadRejected;
        };
        let signed_now;
        let signature = match &opened {
            Opened::Sent(sent) => match &sent.signature {
                Some(signature) => signature,
                // Arrived bare: nothing vouches for it.
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
        if vault.store().verify_envelope(envelope, signature).is_err() {
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
/// ticket, so [`resolve_run_ahead`](super::run_ahead::resolve_run_ahead)
/// runs no pass for such a ticket either.
pub(super) fn dropped_unopened(config: &BflConfig, round: usize, born_round: usize) -> bool {
    born_round < round && config.staleness.discards_unseen()
}
