//! Deferred passes, opened a run at a time: the streaming path's
//! Procedure I, run no later than each ticket's admission.

use super::delivery::dropped_unopened;
use super::{AsyncRuntime, Commission, Delivery, EngineEvent, InFlightUpload, UploadTicket};
use crate::config::BflConfig;
use crate::engine::LearningState;
use bfl_data::Dataset;
use bfl_fl::client::{Client, LocalUpdate};
use bfl_ml::model::ModelKind;
use bfl_ml::optimizer::LocalTrainingConfig;
use bfl_ml::par;
use std::borrow::Cow;
use std::collections::BTreeSet;

impl Commission {
    /// The deferred Procedure-I pass: `client` (this commission's, derived
    /// if implicit) trains against the commissioning round's
    /// global-parameter snapshot under its designated attack and the born
    /// round's seed.
    fn pass(
        &self,
        client: &Client,
        model: ModelKind,
        train: &Dataset,
        local: &LocalTrainingConfig,
    ) -> LocalUpdate {
        client.local_update_as(
            self.attack,
            model,
            &self.snapshot,
            &train.features,
            &train.labels,
            local,
            self.born_seed,
        )
    }
}

/// Runs one deferred commission's pass on the event pump:
/// [`admit_upload`](super::delivery::admit_upload)'s fallback for a ticket
/// [`resolve_run_ahead`] did not open — a run of one, or an admission
/// outside the pump (a salvage).
pub(super) fn resolve_deferred(
    state: &LearningState<'_>,
    config: &BflConfig,
    commission: &Commission,
) -> LocalUpdate {
    let client = state.pool.client(commission.client_id as usize);
    commission.pass(&client, config.fl.model, state.train, &state.local_config)
}

/// Local-pass work (samples × epochs × parameters) worth one worker of
/// the run-ahead fan-out: about eight of `pop1m_streaming`'s one-step
/// passes, about 0.10 ms (12.7–12.8 µs a pass on one core when the
/// allocator hands each upload back warm, 27.4–27.5 µs when each upload
/// is kept, as a round keeps them; the finite verdict over the 7,850
/// parameters is about 0.57 µs of it) against the ~11 µs it takes to
/// hand a chunk to a parked `bfl_ml::par` worker and collect it (measured
/// on a 2-vCPU x86-64 VM). Paper-sized passes clear it one apiece.
const MIN_RUN_AHEAD_WORK: usize = 1 << 19;

/// Opens a run of deferred tickets at once, ahead of their admission.
///
/// Called when the pump is about to hand `admit_upload` the deferred
/// arrival `head`. If that ticket will be opened and no pass is parked
/// for it, this walks the deferred `UploadArrived` events that follow it
/// in the queue's `(time_s, seq)` order — each event popped and put
/// straight back with
/// [`EventQueue::reinsert`](bfl_net::EventQueue::reinsert) so the pop
/// order is untouched — until the first event of any other kind, or until
/// `room` distinct commissions are collected: the caller passes what the
/// arrival buffer and the quota can still take, so parked passes plus
/// buffered uploads never exceed one chunk and no pass is run for a round
/// that cannot admit it. Tickets the staleness policy will drop unopened
/// are skipped; a commission queued twice (a duplicate, a retransmission)
/// is run once. The run's passes then go through one `par_map` over
/// clients the pool lends (borrowed when materialized, derived when
/// implicit), each pass in its thread's warm training workspace, and
/// are parked in `rt.parked` under `(client_id, born_round)`, where
/// `admit_upload` finds them.
///
/// Only *where a pass runs* changes. Every event is still popped, checked
/// and recorded by the pump in its original order, and a pass is a pure
/// function of its commission, so the trace, the KPIs and every RNG draw
/// are those of opening each ticket at its admission. A parked pass whose
/// event turns out not to be admitted (a squashed duplicate, a client
/// that churned offline, a seal that came first) is dropped — by the next
/// run, which starts from an empty set, or at the seal — and its ticket,
/// if still queued, stays deferred.
pub(super) fn resolve_run_ahead(
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
        let EngineEvent::UploadArrived(Delivery {
            upload:
                InFlightUpload {
                    ticket: UploadTicket::Deferred(commission),
                    born_round,
                    ..
                },
            ..
        }) = event
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
    // A run of one is the pass `admit_upload` runs itself.
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
    let updates = par::par_map(&run, min_per_thread, |i, (_, commission)| {
        commission.pass(&clients[i], config.fl.model, train, local)
    });
    rt.parked.extend(
        run.iter()
            .zip(updates)
            .map(|((born_round, commission), update)| {
                ((commission.client_id, *born_round), update)
            }),
    );
    debug_assert!(rt.parked.len() <= room, "a run never outgrows its room");
}
