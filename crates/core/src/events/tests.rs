use super::delivery::admit_upload;
use super::faults::{salvage_stranded, StrandedUpload};
use super::run_ahead::{resolve_deferred, resolve_run_ahead};
use super::*;
use crate::config::{AggregationMode, ProfileConfig, SyncMode};
use crate::policy::{ReorgPolicy, StalenessPolicy};
use bfl_crypto::KeyVault;
use bfl_data::{Dataset, SynthMnist, SynthMnistConfig};
use bfl_fl::config::PartitionKind;
use bfl_ml::optimizer::LocalTrainingStats;
use std::num::NonZeroU8;

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
/// `positions`, through the fan-out the commission phase uses.
fn signed_tickets(
    state: &mut LearningState<'_>,
    config: &BflConfig,
    positions: &[usize],
) -> Vec<UploadTicket> {
    let attacks = vec![None; positions.len()];
    state.train_selection(config, 1, positions, &attacks, UploadTicket::signed)
}

/// A copy of the signed `ticket` whose carried signature has its last
/// byte flipped. The client's pair still signs the update correctly (this
/// asserts so), so only a check against the carried signature can reject
/// the copy: a miner that re-signed on the client's behalf would admit it.
fn with_flipped_signature(state: &LearningState<'_>, ticket: &UploadTicket) -> UploadTicket {
    let UploadTicket::Ready(sent) = ticket else {
        unreachable!("a signed ticket carries its update")
    };
    let carried = sent.signature.as_ref().expect("signed at commission");
    let pair = &state.keys.as_ref().expect("a signing run").pairs()[&sent.update.client_id];
    assert_eq!(&sign_update(&sent.update, &pair.private), carried);
    let mut flipped = carried.clone();
    *flipped.bytes.last_mut().unwrap() ^= 0x01;
    UploadTicket::Ready(Arc::new(SentUpdate {
        update: sent.update.clone(),
        signature: Some(flipped),
    }))
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
fn a_retried_upload_is_checked_against_the_signature_made_at_commission() {
    let (train, test) = dataset();
    let config = signed_config();
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    let mut rt = state.async_rt.take().unwrap();

    // One private-key operation per commission: every ticket leaves
    // the fan-out signed.
    let mut tickets = signed_tickets(&mut state, &config, &[0, 1, 2]);
    assert!(tickets.iter().all(|t| matches!(
        t,
        UploadTicket::Ready(sent) if sent.signature.as_ref().is_some_and(|s| !s.is_empty())
    )));
    let (stale, fresh) = (tickets.pop().unwrap(), tickets.pop().unwrap());
    let params_at = |ticket: &UploadTicket| match ticket {
        UploadTicket::Ready(sent) => sent.update.params.as_ptr(),
        UploadTicket::Deferred(_) => unreachable!(),
    };
    let sent_at = params_at(&fresh);

    // The corrupted delivery fails the miner's check ...
    let copy = fresh.clone();
    assert_eq!(params_at(&copy), sent_at, "a copy shares the update");
    let flipped = Some((12345, NonZeroU8::new(0x20).unwrap()));
    let corrupted = admit(&mut state, &mut rt, &config, 1, 1, copy, flipped);
    assert_eq!(corrupted, EventKind::UploadRejected);
    // ... so does a clean delivery whose carried signature is off by one
    // byte, though client 1's pair would sign its update correctly ...
    let forged = with_flipped_signature(&state, &fresh);
    let forged = admit(&mut state, &mut rt, &config, 1, 1, forged, None);
    assert_eq!(forged, EventKind::UploadRejected);
    assert!(rt.arrived.is_empty());
    // ... and the retransmission passes it, with the signature the
    // client made when it first sent the upload — the last copy, so
    // the pool takes the sent parameters themselves.
    let retried = admit(&mut state, &mut rt, &config, 1, 1, fresh, None);
    assert_eq!(retried, EventKind::UploadArrived);
    assert_eq!(rt.arrived.keys().copied().collect::<Vec<u64>>(), [1]);
    assert_eq!(rt.arrived[&1].upload.params.as_ptr(), sent_at);

    // A carried stale upload verifies the same way: what was signed
    // is what was sent, whatever the block aggregates.
    let forged = with_flipped_signature(&state, &stale);
    let forged = admit(&mut state, &mut rt, &config, 2, 1, forged, None);
    assert_eq!(forged, EventKind::UploadRejected);
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

    // Client 4 holds a key, but its upload arrives bare: the miner never
    // signs on a client's behalf.
    let known = signed_tickets(&mut state, &config, &[4]).pop().unwrap();
    let UploadTicket::Ready(sent) = known else {
        unreachable!()
    };
    assert!(sent.signature.is_some());
    let bare = UploadTicket::signed(sent.update.clone(), None);
    assert_eq!(
        admit(&mut state, &mut rt, &config, 1, 1, bare, None),
        EventKind::UploadRejected
    );
    assert!(rt.arrived.is_empty());
}

/// A client's key is a function of its id alone, whichever the
/// provisioning mode: the eager vault holds `KeyVault::derive`'s pair for
/// every client from run start, the lazy one for every client a round
/// has selected.
#[test]
fn every_vault_pair_is_the_one_derived_from_its_client_id() {
    let (train, test) = dataset();
    let held = |state: &LearningState<'_>| -> Vec<(u64, String)> {
        let pairs = state.keys.as_ref().expect("a signing run").pairs();
        let json = |pair| serde_json::to_string(pair).unwrap();
        pairs.iter().map(|(&id, pair)| (id, json(pair))).collect()
    };

    let eager = signed_config();
    let population: Vec<(u64, String)> = (0..eager.fl.clients as u64)
        .map(|id| {
            let pair = KeyVault::derive(eager.fl.seed ^ 0x5EED_0F4B, id, eager.rsa_modulus_bits);
            (id, serde_json::to_string(&pair.unwrap()).unwrap())
        })
        .collect();
    let state = LearningState::new(&eager, &train, &test).unwrap();
    assert_eq!(held(&state), population);

    let mut lazy = signed_config();
    lazy.fl.participation_ratio = 0.5;
    lazy.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 20,
    };
    lazy.sync = SyncMode::FlexibleQuota { quota: 2 };
    lazy.provisioning = crate::config::ProvisioningMode::Lazy {
        cache_budget: lazy.fl.clients,
    };
    lazy.validate().unwrap();
    let mut state = LearningState::new(&lazy, &train, &test).unwrap();
    assert!(held(&state).is_empty(), "nobody is selected yet");
    step_flexible(&mut state, &lazy, 1, 2).unwrap();
    let selected = held(&state);
    assert_eq!(selected.len(), lazy.fl.selected_per_round());
    for (id, pair) in &selected {
        assert_eq!(pair, &population[*id as usize].1, "client {id}");
    }
}

#[test]
fn a_stranded_upload_is_salvaged_with_its_commission_signature() {
    let (train, test) = dataset();
    let mut config = signed_config();
    config.reorg = ReorgPolicy::Salvage;
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    let mut rt = state.async_rt.take().unwrap();

    // Client 5's upload strands twice: once with its carried signature
    // flipped, once intact. The salvage checks each against what it
    // carries, so only the intact copy is included.
    let ticket = signed_tickets(&mut state, &config, &[5]).pop().unwrap();
    let forged = with_flipped_signature(&state, &ticket);
    for ticket in [forged, ticket] {
        rt.stranded.push(StrandedUpload {
            upload: InFlightUpload {
                ticket,
                born_round: 1,
                train_finished_s: 0.5,
                attempt: 1,
            },
            miner: 1,
        });
    }
    salvage_stranded(&mut state, &mut rt, &config, 2);
    let salvaged: Vec<_> = rt.trace[rt.trace.len() - 2..]
        .iter()
        .map(|record| (record.client_id, record.kind))
        .collect();
    assert_eq!(
        salvaged,
        [
            (5, EventKind::UploadRejected),
            (5, EventKind::StaleIncluded)
        ]
    );
    assert_eq!(rt.arrived[&5].born_round, 1);
    assert_eq!(rt.delivered[&5], 1);
}

#[test]
fn no_pass_stays_parked_across_a_seal() {
    let (train, test) = dataset();
    let config = streaming_config(StalenessPolicy::DecayedInclude { decay: 0.5 });
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    for round in 1..=config.fl.rounds {
        // (Every walk of the round also ran `resolve_run_ahead`'s own
        // `parked.len() <= room` assertion.)
        let outcome = step_flexible(&mut state, &config, round, 14).unwrap();
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
    let arrival = |born_round: usize, commission: Commission| {
        EngineEvent::UploadArrived(Delivery {
            upload: in_flight(born_round, commission),
            miner: 0,
            corrupt: None,
            retry_pending: false,
        })
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
    let EngineEvent::UploadArrived(Delivery {
        upload: head_upload,
        ..
    }) = &head.payload
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
    let times = [1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 2.0, 2.5];
    assert_eq!(rest, times.into_iter().zip(1..).collect::<Vec<_>>());

    // Admission takes each pass from where it was parked — the very
    // update the ticket resolves to on its own — and every check still
    // runs on it: the poisoned pass is refused.
    for (id, source) in [(1, &snapshot), (4, &poisoned), (2, &snapshot)] {
        let ticket = commission(id, source);
        let expected = resolve_deferred(&state, &config, &ticket);
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
    let mut config = streaming_config(StalenessPolicy::Discard);
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    let mut rt = state.async_rt.take().unwrap();

    let snapshot = Arc::new(state.global_params.clone());
    let ticket = |client_id: u64, snapshot: &Arc<Vec<f64>>| {
        UploadTicket::Deferred(Commission {
            client_id,
            attack: None,
            born_seed: 7,
            snapshot: Arc::clone(snapshot),
        })
    };
    let deferred = |client_id: u64| ticket(client_id, &snapshot);
    // Late: discarded without deriving the client or training it. Its
    // snapshot is empty, so opening it would panic on the length check.
    let unopenable = ticket(17, &Arc::new(Vec::new()));
    let late = admit(&mut state, &mut rt, &config, 2, 1, unopenable, None);
    assert_eq!(late, EventKind::StaleDiscarded);
    // On time: the same client trains at admission.
    let fresh = admit(&mut state, &mut rt, &config, 1, 1, deferred(17), None);
    assert_eq!(fresh, EventKind::UploadArrived);
    // Under a policy that reads the payload, a late ticket is opened.
    config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    let carried = admit(&mut state, &mut rt, &config, 2, 1, deferred(18), None);
    assert_eq!(carried, EventKind::StaleIncluded);

    // The documented difference: unopened means unchecked, so a late
    // non-finite upload is `StaleDiscarded` under `Discard` and
    // `UploadRejected` everywhere else.
    let poisoned = || {
        let stats = LocalTrainingStats {
            steps: 1,
            final_epoch_loss: 0.5,
        };
        let update = LocalUpdate::new(19, vec![f64::NAN; snapshot.len()], true, stats);
        UploadTicket::signed(update, None)
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

/// A deferred pass trained from a snapshot holding a NaN returns a NaN
/// upload, and the miner refuses it on the verdict the pass formed —
/// whether `admit_upload` ran the pass or `resolve_run_ahead` parked it.
/// A stale copy under `Discard` is still dropped unopened.
#[test]
fn a_poisoned_snapshot_is_refused_on_its_verdict_parked_or_run_at_admission() {
    let (train, test) = dataset();
    let config = streaming_config(StalenessPolicy::Discard);
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    let mut rt = state.async_rt.take().unwrap();
    let mut snapshot = state.global_params.clone();
    snapshot[3] = f64::NAN;
    let snapshot = Arc::new(snapshot);
    let commission = |client_id: u64| Commission {
        client_id,
        attack: None,
        born_seed: 7,
        snapshot: Arc::clone(&snapshot),
    };
    let deferred = |client_id: u64| UploadTicket::Deferred(commission(client_id));

    // Stale under `Discard`: dropped before any pass runs. Its snapshot
    // is empty, so opening it would panic on the length check.
    let unopenable = UploadTicket::Deferred(Commission {
        snapshot: Arc::new(Vec::new()),
        ..commission(1)
    });
    let late = admit(&mut state, &mut rt, &config, 3, 2, unopenable, None);
    assert_eq!(late, EventKind::StaleDiscarded);

    // Nothing parked: the pass runs at admission.
    let pass = resolve_deferred(&state, &config, &commission(1));
    assert!(!pass.finite);
    let fresh = admit(&mut state, &mut rt, &config, 2, 2, deferred(1), None);
    assert_eq!(fresh, EventKind::UploadRejected);

    // Parked: clients 2 and 3 arrive together, so the walk from 2's
    // arrival opens both passes ahead of their admission.
    for client_id in [2, 3] {
        let upload = InFlightUpload {
            ticket: deferred(client_id),
            born_round: 2,
            train_finished_s: 0.5,
            attempt: 1,
        };
        rt.queue.push(
            1.0,
            EngineEvent::UploadArrived(Delivery {
                upload,
                miner: 0,
                corrupt: None,
                retry_pending: false,
            }),
        );
    }
    let head = rt.queue.pop().unwrap();
    let EngineEvent::UploadArrived(Delivery { upload, .. }) = &head.payload else {
        unreachable!()
    };
    resolve_run_ahead(&mut state, &mut rt, &config, 2, 6, upload);
    assert_eq!(rt.parked.keys().map(|k| k.0).collect::<Vec<u64>>(), [2, 3]);
    assert!(rt.parked.values().all(|update| !update.finite));
    for client_id in [2, 3] {
        let ticket = deferred(client_id);
        let kind = admit(&mut state, &mut rt, &config, 2, 2, ticket, None);
        assert_eq!(kind, EventKind::UploadRejected, "client {client_id}");
    }
    assert!(rt.parked.is_empty(), "both parked passes were taken");
    assert!(rt.arrived.is_empty());
}

/// The verdict covers the vector the pass returns, the forgery for an
/// attacker: a `Scaling` forgery past `f64::MAX` overflows to ±∞ although
/// its honest pass is finite.
#[test]
fn an_overflowing_forgery_is_refused_though_its_honest_pass_is_finite() {
    let (train, test) = dataset();
    let config = streaming_config(StalenessPolicy::Discard);
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    let mut rt = state.async_rt.take().unwrap();
    // One coordinate large enough that 1e308 times it overflows.
    let mut snapshot = state.global_params.clone();
    snapshot[0] = 4.0;
    let snapshot = Arc::new(snapshot);
    let commission = |attack: Option<AttackKind>| Commission {
        client_id: 5,
        attack,
        born_seed: 7,
        snapshot: Arc::clone(&snapshot),
    };
    let forgery = Some(AttackKind::Scaling { factor: 1e308 });
    let pass = |attack| resolve_deferred(&state, &config, &commission(attack));
    assert!(pass(None).finite, "the honest pass is finite");
    let forged = pass(forgery);
    assert!(forged.forged && !forged.finite);

    let ticket = UploadTicket::Deferred(commission(forgery));
    let kind = admit(&mut state, &mut rt, &config, 2, 2, ticket, None);
    assert_eq!(kind, EventKind::UploadRejected);
    let honest = UploadTicket::Deferred(commission(None));
    let kind = admit(&mut state, &mut rt, &config, 2, 2, honest, None);
    assert_eq!(kind, EventKind::UploadArrived);
}

/// A `Ready` ticket carries the update its commission trained: from a
/// global model holding a NaN, its verdict is false, and the miner refuses
/// it though the client's signature over it is sound.
#[test]
fn a_ready_ticket_from_a_poisoned_pass_is_refused_on_its_verdict() {
    let (train, test) = dataset();
    let config = signed_config();
    let mut state = LearningState::new(&config, &train, &test).unwrap();
    let mut rt = state.async_rt.take().unwrap();
    state.global_params[3] = f64::NAN;
    let ticket = signed_tickets(&mut state, &config, &[2]).pop().unwrap();
    let UploadTicket::Ready(sent) = &ticket else {
        unreachable!("a signed ticket carries its update")
    };
    assert!(sent.signature.is_some());
    assert!(!sent.update.finite);
    let kind = admit(&mut state, &mut rt, &config, 1, 1, ticket, None);
    assert_eq!(kind, EventKind::UploadRejected);
    assert!(rt.arrived.is_empty());
}
