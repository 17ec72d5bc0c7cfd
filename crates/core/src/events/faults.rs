//! Fault injection and the heal. A [`FaultPlan`](bfl_net::FaultPlan)
//! threads adversity through the round's handlers: link faults strike each
//! send, a [`CrashSchedule`](bfl_net::CrashSchedule) takes one miner down
//! until it resynchronises its replica, and a
//! [`Partition`](bfl_net::Partition) splits the mesh into components that
//! each seal their own branch (a real fork) until the first prologue after
//! the window heals it ([`RoundConsensus::heal`]), charging `T_fork` from
//! the [`ForkModel`](bfl_chain::ForkModel) and applying the
//! [`ReorgPolicy`] to the losing side's uploads. Every fault coin-flip
//! draws from a dedicated RNG stream, so an inactive plan draws nothing,
//! moves no clock and replays the fault-free engine bit for bit.

use super::delivery::admit_upload;
use super::{AsyncRuntime, EventKind, InFlightUpload, UploadTicket};
use crate::config::BflConfig;
use crate::engine::{advance_clock, LearningState};
use crate::error::CoreError;
use crate::policy::ReorgPolicy;
use crate::procedures::mining;
use bfl_chain::consensus::RoundConsensus;
use bfl_ml::gradient;

/// An upload that landed on the partition's secondary component, held
/// there until the mesh heals. Always an `UploadTicket::Ready` in
/// practice: streaming aggregation (the only producer of deferred
/// tickets) rejects partition plans at validation.
pub(super) struct StrandedUpload {
    pub(super) upload: InFlightUpload,
    pub(super) miner: usize,
}

/// Advances the clock to the next rejoin: the first simulated second
/// strictly after now at which any non-cooling-down client is online.
/// Returns `false` when that would not make progress (events still
/// pending, someone already online, or no client ever rejoins). The
/// epsilon absorbs the churn arithmetic's floating-point slack so the
/// rejoining client is online at the new instant.
pub(super) fn fast_forward_to_next_join(
    state: &mut LearningState<'_>,
    config: &BflConfig,
    rt: &AsyncRuntime,
) -> bool {
    if !rt.queue.is_empty() {
        return false;
    }
    let now = state.clock.now_seconds();
    let next = (0..state.pool.population())
        .filter(|&i| !state.cooldown.contains_key(&(i as u64)))
        .map(|i| {
            config
                .profiles
                .profile_of(i, config.fl.clients)
                .next_online_from(now)
        })
        .fold(f64::INFINITY, f64::min);
    // A finite `next` keeps the clock in range.
    let joins = next.is_finite() && next > now;
    if joins {
        state.clock.advance(next - now + 1e-9);
    }
    joins
}

/// Advances the clock past an active partition's heal instant, so a
/// round whose every upload stranded on the secondary component retries
/// after the mesh (and its pool, under `ReorgPolicy::Salvage`) is whole
/// again. Returns `false` when no partition is active or events are
/// still pending.
pub(super) fn fast_forward_past_partition(
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
pub(super) fn fault_prologue(
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
pub(super) fn purge_crashed_pending(
    rt: &mut AsyncRuntime,
    config: &BflConfig,
    round: usize,
    now: f64,
) {
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
pub(super) fn salvage_stranded(
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
/// partition, and on the tip of the component's
/// [`leader`](RoundConsensus::leader) (a just-recovered miner lags until
/// the next heal and must not co-sign a block it cannot append). Falls
/// back to the full mesh if every primary miner is down, rather than
/// deadlocking the round. In a fault-free run: every miner.
pub(super) fn sealing_members(
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
    let mut members: Vec<usize> = (0..consensus.miner_count())
        .filter(|&m| Some(m) != down)
        .filter(|&m| match config.fault.partition {
            Some(p) if p.is_active(now) => p.component_of(m) == component,
            _ => component == 0,
        })
        .collect();
    if members.is_empty() {
        if component != 0 {
            return members;
        }
        members = (0..consensus.miner_count()).collect();
    }
    let tip = consensus.replicas[consensus.leader(members.iter().copied())]
        .tip()
        .hash();
    members.retain(|&i| consensus.replicas[i].tip().hash() == tip);
    members
}

/// While the mesh is split, the secondary component aggregates what it
/// has — `fresh`, the uploads stranded on its side this attempt — and
/// seals its own block, growing the divergent branch the heal will have
/// to resolve.
pub(super) fn seal_stranded_branch(
    state: &mut LearningState<'_>,
    config: &BflConfig,
    round: usize,
    fresh: &[StrandedUpload],
) -> Result<(), CoreError> {
    let (Some(consensus), Some(partition)) = (state.consensus.as_mut(), config.fault.partition)
    else {
        return Ok(());
    };
    let seal_s = state.clock.now_seconds();
    if !partition.is_active(seal_s) || fresh.is_empty() {
        return Ok(());
    }
    let secondary = sealing_members(consensus, config, seal_s, 1);
    if secondary.is_empty() {
        return Ok(());
    }
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
    mining::mine_round_among(
        consensus,
        &secondary,
        round as u64,
        &branch_params,
        &[],
        state.clock.now_millis(),
        &mut state.rng,
    )?;
    Ok(())
}
