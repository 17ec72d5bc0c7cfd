//! The engine pass: one rep of a workload driven through the program's
//! public `Scenario` API, timed and checked from outside.
//!
//! A closed loop with one driver thread: the unit of work is one
//! communication round (`SimulationRun::step`), called back to back. Host
//! time and simulated time are kept apart — `step_ms` is host time,
//! `sim_makespan_s` is the simulated clock the paper's delay axis uses.

use crate::trace::Recorder;
use crate::workloads::Workload;
use crate::ALLOC;
use bfl_core::events::EventKind;
use bfl_core::{EventRecord, RoundOutcome, Scenario, SimulationResult};
use bfl_crypto::sha256::to_hex;
use bfl_crypto::Sha256;
use bfl_data::synth_mnist::{SynthMnist, SynthMnistConfig};
use bfl_data::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// XOR'd into a rep's seed to derive its dataset stream, so data and
/// scenario randomness are separate draws of one `--seed`.
const DATA_STREAM: u64 = 0xDA7A;

/// Generates a rep's train/test split: the same seed gives the same data.
pub fn dataset(workload: &Workload, seed: u64) -> (Dataset, Dataset) {
    let generator = SynthMnist::new(SynthMnistConfig {
        train_samples: workload.train_samples,
        test_samples: workload.test_samples,
        ..SynthMnistConfig::default()
    });
    generator.generate(&mut StdRng::seed_from_u64(seed ^ DATA_STREAM))
}

/// How much work one engine round did, read off its outcome and the
/// event trace — the shape the layer replay reproduces.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundShape {
    /// Local passes run (at selection, or at admission when streaming).
    pub trained: usize,
    /// Uploads that went through Procedure II's sign + verify.
    pub admitted: usize,
    /// Of those, rejected by the signature check (corrupted in transit).
    pub rejected: usize,
    /// Uploads that entered the block's aggregation.
    pub included: usize,
    /// Events popped off the queue.
    pub popped: usize,
    /// Upload send attempts (first sends plus retransmissions).
    pub attempts: usize,
}

/// What the traced pass keeps of a rep beyond its measurements.
pub struct RepDetail {
    pub shapes: Vec<RoundShape>,
    /// Per-round outcomes, with the hash of the block each round sealed.
    pub outcomes: Vec<RoundOutcome>,
    pub final_params: Vec<f64>,
    /// Attackers designated over the run, and how many Algorithm 2 caught.
    pub attackers: usize,
    pub caught: usize,
}

/// One measured rep.
pub struct Rep {
    /// Host seconds for dataset generation plus `Scenario::start`.
    pub setup_s: f64,
    /// Host milliseconds of each `step()`.
    pub step_ms: Vec<f64>,
    /// Allocator calls made inside `step()`, whole rep.
    pub step_alloc_events: u64,
    /// Heap high-water over set-up and run.
    pub peak_bytes: usize,
    /// Heap still live once `into_result` has dropped the run.
    pub result_bytes: usize,
    /// Held-out accuracy after the last round.
    pub final_accuracy: f64,
    /// Simulated seconds the rounds took, summed.
    pub sim_makespan_s: f64,
    /// SHA-256 over final parameters, chain tip, reward ledger and
    /// per-round history.
    pub digest: String,
    /// Why the rep failed; a failed rep fails all of its rounds.
    pub errors: Vec<String>,
    pub detail: Option<RepDetail>,
}

impl Rep {
    /// Host seconds spent inside `step()`.
    pub fn step_seconds(&self) -> f64 {
        self.step_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs one rep of `workload` under `seed`. With `rec` on, the calls into
/// the program are bracketed by spans and the rep keeps its [`RepDetail`].
pub fn run_rep(workload: &Workload, seed: u64, rec: &mut Recorder) -> Rep {
    let rounds = workload.rounds();
    let mut errors = Vec::new();
    ALLOC.reset_peak();
    let live_before = ALLOC.live_bytes();

    let setup_started = Instant::now();
    let setup_span = rec.begin("bench.setup", 0);
    let (train, test) = dataset(workload, seed);
    let scenario = Scenario::from_config(workload.config_for(seed))
        .expect("frozen workloads are validated at start-up");
    let start_span = rec.begin("core.scenario.start", 0);
    let started = scenario.start(&train, &test);
    rec.end(start_span, 0);
    rec.end(setup_span, 0);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut step_ms = Vec::with_capacity(rounds);
    let mut step_alloc_events = 0u64;
    let mut run = match started {
        Ok(run) => Some(run),
        Err(e) => {
            errors.push(format!("Scenario::start failed: {e}"));
            None
        }
    };
    if let Some(run) = run.as_mut() {
        for round in 1..=rounds {
            let span = rec.begin("core.engine.step", round);
            let events_before = ALLOC.events();
            let started = Instant::now();
            let stepped = std::hint::black_box(run.step());
            step_ms.push(started.elapsed().as_secs_f64() * 1e3);
            step_alloc_events += (ALLOC.events() - events_before) as u64;
            rec.end(span, 0);
            match stepped {
                Ok(Some(_)) => {}
                Ok(None) => {
                    errors.push(format!("round {round}: the run finished early"));
                    break;
                }
                Err(e) => {
                    errors.push(format!("round {round}: step failed: {e}"));
                    break;
                }
            }
        }
    }

    let shapes = match (&run, rec.enabled()) {
        (Some(run), true) => round_shapes(
            run.outcomes(),
            run.event_trace(),
            workload.config.aggregation.is_streaming(),
            workload.config.verify_signatures,
        ),
        _ => Vec::new(),
    };

    let mut rep = Rep {
        setup_s,
        step_ms,
        step_alloc_events,
        peak_bytes: 0,
        result_bytes: 0,
        final_accuracy: 0.0,
        sim_makespan_s: 0.0,
        digest: String::new(),
        errors,
        detail: None,
    };
    if let Some(run) = run {
        let span = rec.begin("core.into_result", 0);
        let result = run.into_result();
        rec.end(span, 0);
        rep.result_bytes = ALLOC
            .live_bytes()
            .saturating_sub(live_before + dataset_bytes(&train) + dataset_bytes(&test));

        let span = rec.begin("bench.checks", 0);
        rep.errors.extend(check_result(workload, &result));
        rep.digest = digest(&result);
        rec.end(span, 0);

        rep.final_accuracy = result.final_accuracy().unwrap_or(0.0);
        rep.sim_makespan_s = result.outcomes.iter().map(|o| o.kpi.makespan_s).sum();
        if rec.enabled() {
            let (attackers, caught) = result.detection.totals();
            rep.detail = Some(RepDetail {
                shapes,
                outcomes: result.outcomes,
                final_params: result.final_params,
                attackers,
                caught,
            });
        }
    }
    rep.peak_bytes = ALLOC.peak_bytes();
    rep
}

/// Heap bytes a dataset's feature matrix and labels occupy.
fn dataset_bytes(data: &Dataset) -> usize {
    data.features.data.capacity() * std::mem::size_of::<f64>()
        + data.labels.capacity() * std::mem::size_of::<usize>()
}

/// The output checks every rep must pass.
fn check_result(workload: &Workload, result: &SimulationResult) -> Vec<String> {
    let mut errors = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            errors.push(what.to_string());
        }
    };
    let rounds = workload.rounds();
    check(result.outcomes.len() == rounds, "outcomes.len() != rounds");
    match &result.chain {
        None => check(false, "a FullBfl run produced no chain"),
        Some(chain) => {
            check(chain.validate_all().is_ok(), "chain.validate_all() failed");
            check(
                chain.reward_totals() == result.reward_totals,
                "chain reward totals != result.reward_totals",
            );
            let decoded = chain
                .latest_global_gradient()
                .and_then(|(_, payload)| bfl_ml::gradient::from_bytes(&payload));
            check(
                decoded.as_deref() == Some(result.final_params.as_slice()),
                "latest_global_gradient does not decode to final_params",
            );
        }
    }
    check(
        result
            .outcomes
            .iter()
            .all(|o| o.rewards.iter().map(|r| r.amount_milli).sum::<u64>() == o.rewards_paid_milli),
        "a round's reward list does not sum to rewards_paid_milli",
    );
    let accuracy = result.final_accuracy().unwrap_or(0.0);
    check(
        accuracy >= workload.accuracy_floor,
        &format!(
            "final accuracy {accuracy:.4} below the {:.2} sanity floor",
            workload.accuracy_floor
        ),
    );
    if workload.config.attack.enabled {
        let (attackers, caught) = result.detection.totals();
        check(
            caught as f64 >= 0.8 * attackers as f64,
            &format!("detection rate {caught}/{attackers} below 0.8"),
        );
    }
    errors
}

/// SHA-256 over everything a run computes: final parameters, chain tip,
/// reward ledger, and the per-round history. Two runs with equal digests
/// produced the same simulated statistics.
fn digest(result: &SimulationResult) -> String {
    let mut hasher = Sha256::new();
    hasher.update(&bfl_ml::gradient::to_bytes(&result.final_params));
    if let Some(chain) = &result.chain {
        hasher.update(&chain.tip().hash());
    }
    for (client, total) in &result.reward_totals {
        hasher.update(&client.to_le_bytes());
        hasher.update(&total.to_le_bytes());
    }
    for o in &result.outcomes {
        for word in [
            o.round as u64,
            o.accuracy.to_bits(),
            o.train_loss.to_bits(),
            o.participants as u64,
            o.stale_included as u64,
            o.high_contributors as u64,
            o.rewards_paid_milli,
            o.kpi.makespan_s.to_bits(),
            o.kpi.mempool_depth_at_seal as u64,
            o.kpi.stale_discarded as u64,
            o.kpi.dropped_uploads as u64,
            o.kpi.retried_uploads as u64,
        ] {
            hasher.update(&word.to_le_bytes());
        }
        for id in o.attackers.iter().chain(&o.dropped) {
            hasher.update(&id.to_le_bytes());
        }
        hasher.update(o.block_hash.as_deref().unwrap_or("").as_bytes());
    }
    to_hex(&hasher.finalize())
}

/// Reads each round's [`RoundShape`] off the outcomes and the event trace.
/// Lockstep rounds schedule no events: every participant trains, uploads
/// once and is included.
fn round_shapes(
    outcomes: &[RoundOutcome],
    trace: &[EventRecord],
    streaming: bool,
    signed: bool,
) -> Vec<RoundShape> {
    let mut shapes: Vec<RoundShape> = outcomes
        .iter()
        .map(|o| RoundShape {
            included: o.participants,
            ..RoundShape::default()
        })
        .collect();
    if trace.is_empty() {
        for shape in &mut shapes {
            shape.trained = shape.included;
            shape.attempts = shape.included;
            shape.admitted = if signed { shape.included } else { 0 };
        }
        return shapes;
    }
    for record in trace {
        let Some(shape) = record.round.checked_sub(1).and_then(|i| shapes.get_mut(i)) else {
            continue;
        };
        use EventKind::*;
        let resolved_at_admission = matches!(
            record.kind,
            UploadArrived | StaleIncluded | StaleDiscarded | UploadRejected
        );
        if streaming && resolved_at_admission || !streaming && record.kind == TrainingScheduled {
            shape.trained += 1;
        }
        if signed && matches!(record.kind, UploadArrived | StaleIncluded | UploadRejected) {
            shape.admitted += 1;
        }
        if signed && record.kind == UploadRejected {
            shape.rejected += 1;
        }
        if matches!(record.kind, TrainingFinished | UploadRetried) {
            shape.attempts += 1;
        }
        if !matches!(
            record.kind,
            TrainingScheduled | QuotaReached | UploadDropped | ForkHealed | DeadlineSealed
        ) {
            shape.popped += 1;
        }
    }
    shapes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A workload shrunk to three rounds over a small dataset, so the
    /// engine and the replay run in test time on the real code paths.
    pub(crate) fn tiny(name: &str) -> Workload {
        let all = crate::workloads::all().expect("frozen files match");
        let mut tiny = all
            .iter()
            .find(|w| w.name == name)
            .expect("a frozen workload")
            .quick();
        tiny.config.fl.rounds = 3;
        tiny.train_samples = tiny.train_samples.min(600);
        tiny.test_samples = tiny.test_samples.min(100);
        tiny
    }

    #[test]
    fn same_seed_same_digest_and_different_seed_different_digest() {
        for name in ["sync_paper", "flex_signed_faulty"] {
            let workload = tiny(name);
            let run = |seed| run_rep(&workload, seed, &mut Recorder::off());
            let (a, again, b) = (run(7), run(7), run(8));
            assert!(a.errors.is_empty(), "{name}: {:?}", a.errors);
            assert_eq!(a.digest.len(), 64);
            assert_eq!(a.digest, again.digest, "{name}");
            assert_ne!(a.digest, b.digest, "{name}");
            assert_eq!(a.step_ms.len(), 3);
            assert!(a.step_alloc_events > 0 && a.peak_bytes > 0 && a.sim_makespan_s > 0.0);
        }
    }

    #[test]
    fn tracing_changes_no_result_and_keeps_the_detail() {
        let workload = tiny("pop1m_streaming");
        let plain = run_rep(&workload, 3, &mut Recorder::off());
        let mut rec = Recorder::on();
        let traced = run_rep(&workload, 3, &mut rec);
        assert_eq!(plain.digest, traced.digest);
        assert!(plain.detail.is_none());
        let detail = traced.detail.expect("a traced rep keeps its detail");
        assert_eq!(detail.shapes.len(), 3);
        // 1000 selected, quota 800: the event engine trains at admission.
        assert_eq!(detail.shapes[0].included, 800);
        assert!(detail.shapes[0].trained >= 800 && detail.shapes[0].popped >= 1600);
        assert_eq!(rec.ms_per_round("core.engine.step").len(), 3);
    }

    #[test]
    fn a_failed_check_is_reported() {
        let mut workload = tiny("attack_discard");
        workload.accuracy_floor = 1.5;
        let rep = run_rep(&workload, 1, &mut Recorder::off());
        assert!(rep.errors.iter().any(|e| e.contains("sanity floor")));
    }
}
