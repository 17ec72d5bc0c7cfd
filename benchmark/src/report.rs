//! What the benchmark reports: the declared metrics (the code's copy of
//! `BENCHMARK.json`, kept equal by a test), how each is computed from the
//! measured reps and the recorded spans, the printed form, and
//! `--compare`.

use crate::engine::Rep;
use crate::stats::{self, mean, median, percentile, sorted};
use crate::trace::Recorder;
use crate::workloads::Workload;
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// One declared metric.
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    e2e(name, unit, better, 0.0)
}

/// The end-to-end metrics, measured with tracing off. `sim_makespan_s` is
/// simulated time and carries its own unit so it is never read as a host
/// timing.
///
/// The bounds are what a shared 2-core host supports between two sets of
/// runs taken minutes apart (see the README for the measured spreads and
/// a 24% level shift between two sets of one build): as wide as the
/// contract allows on host timings, tight on the counts, which repeat
/// exactly under one seed.
pub const END_TO_END: [Decl; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rounds_per_s", "1/s", Higher, 0.25),
    e2e("round_ms_p50", "ms", Lower, 0.25),
    e2e("round_ms_p90", "ms", Lower, 0.25),
    e2e("peak_heap_mib", "MiB", Lower, 0.03),
    e2e("alloc_events_per_round", "count", Lower, 0.02),
    e2e("sim_makespan_s", "sim_s", Lower, 0.05),
];

/// The per-layer metrics, from the traced run. `_ms` values are medians
/// per round; counts are means per round.
pub const PER_LAYER: [Decl; 52] = [
    layer("core.local_update_ms", "ms", Lower),
    layer("ml.sgd_samples_per_s", "1/s", Higher),
    layer("ml.eval_ms", "ms", Lower),
    layer("crypto.sign_ms", "ms", Lower),
    layer("crypto.verify_ms", "ms", Lower),
    layer("crypto.signs", "count", Lower),
    layer("crypto.verifies", "count", Lower),
    layer("crypto.rejects", "count", Lower),
    layer("crypto.sha256_ms", "ms", Lower),
    layer("crypto.sha256_mib_per_s", "MiB/s", Higher),
    layer("ml.grad_to_bytes_ms", "ms", Lower),
    layer("crypto.payload_bytes", "bytes", Lower),
    layer("core.upload_ms", "ms", Lower),
    layer("crypto.keygen_ms_per_key", "ms", Lower),
    layer("data.generate_ms", "ms", Lower),
    layer("fl.partition_ms", "ms", Lower),
    layer("cluster.distance_ms", "ms", Lower),
    layer("cluster.dbscan_ms", "ms", Lower),
    layer("ml.anchor_ms", "ms", Lower),
    layer("core.contribution_ms", "ms", Lower),
    layer("core.fair_aggregate_ms", "ms", Lower),
    layer("core.reward_ms", "ms", Lower),
    layer("core.global_update_ms", "ms", Lower),
    layer("core.detection_rate", "ratio", Higher),
    layer("fl.select_ms", "ms", Lower),
    layer("fl.implicit_client_us", "us", Lower),
    layer("core.exchange_ms", "ms", Lower),
    layer("net.events_per_round", "count", Lower),
    layer("net.event_queue_ms", "ms", Lower),
    layer("core.engine.step_ms", "ms", Lower),
    layer("replay.round_ms", "ms", Lower),
    layer("core.events.residual_ms", "ms", Lower),
    layer("core.kpi.uploads_included", "count", Higher),
    layer("core.kpi.stale_included", "count", Lower),
    layer("core.kpi.stale_discarded", "count", Lower),
    layer("core.kpi.dropped_uploads", "count", Lower),
    layer("core.kpi.retried_uploads", "count", Lower),
    layer("core.kpi.mempool_depth_at_seal", "count", Lower),
    layer("core.upload_useful_share", "ratio", Higher),
    layer("core.mining_ms", "ms", Lower),
    layer("chain.pow_ms", "ms", Lower),
    layer("chain.pow_hashes", "count", Lower),
    layer("chain.merkle_ms", "ms", Lower),
    layer("chain.block_bytes", "bytes", Lower),
    layer("chain.validate_ms", "ms", Lower),
    layer("core.local_update.alloc_events", "count", Lower),
    layer("core.upload.alloc_events", "count", Lower),
    layer("core.global_update.alloc_events", "count", Lower),
    layer("core.mining.alloc_events", "count", Lower),
    layer("core.engine.step.alloc_events", "count", Lower),
    layer("core.result_mib", "MiB", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// One measured value and how many samples stand behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

const MIB: f64 = 1024.0 * 1024.0;

/// Ratio that is 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The end-to-end metrics of one untraced run. Timings use every rep;
/// counts use the first `workload.reps` reps only, so they repeat exactly
/// under one seed however many extra reps the host had time for.
///
/// Round timings are reported at the quartile on the *fast* side of
/// their per-rep (or per-block) values, not the median: on this shared
/// host interference only ever adds time and comes in phases that can
/// cover most of a run, while a real slowdown moves every rep and so
/// moves the quartile as much as the median.
pub fn end_to_end(workload: &Workload, reps: &[Rep]) -> Vec<Metric> {
    let counted = &reps[..workload.reps.min(reps.len())];
    let round_samples: usize = reps.iter().map(|r| r.step_ms.len()).sum();
    let each = |of: &[Rep], f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { of.iter().map(f).collect() };
    END_TO_END
        .iter()
        .map(|decl| {
            let (value, samples) = match decl.name {
                "setup_s" => (median(&each(reps, &|r| r.setup_s)), reps.len()),
                "rounds_per_s" => {
                    let rate = |r: &Rep| ratio(r.step_ms.len() as f64, r.step_seconds());
                    (percentile(&sorted(each(reps, &rate)), 75.0), reps.len())
                }
                "round_ms_p50" => (blocked_percentile(reps, 50.0), round_samples),
                "round_ms_p90" => (blocked_percentile(reps, 90.0), round_samples),
                "peak_heap_mib" => {
                    let peaks = each(counted, &|r| r.peak_bytes as f64 / MIB);
                    (peaks.into_iter().fold(0.0, f64::max), counted.len())
                }
                "alloc_events_per_round" => {
                    let events: f64 = counted.iter().map(|r| r.step_alloc_events as f64).sum();
                    let rounds: usize = counted.iter().map(|r| r.step_ms.len()).sum();
                    (ratio(events, rounds as f64), counted.len())
                }
                "sim_makespan_s" => (mean(&each(counted, &|r| r.sim_makespan_s)), counted.len()),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            Metric {
                name: decl.name,
                value,
                samples,
            }
        })
        .collect()
}

/// Fewest `step()` timings a percentile is taken over: p90 then has ten
/// samples beyond it.
const BLOCK_SAMPLES: usize = 100;

/// The `p`-th percentile of host ms per `step()`: taken per block of
/// consecutive reps that together hold [`BLOCK_SAMPLES`] timings (a short
/// tail joins the last block), then the lower quartile over blocks — so
/// host noise that hits even most of the reps cannot set the tail.
fn blocked_percentile(reps: &[Rep], p: f64) -> f64 {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for rep in reps {
        if blocks.last().is_some_and(|b| b.len() >= BLOCK_SAMPLES) {
            blocks.push(Vec::new());
        }
        blocks.last_mut().expect("never empty").extend(&rep.step_ms);
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < BLOCK_SAMPLES) {
        let tail = blocks.pop().expect("checked");
        blocks.last_mut().expect("more than one").extend(tail);
    }
    let per_block = blocks
        .into_iter()
        .map(|block| percentile(&sorted(block), p))
        .collect();
    percentile(&sorted(per_block), 25.0)
}

/// The per-layer metrics of one traced run: `traced` is the engine rep
/// recorded into `rec` (with its detail), `rec` also holds the replay's
/// spans, and the two step-time pools give the tracing overhead.
pub fn per_layer(
    traced: &Rep,
    untraced_step_ms: &[f64],
    traced_step_ms: &[f64],
    rec: &Recorder,
) -> Vec<Metric> {
    let ms = |name: &str| median(&rec.ms_per_round(name));
    // `+ 0.0`: an empty f64 sum is -0.0.
    let total_ms = |name: &str| rec.ms_per_round(name).iter().sum::<f64>() + 0.0;
    let count = |name: &str| mean(&rec.count_per_round(name));
    let total_count = |name: &str| rec.count_per_round(name).iter().sum::<f64>() + 0.0;
    let allocs = |name: &str| mean(&rec.allocs_per_round(name));
    let rounds = rec.ms_per_round("replay.round").len();

    let detail = traced.detail.as_ref();
    let shapes = detail.map_or(&[][..], |d| &d.shapes);
    let kpi = |f: &dyn Fn(&bfl_core::KpiRow) -> usize| {
        detail.map_or(0.0, |d| {
            mean(
                &d.outcomes
                    .iter()
                    .map(|o| f(&o.kpi) as f64)
                    .collect::<Vec<_>>(),
            )
        })
    };
    let shape_sum = |f: &dyn Fn(&crate::engine::RoundShape) -> usize| {
        shapes.iter().map(|s| f(s) as f64).sum::<f64>()
    };

    let step = ms("core.engine.step");
    let replay_round = ms("replay.round");

    let value = |name: &str| -> f64 {
        match name {
            "core.local_update_ms" => ms("core.local_update"),
            "ml.sgd_samples_per_s" => ratio(
                total_count("core.local_update"),
                total_ms("core.local_update") / 1e3,
            ),
            "ml.eval_ms" => ms("ml.eval"),
            "crypto.sign_ms" => ms("crypto.sign"),
            "crypto.verify_ms" => ms("crypto.verify"),
            "crypto.signs" => count("crypto.sign"),
            "crypto.verifies" => count("crypto.verify"),
            "crypto.rejects" => count("crypto.rejects"),
            "crypto.sha256_ms" => ms("crypto.sha256"),
            "crypto.sha256_mib_per_s" => ratio(
                total_count("crypto.sha256") / MIB,
                total_ms("crypto.sha256") / 1e3,
            ),
            "ml.grad_to_bytes_ms" => ms("ml.grad_to_bytes"),
            "crypto.payload_bytes" => count("crypto.sha256"),
            "core.upload_ms" => ms("core.upload"),
            "crypto.keygen_ms_per_key" => {
                ratio(total_ms("crypto.keygen"), total_count("crypto.keygen"))
            }
            "data.generate_ms" => total_ms("data.generate"),
            "fl.partition_ms" => total_ms("fl.partition"),
            "cluster.distance_ms" => ms("cluster.distance"),
            "cluster.dbscan_ms" => ms("cluster.dbscan"),
            "ml.anchor_ms" => ms("ml.anchor"),
            "core.contribution_ms" => ms("core.contribution"),
            "core.fair_aggregate_ms" => ms("core.fair_aggregate"),
            "core.reward_ms" => ms("core.reward"),
            "core.global_update_ms" => ms("core.global_update"),
            "core.detection_rate" => {
                detail.map_or(0.0, |d| ratio(d.caught as f64, d.attackers as f64))
            }
            "fl.select_ms" => ms("fl.select"),
            "fl.implicit_client_us" => ratio(
                total_ms("fl.implicit_client") * 1e3,
                total_count("fl.implicit_client"),
            ),
            "core.exchange_ms" => ms("core.exchange"),
            "net.events_per_round" => ratio(shape_sum(&|s| s.popped), shapes.len() as f64),
            "net.event_queue_ms" => ms("net.event_queue"),
            "core.engine.step_ms" => step,
            "replay.round_ms" => replay_round,
            "core.events.residual_ms" => step - replay_round,
            "core.kpi.uploads_included" => ratio(shape_sum(&|s| s.included), shapes.len() as f64),
            "core.kpi.stale_included" => kpi(&|k| k.stale_included),
            "core.kpi.stale_discarded" => kpi(&|k| k.stale_discarded),
            "core.kpi.dropped_uploads" => kpi(&|k| k.dropped_uploads),
            "core.kpi.retried_uploads" => kpi(&|k| k.retried_uploads),
            "core.kpi.mempool_depth_at_seal" => kpi(&|k| k.mempool_depth_at_seal),
            "core.upload_useful_share" => {
                ratio(shape_sum(&|s| s.included), shape_sum(&|s| s.attempts))
            }
            "core.mining_ms" => ms("core.mining"),
            "chain.pow_ms" => ms("chain.pow"),
            "chain.pow_hashes" => count("chain.pow"),
            "chain.merkle_ms" => ms("chain.merkle"),
            "chain.block_bytes" => count("chain.block_bytes"),
            "chain.validate_ms" => total_ms("chain.validate"),
            "core.local_update.alloc_events" => allocs("core.local_update"),
            "core.upload.alloc_events" => allocs("core.upload"),
            "core.global_update.alloc_events" => allocs("core.global_update"),
            "core.mining.alloc_events" => allocs("core.mining"),
            "core.engine.step.alloc_events" => allocs("core.engine.step"),
            "core.result_mib" => traced.result_bytes as f64 / MIB,
            "trace.overhead_share" => ratio(median(traced_step_ms), median(untraced_step_ms)) - 1.0,
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    };
    PER_LAYER
        .iter()
        .map(|decl| Metric {
            name: decl.name,
            value: value(decl.name),
            samples: rounds,
        })
        .collect()
}

/// The result of one pass (untraced or traced) over one workload.
pub struct PassResult {
    pub correct: bool,
    /// Rounds attempted, and rounds failed: a round whose `step()` failed
    /// and every round of a rep whose output checks failed.
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl PassResult {
    /// The pass as the one-line JSON object the contract asks for.
    pub fn to_json_line(&self, decls: &[Decl]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (metric, decl)) in self.metrics.iter().zip(decls).enumerate() {
            assert!(metric.value.is_finite(), "{} is not finite", metric.name);
            let sep = if i > 0 { "," } else { "" };
            write!(
                out,
                "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                metric.name, metric.value, decl.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// The pass as a table: every metric by name with its unit and the
    /// number of samples behind it.
    pub fn print_table(&self, decls: &[Decl]) {
        for (metric, decl) in self.metrics.iter().zip(decls) {
            println!(
                "  {:<34} {:>16.6} {:<6} (n={})",
                metric.name, metric.value, decl.unit, metric.samples
            );
        }
        println!(
            "  {:<34} {:>16.6} {:<6} ({} failed of {} rounds)",
            "failed_round_share",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            self.failed,
            self.attempted
        );
    }
}

/// Lets a raw [`Value`] tree pass through the shim's typed `from_str`.
struct RawJson(Value);

impl Deserialize for RawJson {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(RawJson(value.clone()))
    }
}

/// Parses arbitrary JSON text into a [`Value`] tree.
pub fn parse_json(text: &str) -> Result<Value, serde::Error> {
    serde_json::from_str::<RawJson>(text).map(|raw| raw.0)
}

/// The `# run` line that precedes every pass's output, so a saved log is
/// self-describing input for `--compare`.
pub fn run_header(workload: &str, seed: u64, trace: bool, seconds: f64, quick: bool) -> String {
    format!(
        "# run workload={workload} seed={seed} trace={} seconds={seconds} quick={}",
        trace as u8, quick as u8
    )
}

/// End-to-end values per workload and metric, read back from a saved log:
/// every `# run ... trace=0 ...` header followed by its JSON result line.
fn read_log(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("# run ") {
            let field = |key: &str| {
                header
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            };
            if field("quick") == Some("1") {
                eprintln!("warning: {path} holds a --quick run; its numbers are not comparable");
            }
            current = match (field("workload"), field("trace")) {
                (Some(workload), Some("0")) => Some(workload.to_string()),
                _ => None,
            };
        } else if line.starts_with('{') {
            let Some(workload) = current.take() else {
                continue;
            };
            let parsed = parse_json(line).map_err(|e| format!("{path}: {e}"))?;
            let Ok(Value::Obj(metrics)) = parsed.field("metrics") else {
                return Err(format!("{path}: a result line has no metrics object"));
            };
            let into = runs.entry(workload).or_default();
            for (name, metric) in metrics {
                let value = metric
                    .field("value")
                    .and_then(Value::as_f64)
                    .map_err(|e| format!("{path}: metric {name}: {e}"))?;
                into.entry(name.clone()).or_default().push(value);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no untraced runs found"));
    }
    Ok(runs)
}

/// How a metric fared between two sets of runs.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges `b` against `a` for one metric: worse when `b`'s median is
/// worse than `a`'s by more than `bound` of it; unresolved when `a`'s own
/// runs spread wider than the bound (first to third quartile, as a share
/// of the median) — unless every run of `b` reads better than every run
/// of `a`. Returns the verdict and `b`'s relative change, positive = worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let sign = if better == Lower { 1.0 } else { -1.0 };
    let change = ratio(sign * (mb - ma), ma.abs());
    let spread = if a.len() >= 2 {
        let (q1, q3) = stats::quartiles(a);
        ratio(q3 - q1, ma.abs())
    } else {
        0.0
    };
    let b_always_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if change > bound {
        Verdict::Worse
    } else if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, change)
}

/// `--compare a b`: per end-to-end metric and workload, both medians, the
/// relative difference, the bound and the verdict. Returns whether any
/// metric got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_log(path_a)?, read_log(path_b)?);
    let mut any_worse = false;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict (runs a/b)",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload:<20} missing from {path_b}");
            continue;
        };
        for decl in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(decl.name), metrics_b.get(decl.name)) else {
                println!("{workload:<20} {:<24} missing on one side", decl.name);
                continue;
            };
            let (verdict, change) = judge(va, vb, decl.better, decl.bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<20} {:<24} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {} ({}/{})",
                decl.name,
                median(va),
                median(vb),
                change * 100.0,
                decl.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_are_well_formed(decls: &[Decl]) {
        for decl in decls {
            assert!(
                !decl.name.is_empty()
                    && decl.name.len() <= 64
                    && decl.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && decl
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                decl.name
            );
            assert!(
                !decl.unit.is_empty()
                    && decl.unit.len() <= 16
                    && decl
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                decl.unit
            );
        }
    }

    /// `(name, unit, better, bound)` rows of one section of BENCHMARK.json.
    fn declared(section: &Value) -> Vec<(String, String, String, Option<f64>)> {
        let Value::Arr(items) = section else {
            panic!("section is not an array");
        };
        let text = |item: &Value, key: &str| match item.field(key) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        items
            .iter()
            .map(|item| {
                (
                    text(item, "name"),
                    text(item, "unit"),
                    text(item, "better"),
                    item.field("bound").and_then(Value::as_f64).ok(),
                )
            })
            .collect()
    }

    #[test]
    fn declared_metrics_equal_benchmark_json() {
        names_are_well_formed(&END_TO_END);
        names_are_well_formed(&PER_LAYER);
        let text = include_str!("../../BENCHMARK.json");
        let json = parse_json(text).expect("BENCHMARK.json parses");
        let ours = |decls: &[Decl], bounded: bool| -> Vec<_> {
            decls
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        match d.better {
                            Lower => "lower".to_string(),
                            Higher => "higher".to_string(),
                        },
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(
            declared(json.field("end_to_end").unwrap()),
            ours(&END_TO_END, true)
        );
        assert_eq!(
            declared(json.field("per_layer").unwrap()),
            ours(&PER_LAYER, false)
        );
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));

        assert_eq!(
            json.field("run_seconds").and_then(Value::as_f64).ok(),
            Some(crate::DEFAULT_SECONDS)
        );

        // The workloads BENCHMARK.json names are the frozen ones.
        let Value::Arr(workloads) = json.field("workloads").unwrap() else {
            panic!("workloads is not an array");
        };
        let named: Vec<String> = workloads
            .iter()
            .map(|w| match w.field("name") {
                Ok(Value::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        let frozen: Vec<String> = crate::workloads::all()
            .expect("frozen files match")
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(named, frozen);
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let pass = PassResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|d| Metric {
                    name: d.name,
                    value: 1.5,
                    samples: 1,
                })
                .collect(),
        };
        let parsed = parse_json(&pass.to_json_line(&END_TO_END)).expect("valid JSON");
        let Value::Obj(top) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Ok(Value::Obj(metrics)) = parsed.field("metrics") else {
            panic!("no metrics")
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(printed, declared);
    }

    #[test]
    fn round_percentiles_are_taken_per_block_and_shrug_off_noisy_reps() {
        let rep = |ms: f64, n: usize| Rep {
            setup_s: 0.0,
            step_ms: (0..n).map(|i| ms + i as f64 / n as f64).collect(),
            step_alloc_events: 0,
            peak_bytes: 0,
            result_bytes: 0,
            final_accuracy: 0.0,
            sim_makespan_s: 0.0,
            digest: String::new(),
            errors: Vec::new(),
            detail: None,
        };
        // Two quiet 100-sample reps and four hit by interference: the
        // lower quartile over the six blocks still reads the quiet ~10.9.
        let mut reps: Vec<Rep> = (0..4).map(|_| rep(50.0, 100)).collect();
        reps.extend((0..2).map(|_| rep(10.0, 100)));
        assert!((blocked_percentile(&reps, 90.0) - 10.89).abs() < 1e-9);
        // A slowdown of every rep moves it in full.
        let slow: Vec<Rep> = (0..6).map(|_| rep(12.0, 100)).collect();
        assert!((blocked_percentile(&slow, 90.0) - 12.89).abs() < 1e-9);
        // 25-sample reps pool four to a block; the fifth joins it, so the
        // percentile never rests on fewer than 100 samples.
        let short: Vec<Rep> = (0..5).map(|_| rep(10.0, 25)).collect();
        assert!((blocked_percentile(&short, 90.0) - 10.88).abs() < 1e-9);
        // Fewer than a block (a --quick run) is simply pooled.
        assert!((blocked_percentile(&short[..1], 50.0) - 10.48).abs() < 1e-9);
    }

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound.
        assert_eq!(judge(&steady, &[103.0], Lower, 0.07).0, Verdict::Ok);
        // Lower-is-better metric that rose by 10%.
        let (verdict, change) = judge(&steady, &[110.0], Lower, 0.07);
        assert_eq!(verdict, Verdict::Worse);
        assert!((change - 0.10).abs() < 1e-9);
        // Higher-is-better metric that rose is an improvement.
        assert_eq!(judge(&steady, &[110.0], Higher, 0.07).0, Verdict::Ok);
        assert_eq!(judge(&steady, &[90.0], Higher, 0.07).0, Verdict::Worse);
        // A parent noisier than the bound resolves nothing...
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[101.0], Lower, 0.07).0, Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(judge(&noisy, &[70.0, 75.0], Lower, 0.07).0, Verdict::Ok);
    }
}
