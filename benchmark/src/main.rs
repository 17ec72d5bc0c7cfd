//! The repo's one end-to-end benchmark. See `benchmark/README.md` for the
//! workloads, the metrics and how they interact; `BENCHMARK.json` at the
//! repo root is the contract this program is run under:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! untraced and the traced pass run. `--quick` is a seconds-long smoke of
//! the same code; `--compare a b` judges two saved logs.

mod alloc;
mod engine;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use engine::{run_rep, Rep};
use report::{PassResult, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator::new();

/// `run_seconds` of BENCHMARK.json: how long one pass measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1>] [--quick]\n       benchmark --compare <a.log> <b.log>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Rounds attempted and failed over `reps`: a failed rep fails all of its
/// rounds.
fn tally<'a>(workload: &Workload, reps: impl Iterator<Item = &'a Rep>) -> (usize, usize) {
    let (mut attempted, mut failed) = (0, 0);
    for rep in reps {
        attempted += workload.rounds();
        if !rep.errors.is_empty() {
            failed += workload.rounds();
        }
    }
    (attempted, failed)
}

fn print_errors(label: &str, rep: &Rep) {
    for error in &rep.errors {
        println!("  FAILED {label}: {error}");
    }
}

/// The untraced pass: reps of the workload back to back, tracing off,
/// until `seconds` are used up. The first `workload.reps` reps run under
/// `seed`, `seed + 1`, ... and are the ones counts are read from; the
/// next rep re-runs `seed`, so every run checks that the program is
/// deterministic; reps after that continue the seed sequence.
fn untraced_pass(workload: &Workload, seed: u64, seconds: f64) -> PassResult {
    let started = Instant::now();
    let mut off = Recorder::off();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() <= workload.reps || started.elapsed().as_secs_f64() < seconds {
        let offset = match reps.len() {
            i if i < workload.reps => i,
            i if i == workload.reps => 0,
            i => i - 1,
        };
        let rep_seed = seed.wrapping_add(offset as u64);
        let rep = run_rep(workload, rep_seed, &mut off);
        print_errors(&format!("rep {} (seed {rep_seed})", reps.len()), &rep);
        reps.push(rep);
    }
    let stable = reps[0].digest == reps[workload.reps].digest;
    if !stable {
        println!("  FAILED: two runs of seed {seed} gave different digests");
    }
    println!("  digest[seed {seed}] {}", reps[0].digest);
    println!("  result_digest_stable {}", stable as u8);
    let counted = &reps[..workload.reps];
    println!(
        "  final_accuracy {:.6} (mean of {} counted reps; gated per rep at {:.2}, not a bounded metric)",
        counted.iter().map(|r| r.final_accuracy).sum::<f64>() / counted.len() as f64,
        counted.len(),
        workload.accuracy_floor
    );
    let samples = reps.len() * workload.rounds();
    match stats::highest_supported_percentile(samples) {
        Some(p) if p >= 90.0 => {}
        _ => println!("  note: {samples} round samples are too few to support p90"),
    }
    let (attempted, failed) = tally(workload, reps.iter());
    PassResult {
        correct: failed == 0 && stable,
        attempted,
        failed,
        metrics: report::end_to_end(workload, &reps),
    }
}

/// The traced pass: rep 0 untraced then traced (same digest required, the
/// pair repeated while `seconds / 2` last so the overhead estimate pools
/// more rounds), then the layer replay; spans go to
/// `benchmark/out/trace_<workload>.json`.
fn traced_pass(workload: &Workload, seed: u64, seconds: f64) -> PassResult {
    let started = Instant::now();
    let mut rec = Recorder::on();
    // Only the first traced rep lands in the trace file; later ones record
    // into a spare so each round appears there once.
    let mut spare = Recorder::on();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while traced.is_empty() || started.elapsed().as_secs_f64() < seconds / 2.0 {
        plain.push(run_rep(workload, seed, &mut Recorder::off()));
        let into = if traced.is_empty() {
            &mut rec
        } else {
            &mut spare
        };
        traced.push(run_rep(workload, seed, into));
    }
    let first = &traced[0];
    print_errors("untraced rep", &plain[0]);
    print_errors("traced rep", first);
    let same_digest = plain
        .iter()
        .chain(&traced)
        .all(|r| r.digest == first.digest);
    if !same_digest {
        println!("  FAILED: the traced run's digest differs from the untraced run's");
    }
    println!("  digest[seed {seed}] {}", first.digest);

    let mut replay_ok = true;
    if let (Some(detail), true) = (&first.detail, first.errors.is_empty()) {
        match replay::replay(workload, seed, &detail.shapes, &mut rec) {
            Err(e) => {
                replay_ok = false;
                println!("  FAILED: the layer replay stopped: {e}");
            }
            Ok(replayed) if workload.config.sync.is_synchronous() => {
                let sealed = detail.outcomes.iter().map(|o| o.block_hash.as_deref());
                replay_ok = replayed
                    .block_hashes
                    .iter()
                    .map(|h| Some(h.as_str()))
                    .eq(sealed)
                    && replayed.final_params == detail.final_params;
                println!("  replay_bit_identical {}", replay_ok as u8);
            }
            Ok(_) => println!("  replay is shape-equivalent only (event engine)"),
        }
    }

    let pool = |reps: &[Rep]| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| r.step_ms.iter().copied())
            .collect()
    };
    let metrics = report::per_layer(first, &pool(&plain), &pool(&traced), &rec);
    let of = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let share = |ms: f64, of_ms: f64| 100.0 * report::ratio(ms, of_ms);
    let round = of("replay.round_ms");
    println!(
        "  shares of replay.round_ms: local_update {:.0}%, eval {:.0}%, upload {:.0}%, \
         global_update {:.0}%, mining {:.0}%; serial sign+verify probes = {:.0}% of \
         core.engine.step_ms",
        share(of("core.local_update_ms"), round),
        share(of("ml.eval_ms"), round),
        share(of("core.upload_ms"), round),
        share(of("core.global_update_ms"), round),
        share(of("core.mining_ms"), round),
        share(
            of("crypto.sign_ms") + of("crypto.verify_ms"),
            of("core.engine.step_ms")
        ),
    );
    let path = format!("benchmark/out/trace_{}.json", workload.name);
    match std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, rec.chrome_trace_json()))
    {
        Ok(()) => println!("  {} spans written to {path}", rec.spans.len()),
        Err(e) => println!("  note: could not write {path}: {e}"),
    }
    let (attempted, failed) = tally(workload, plain.iter().chain(&traced));
    PassResult {
        correct: failed == 0 && same_digest && replay_ok,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let workloads = match workloads::all() {
        Ok(all) => all,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<Workload> = workloads
        .into_iter()
        .filter(|w| args.workload.as_ref().is_none_or(|name| *name == w.name))
        .map(|w| if args.quick { w.quick() } else { w })
        .collect();
    if selected.is_empty() {
        eprintln!("no workload named {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    // A quick run is one rep (plus its digest re-run), whatever the clock says.
    let seconds = if args.quick { 0.0 } else { args.seconds };

    println!(
        "# closed loop, one driver thread; host_threads={} (bfl_ml::par fan-out), \
         available_parallelism={}",
        bfl_ml::par::max_threads(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if args.quick {
        println!("# --quick: one rep at a fifth of the rounds; numbers are NOT comparable");
    }
    let mut all_correct = true;
    for workload in &selected {
        for trace in [false, true] {
            if args.trace.is_some_and(|only| only != trace) {
                continue;
            }
            println!(
                "{}",
                report::run_header(&workload.name, args.seed, trace, seconds, args.quick)
            );
            let (pass, decls) = if trace {
                (traced_pass(workload, args.seed, seconds), &PER_LAYER[..])
            } else {
                (untraced_pass(workload, args.seed, seconds), &END_TO_END[..])
            };
            pass.print_table(decls);
            all_correct &= pass.correct;
            println!("{}", pass.to_json_line(decls));
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
