//! `bflharness` — run, merge and report manifest-driven experiment fleets.
//!
//! ```text
//! bflharness run --manifest m.json --out dir/ [--shard i/N] [--threads T]
//! bflharness merge <shard-dir>... --out dir/
//! bflharness report <dir>
//! ```
//!
//! `run` expands the manifest's cells × seeds, executes the jobs this
//! process's shard owns, and writes per-seed KPI series plus (when
//! unsharded) the cross-seed `summary.json` and a `timing.json` wall
//! -clock report. `merge` folds shard directories into a summary
//! byte-identical to the unsharded run's. `report` prints the summary a
//! run or a merge wrote as one markdown table.

use bfl_harness::runner::{to_pretty_json, write_text};
use bfl_harness::{merge_shards, report, run_fleet, write_outputs, Manifest, Shard, Summary};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  bflharness run --manifest <m.json> --out <dir> \
         [--shard i/N] [--threads T]\n  bflharness merge <dir>... --out <dir>\n  \
         bflharness report <dir>"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("bflharness: {message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("merge") => merge_command(&args[1..]),
        Some("report") => report_command(&args[1..]),
        _ => usage(),
    }
}

fn run_command(args: &[String]) {
    let mut manifest_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut shard = Shard::default();
    let mut threads = 0usize;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("bflharness: {name} needs a value");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--manifest" => manifest_path = Some(PathBuf::from(value("--manifest"))),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--shard" => {
                let text = value("--shard");
                shard = Shard::parse(&text).unwrap_or_else(|e| fail(e));
            }
            "--threads" => {
                let text = value("--threads");
                threads = text
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--threads `{text}` is not an integer")));
            }
            other => {
                eprintln!("bflharness: unknown flag `{other}`");
                usage();
            }
        }
    }
    let (Some(manifest_path), Some(out)) = (manifest_path, out) else {
        usage();
    };

    let text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| fail(format!("cannot read `{}`: {e}", manifest_path.display())));
    let manifest = Manifest::from_json(&text).unwrap_or_else(|e| fail(e));
    eprintln!(
        "fleet `{}`: {} cells x {} seeds = {} runs (shard {}/{})",
        manifest.name,
        manifest.cells.len(),
        manifest.seeds.len(),
        manifest.total_runs(),
        shard.index,
        shard.count,
    );

    let started = Instant::now();
    let records = run_fleet(&manifest, shard, threads).unwrap_or_else(|e| fail(e));
    let elapsed = started.elapsed().as_secs_f64();
    write_outputs(&manifest, shard, &records, &out).unwrap_or_else(|e| fail(e));

    let timing = TimingReport {
        fleet: manifest.name.clone(),
        runs: records.len(),
        shard: format!("{}/{}", shard.index, shard.count),
        threads: if threads == 0 {
            bfl_ml::par::max_threads()
        } else {
            threads
        },
        wall_s: elapsed,
        runs_per_s: if elapsed > 0.0 {
            records.len() as f64 / elapsed
        } else {
            0.0
        },
    };
    write_text(&out.join("timing.json"), &to_pretty_json(&timing)).unwrap_or_else(|e| fail(e));

    eprintln!(
        "wrote {} runs to `{}` in {elapsed:.2}s",
        records.len(),
        out.display()
    );
}

#[derive(serde::Serialize)]
struct TimingReport {
    fleet: String,
    runs: usize,
    shard: String,
    threads: usize,
    wall_s: f64,
    runs_per_s: f64,
}

fn merge_command(args: &[String]) {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => usage(),
            },
            flag if flag.starts_with("--") => {
                eprintln!("bflharness: unknown flag `{flag}`");
                usage();
            }
            dir => inputs.push(PathBuf::from(dir)),
        }
    }
    let Some(out) = out else { usage() };
    if inputs.is_empty() {
        usage();
    }

    let input_refs: Vec<&Path> = inputs.iter().map(PathBuf::as_path).collect();
    let summary = merge_shards(&input_refs, &out).unwrap_or_else(|e| fail(e));
    eprintln!(
        "merged {} inputs into `{}` ({} cells x {} seeds)",
        inputs.len(),
        out.display(),
        summary.cells.len(),
        summary.seeds.len(),
    );
}

fn report_command(args: &[String]) {
    let [dir] = args else { usage() };
    let path = Path::new(dir).join("summary.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(format!("cannot read `{}`: {e}", path.display())));
    let summary: Summary = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(format!("`{}` is not a fleet summary: {e}", path.display())));
    print!("{}", report::render(&summary));
}
