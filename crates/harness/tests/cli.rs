//! `bflharness` as an adopter runs it: one child process per command, so
//! an exit code, an abort and the once-per-process `BFL_MAX_THREADS` /
//! `BFL_SIMD` pins are all observable.
//!
//! Two contracts. Every input the CLI must refuse — a manifest the
//! engines cannot run, or a misused command line — is one row of
//! [`REFUSALS`] and fails with its diagnostic, never a panic. And a
//! fleet's `summary.json` is the same bytes at any thread count, SIMD
//! tier or shard split.

mod common;
use common::TempDir;
use std::process::{Child, Command, Output, Stdio};

/// Every input the CLI must refuse, one row a line:
/// `name => input => exit code => needle | needle …`.
///
/// An input that starts with `{` is a manifest, run as `run --manifest
/// DIR/m.json --out DIR/out`; any other is the argument list. `DIR`
/// stands for the row's own directory, empty but for its manifest. Exit 1 is a diagnostic, a stderr line that
/// starts `bflharness: `; exit 2 is misuse, answered with the usage text.
/// A needle that starts `bflharness: ` must be a whole stderr line, any
/// other a part of stderr. No row may print `panicked`.
const REFUSALS: &str = r#"
zero_shards => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"partition":{"ShardNonIid":{"shards_per_client":0}}}},"seeds":[1]} => 1 => base resolves | shards_per_client >= 1, got 0
zero_alpha => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"partition":{"Dirichlet":{"alpha":0}}}},"seeds":[1]} => 1 => base resolves | alpha must be finite and positive, got 0
negative_alpha => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"partition":{"Dirichlet":{"alpha":-2.5}}}},"seeds":[1]} => 1 => base resolves | alpha must be finite and positive, got -2.5
starved => {"name":"bad","dataset":{"train_samples":5,"test_samples":5},"base":{"fl":{"clients":10,"rounds":1,"partition":"Iid"}},"seeds":[1]} => 1 => base resolves | 5 training samples cannot be partitioned over 10 clients
starved_cell => {"name":"bad","dataset":{"train_samples":5,"test_samples":5},"base":{"fl":{"clients":10,"rounds":1,"partition":"Iid"}},"grid":[{"axis":"pop","cells":[{"label":"fits","set":{"fl":{"clients":5}}},{"label":"starved","set":{"fl":{"clients":6}}}]}],"seeds":[1]} => 1 => cell `starved` resolves | 5 training samples cannot be partitioned over 6 clients
misspelt => {"name":"bad","grid":[{"axis":"a","cells":[{"label":"x","set":{"fl":{"local":{"epochs":1}}}},{"label":"y","set":{"fl":{"local":{"epcohs":1}}}}]}],"seeds":[1]} => 1 => bflharness: manifest at `grid[0].cells[1].set.fl.local.epcohs`: unknown key
repeated => {"name":"bad","base":{"fl":{"partition":"Iid"},"fl":{"partition":{"ShardNonIid":{"shards_per_client":3}}}},"seeds":[1]} => 1 => bflharness: manifest at `base.fl`: duplicate key
model_width => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"model":{"SoftmaxRegression":{"features":100,"classes":10}}}},"seeds":[1]} => 1 => base resolves | reads 100 features but the training samples have 784
model_classes => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"model":{"SoftmaxRegression":{"features":784,"classes":5}}}},"seeds":[1]} => 1 => base resolves | scores 5 classes but the training labels take 10
model_empty => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"model":{"SoftmaxRegression":{"features":0,"classes":1}}}},"seeds":[1]} => 1 => base resolves | got 0 features and 1 classes
model_mlp => {"name":"bad","base":{"fl":{"clients":10,"rounds":1,"model":{"Mlp":{"features":784,"hidden":32,"classes":10}}}},"seeds":[1]} => 1 => bflharness: manifest at `base.fl.model`: unknown ModelKind variant `Mlp`
delay_hash_rate => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"delay":{"miner_hash_rate":0.0}},"seeds":[1]} => 1 => base resolves | delay.miner_hash_rate must be finite and positive, got 0
delay_bandwidth => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"delay":{"uplink":{"bandwidth_bytes_per_s":0.0}}},"seeds":[1]} => 1 => base resolves | delay.uplink.bandwidth_bytes_per_s must be finite and positive, got 0
delay_latency => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"delay":{"uplink":{"latency":{"Uniform":{"min":0.4,"max":0.1}}}}},"seeds":[1]} => 1 => base resolves | delay.uplink.latency: uniform delay bounds are inverted
mining_threads => {"name":"bad","base":{"mining_threads":0},"seeds":[1]} => 1 => base resolves | mining_threads must be 1 (the nonce search is serial), got 0
dbscan_eps => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"clustering":{"Dbscan":{"eps":-1.0,"min_points":2}}},"seeds":[1]} => 1 => base resolves | DBSCAN eps must be positive, got -1
dbscan_min_points => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"clustering":{"Dbscan":{"eps":0.3,"min_points":0}}},"seeds":[1]} => 1 => base resolves | DBSCAN min_points must be at least 1, got 0
kmeans_k => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"clustering":{"KMeans":{"k":0,"max_iterations":5}}},"seeds":[1]} => 1 => base resolves | k-means k must be at least 1, got 0
agglomerative_threshold => {"name":"bad","base":{"fl":{"clients":10,"rounds":1},"clustering":{"Agglomerative":{"distance_threshold":-0.1}}},"seeds":[1]} => 1 => base resolves | distance_threshold must be non-negative, got -0.1
metric_euclidean => {"name":"bad","base":{"metric":"Euclidean"},"seeds":[1]} => 1 => bflharness: manifest at `base.metric`: unknown DistanceMetric variant `Euclidean`
clock_lockstep => {"name":"bad","base":{"fl":{"clients":10,"rounds":2},"delay":{"local_step_seconds":1e308}},"seeds":[1]} => 1 => simulation failed | round 1: simulated time reached inf s
clock_event => {"name":"bad","base":{"fl":{"clients":10,"rounds":3},"sync":{"FlexibleQuota":{"quota":3}},"profiles":{"uplink":{"Constant":1e308}}},"seeds":[1]} => 1 => simulation failed | round 2: simulated time reached inf s
clock_chain => {"name":"bad","base":{"fl":{"clients":10,"rounds":2},"mode":"ChainOnly","delay":{"baseline_tx_process_s":1e308}},"seeds":[1]} => 1 => simulation failed | round 1: simulated time reached inf s
reward_base => {"name":"bad","base":{"fl":{"clients":10,"rounds":2},"reward_base":1e17},"seeds":[1]} => 1 => base resolves | reward_base 100000000000000000 pays | past 2^53
shards_overflow => {"name":"bad","base":{"fl":{"clients":2,"rounds":1,"partition":{"ShardNonIid":{"shards_per_client":9223372036854775808}}}},"seeds":[1]} => 1 => base resolves | clients × shards_per_client to fit in usize | shards_per_client 9223372036854775808
chain_tx_bytes => {"name":"bad","base":{"fl":{"clients":4,"rounds":1},"mode":"ChainOnly","delay":{"baseline_tx_bytes":18446744073709551615}},"seeds":[1]} => 1 => base resolves | delay.baseline_tx_bytes must fit in a block | got 18446744073709551615
chain_tx_overflow => {"name":"bad","base":{"fl":{"clients":4,"rounds":1},"mode":"ChainOnly","delay":{"max_block_bytes":18446744073709551615,"baseline_tx_bytes":18446744073709551000}},"seeds":[1]} => 1 => simulation failed | delay.baseline_tx_bytes = 18446744073709551000 cannot be allocated
chain_tx_alloc => {"name":"bad","base":{"fl":{"clients":4,"rounds":1},"mode":"ChainOnly","delay":{"max_block_bytes":4611686018427387904,"baseline_tx_bytes":4611686018427387904}},"seeds":[1]} => 1 => simulation failed | delay.baseline_tx_bytes = 4611686018427387904 cannot be allocated
rsa_modulus => {"name":"bad","base":{"rsa_modulus_bits":18446744073709551615},"seeds":[1]} => 1 => base resolves | rsa_modulus_bits 18446744073709551615 is past the maximum 16384
unknown_flag => run --bogus => 2 => bflharness: unknown flag `--bogus`
manifest_without_value => run --manifest => 2 => bflharness: --manifest needs a value
shard_out_of_range => run --shard 2/2 => 1 => bflharness: shard index 2 out of range for /2
threads_not_an_integer => run --threads two => 1 => bflharness: --threads `two` is not an integer
merge_without_out => merge DIR => 2 => usage:
report_without_summary => report DIR => 1 => cannot read | summary.json
"#;

/// A pin: the environment a run starts with.
type Pin<'a> = &'a [(&'a str, &'a str)];

/// `bflharness` with `args` and its output captured, under `pin` alone
/// whatever pins the test process has set.
fn bflharness<I: AsRef<std::ffi::OsStr>>(args: impl IntoIterator<Item = I>, pin: Pin) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_bflharness"));
    command.env_remove("BFL_MAX_THREADS").env_remove("BFL_SIMD");
    command.args(args).envs(pin.iter().copied());
    command.stdout(Stdio::piped()).stderr(Stdio::piped());
    command
}

/// Fails the test unless the finished run exited 0.
fn succeed(output: std::io::Result<Output>, what: &str) -> Output {
    let output = output.expect("bflharness runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{what}: {stderr}");
    output
}

#[test]
fn every_refusal_exits_with_its_diagnostic_and_no_panic() {
    let tmp = TempDir::new("refusals");
    for row in REFUSALS.lines().skip(1) {
        let [name, input, exit, needles] = row.split(" => ").collect::<Vec<_>>()[..] else {
            panic!("malformed row: {row}");
        };
        let dir = tmp.path().join(name);
        std::fs::create_dir(&dir).expect("create the row's directory");
        let command = if input.starts_with('{') {
            std::fs::write(dir.join("m.json"), input).expect("write the row's manifest");
            "run --manifest DIR/m.json --out DIR/out"
        } else {
            input
        };
        let dir = dir.display().to_string();
        let args = command.split(' ').map(|word| word.replace("DIR", &dir));
        let output = bflharness(args, &[]).output().expect("bflharness runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let exit: i32 = exit.parse().expect("an exit code");
        assert_eq!(output.status.code(), Some(exit), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        let answer = if exit == 1 { "bflharness: " } else { "usage:" };
        let answered = stderr.lines().any(|line| line.starts_with(answer));
        assert!(answered, "{name}: exit {exit} without `{answer}`: {stderr}");
        for needle in needles.split(" | ") {
            let whole_line = needle.starts_with("bflharness: ");
            let found =
                stderr.lines().any(|line| line == needle) || !whole_line && stderr.contains(needle);
            assert!(found, "{name}: `{needle}` in: {stderr}");
        }
    }
}

/// Runs `scenarios/<scenario>.json` once per leg, `(label, pin, extra
/// arguments)`, and once per shard of each sharding, `(shard count,
/// pin)`, each run a process of its own and all at once, then merges each
/// sharding's shards. Every leg's `summary.json` and every merged one must
/// be the first leg's bytes.
fn assert_runs_agree(
    tmp: &TempDir,
    scenario: &str,
    legs: &[(&str, Pin, &[&str])],
    shardings: &[(usize, Pin)],
) {
    let manifest = format!("../../scenarios/{scenario}.json");
    let out = |label: &str| tmp.path().join(label).display().to_string();
    let run = |label: &str, pin: Pin, extra: &[&str]| {
        let args = ["run", "--manifest", &manifest, "--out", &out(label)];
        bflharness(args.iter().chain(extra), pin).spawn()
    };
    let shard = |index: usize, count: usize| format!("shard{index}of{count}");
    let mut children: Vec<_> = legs
        .iter()
        .map(|&(label, pin, extra)| (label.to_string(), run(label, pin, extra)))
        .collect();
    for &(count, pin) in shardings {
        for index in 0..count {
            let arg = format!("{index}/{count}");
            let child = run(&shard(index, count), pin, &["--shard", &arg]);
            children.push((shard(index, count), child));
        }
    }
    // Every run finishes before any is judged, so none outlives the test.
    let finished: Vec<_> = children
        .into_iter()
        .map(|(label, child)| (label, child.and_then(Child::wait_with_output)))
        .collect();
    for (label, output) in finished {
        succeed(output, &format!("{scenario} {label}"));
    }
    let mut labels: Vec<String> = legs.iter().map(|leg| leg.0.to_string()).collect();
    for &(count, _) in shardings {
        let label = format!("merged{count}");
        let shards = (0..count).map(|index| out(&shard(index, count)));
        let args = ["merge".into()].into_iter().chain(shards);
        let mut merge = bflharness(args.chain(["--out".into(), out(&label)]), &[]);
        succeed(merge.output(), &format!("{scenario} {label}"));
        labels.push(label);
    }
    let summary = |label: &str| {
        let path = tmp.path().join(label).join("summary.json");
        std::fs::read(path).unwrap_or_else(|e| panic!("{scenario} {label}: {e}"))
    };
    let (first, reference) = (&labels[0], summary(&labels[0]));
    for label in &labels[1..] {
        let same = summary(label) == reference;
        assert!(
            same,
            "{scenario}: `{label}`'s summary.json differs from `{first}`'s"
        );
    }
}

/// The smoke fleet unpinned, at one, two and eight workers, on the scalar
/// tier, as two shards merged and as four; `report` renders it.
///
/// A fleet that fans its jobs out runs each job as a worker, so the
/// engine's own fan-outs inside a job stay serial at any pin. A one-job
/// shard runs its job on the calling thread instead: the four shards at
/// eight workers are the runs whose engine fan-outs (each round's local
/// passes) split across workers.
#[test]
fn the_smoke_fleet_is_the_same_bytes_pinned_or_sharded() {
    let tmp = TempDir::new("smoke");
    let eight: Pin = &[("BFL_MAX_THREADS", "8")];
    assert_runs_agree(
        &tmp,
        "smoke",
        &[
            ("plain", &[], &[]),
            ("threads1", &[("BFL_MAX_THREADS", "1")], &[]),
            ("threads2", &[("BFL_MAX_THREADS", "2")], &[]),
            ("threads8", eight, &[]),
            ("scalar", &[("BFL_SIMD", "off")], &[]),
        ],
        &[(2, &[]), (4, eight)],
    );
    let plain = tmp.path().join("plain");
    let report = succeed(bflharness(["report".into(), plain], &[]).output(), "report");
    let header = "| cell | mean round delay (s) | final accuracy | detection rate | reward Gini |";
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.lines().any(|line| line == header), "{stdout}");
}

/// The drop × partition grid reaches retries, strands, secondary seals
/// and heals: unsharded, as two shards merged, and on one worker.
#[test]
fn the_fault_grid_is_the_same_bytes_sharded_or_on_one_thread() {
    let tmp = TempDir::new("faults");
    let legs: &[(&str, Pin, &[&str])] =
        &[("plain", &[], &[]), ("threads1", &[], &["--threads", "1"])];
    assert_runs_agree(&tmp, "fault_resilience", legs, &[(2, &[])]);
}
