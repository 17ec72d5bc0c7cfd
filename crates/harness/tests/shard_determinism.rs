//! Property: for a random manifest, the union of `--shard i/N` outputs
//! merges to a `summary.json` byte-identical to the unsharded run's —
//! at every thread count. This is the harness's core guarantee: fleets
//! can fan across processes and cores with zero coordination and still
//! produce one canonical artifact.

mod common;
use bfl_harness::{merge_shards, run_fleet, write_outputs, Manifest, Shard};
use bfl_ml::par;
use common::TempDir;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Builds a small manifest varied by the proptest inputs: one axis over
/// the low-contribution strategy, optionally a second axis toggling fair
/// aggregation, the event-driven engine behind `quota` (0 = lockstep),
/// two seeds. The `keep` cells inject no attacker, so the summaries carry
/// an absent detection rate (`null`) through the merge.
fn build_manifest(rounds: usize, quota: usize, two_axes: bool, seed0: u64) -> Manifest {
    let sync = match quota {
        0 => r#""Synchronous""#.to_string(),
        quota => format!(r#"{{"FlexibleQuota": {{"quota": {quota}}}}}"#),
    };
    let fair_axis = if two_axes {
        r#",
        {"axis": "fair", "cells": [
            {"label": "fair", "set": {"fair_aggregation": true}},
            {"label": "simple", "set": {"fair_aggregation": false}}
        ]}"#
    } else {
        ""
    };
    let text = format!(
        r#"{{
        "name": "prop",
        "dataset": {{"train_samples": 80, "test_samples": 30, "data_seed": 7}},
        "base": {{
            "fl": {{
                "clients": 4, "rounds": {rounds}, "participation_ratio": 1.0,
                "local": {{"epochs": 1, "batch_size": 10}}
            }},
            "verify_signatures": false, "sync": {sync},
            "attack": {{"enabled": true, "min_attackers": 1, "max_attackers": 1}}
        }},
        "grid": [
            {{"axis": "strategy", "cells": [
                {{"label": "keep", "set": {{"strategy": "Keep", "attack": {{"enabled": false}}}}}},
                {{"label": "discard", "set": {{"strategy": "Discard"}}}}
            ]}}{fair_axis}
        ],
        "seeds": [{seed0}, {}]
    }}"#,
        seed0 + 1
    );
    Manifest::from_json(&text).expect("generated manifest is valid")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sharded_runs_merge_to_the_unsharded_summary(
        rounds in 1..3usize,
        quota in 0..4usize,
        two_axes in proptest::prelude::any::<bool>(),
        seed0 in 0..50u64,
        shards in 2..4usize,
    ) {
        let manifest = build_manifest(rounds, quota, two_axes, seed0);
        let tag = format!("{rounds}_{quota}_{two_axes}_{seed0}_{shards}");
        let tmp = TempDir::new(&tag);

        // The reference: one process, one thread.
        let full_dir = tmp.path().join("full");
        let records = par::with_thread_limit(1, || run_fleet(&manifest, Shard::default(), 0))
            .expect("unsharded fleet runs");
        write_outputs(&manifest, Shard::default(), &records, &full_dir)
            .expect("unsharded outputs write");
        let reference = read(full_dir.join("summary.json"));
        prop_assert!(reference.contains(r#""detection_rate": null"#), "{}", reference);

        // N shard processes, at 1 and 2 worker threads each: every
        // combination must merge back to the reference bytes.
        for threads in [1usize, 2] {
            let mut shard_dirs = Vec::new();
            for index in 0..shards {
                let shard = Shard { index, count: shards };
                let dir = tmp.path().join(format!("t{threads}_shard{index}"));
                let records = par::with_thread_limit(threads, || run_fleet(&manifest, shard, 0))
                    .expect("shard runs");
                write_outputs(&manifest, shard, &records, &dir).expect("shard outputs write");
                prop_assert!(
                    !dir.join("summary.json").exists(),
                    "a shard must not write a summary"
                );
                shard_dirs.push(dir);
            }
            let merged_dir = tmp.path().join(format!("t{threads}_merged"));
            let refs: Vec<&Path> = shard_dirs.iter().map(PathBuf::as_path).collect();
            merge_shards(&refs, &merged_dir).expect("shards merge");
            let merged = read(merged_dir.join("summary.json"));
            prop_assert_eq!(
                &merged,
                &reference,
                "merged summary diverged at {} threads x {} shards",
                threads,
                shards
            );
        }
    }
}

#[test]
fn merge_rejects_an_incomplete_shard_set() {
    let manifest = build_manifest(1, 0, false, 0);
    let tmp = TempDir::new("incomplete");
    let shard = Shard { index: 0, count: 2 };
    let dir = tmp.path().join("shard0");
    let records = par::with_thread_limit(1, || run_fleet(&manifest, shard, 0)).expect("shard runs");
    write_outputs(&manifest, shard, &records, &dir).expect("shard outputs write");
    let err = merge_shards(&[dir.as_path()], &tmp.path().join("merged")).unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}
