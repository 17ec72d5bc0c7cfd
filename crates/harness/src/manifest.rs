//! The experiment manifest: a JSON description of a scenario fleet.
//!
//! A manifest names a base scenario, a grid of override axes whose cells
//! cross-product into labelled configurations, and a seed fleet. Parsing
//! is **strict**: unknown keys and out-of-range values are hard errors
//! carrying the JSON path of the offending element (`grid[1].cells[0]
//! .set.quota`), because a typo that silently falls back to a default
//! would corrupt a fleet's results without a trace. The vendored serde
//! shim has no `deny_unknown_fields`, so the decoder is hand-rolled over
//! [`serde::Value`]: every object walks through a strict walker that
//! tracks which keys were consumed and rejects the leftovers.
//!
//! ## Schema
//!
//! ```json
//! {
//!   "name": "table2_attack",
//!   "description": "optional free text",
//!   "dataset": {"train_samples": 300, "test_samples": 100, "data_seed": 55930},
//!   "base": { <settings> },
//!   "grid": [
//!     {"axis": "strategy", "cells": [
//!       {"label": "keep", "set": { <settings> }},
//!       {"label": "discard", "set": { <settings> }}
//!     ]}
//!   ],
//!   "seeds": [1, 2, 3]        // or {"range": [0, 5]} = seeds 0..5
//! }
//! ```
//!
//! `dataset`, `base` and `grid` are optional (defaults: a smoke-scale
//! synthetic MNIST, the paper's Section 5.1 configuration, a single
//! unlabelled cell). The recognised settings keys are listed in
//! [`apply_settings`].

use bfl_core::{
    AggregationAnchor, AttackConfig, BflConfig, FlexibilityMode, LowContributionStrategy,
    ReorgPolicy, RetryPolicy, StalenessPolicy, SyncMode,
};
use bfl_fl::config::PartitionKind;
use bfl_net::{DelayDistribution, Partition};
use serde::Value;
use std::fmt;

/// Transparent wrapper so a raw [`Value`] tree can pass through the
/// shim's `from_str`/`to_string_pretty`, which are generic over the
/// `Deserialize`/`Serialize` traits that `Value` itself does not
/// implement.
pub(crate) struct RawJson(pub(crate) Value);

impl serde::Deserialize for RawJson {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(RawJson(value.clone()))
    }
}

impl serde::Serialize for RawJson {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// A manifest parse/validation failure, pinned to a JSON path.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError {
    /// JSON path of the offending element (e.g. `grid[0].cells[1].set.quota`).
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

impl ManifestError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        ManifestError {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest at `{}`: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

/// The synthetic dataset a fleet trains on, shared by every cell and seed
/// (the seed axis varies *scenario* randomness, not the data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Training samples generated.
    pub train_samples: usize,
    /// Held-out test samples generated.
    pub test_samples: usize,
    /// Generator seed for the synthetic data.
    pub data_seed: u64,
}

impl Default for DatasetSpec {
    /// Smoke scale: the same shape the bench suite's `Scale::Smoke` uses.
    fn default() -> Self {
        DatasetSpec {
            train_samples: 300,
            test_samples: 100,
            data_seed: 0xDA7A,
        }
    }
}

/// One expanded grid cell: a label and its fully resolved configuration
/// (before the per-run seed override).
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell label, axis labels joined with `/` (or `base` for an empty grid).
    pub label: String,
    /// The resolved, validated configuration.
    pub config: BflConfig,
}

/// A parsed, expanded, validated experiment manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Manifest name (used in output files).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// The dataset every run trains on.
    pub dataset: DatasetSpec,
    /// Expanded grid cells, in axis-declaration order (last axis fastest).
    pub cells: Vec<CellSpec>,
    /// The seed fleet, in manifest order.
    pub seeds: Vec<u64>,
}

impl Manifest {
    /// Parses and validates a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Manifest, ManifestError> {
        let raw: RawJson = serde_json::from_str(text)
            .map_err(|e| ManifestError::new("", format!("not valid JSON: {e}")))?;
        Self::from_value(&raw.0)
    }

    /// Parses and validates a manifest from a decoded JSON tree.
    pub fn from_value(value: &Value) -> Result<Manifest, ManifestError> {
        let mut root = ObjWalker::new(value, "")?;

        let name = take_string(&mut root, "name")?
            .ok_or_else(|| ManifestError::new("name", "required key is missing"))?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(ManifestError::new(
                "name",
                format!("must be non-empty ASCII [a-zA-Z0-9_], got `{name}`"),
            ));
        }
        let description = take_string(&mut root, "description")?.unwrap_or_default();

        let dataset = match root.take("dataset") {
            Some(value) => parse_dataset(value, "dataset")?,
            None => DatasetSpec::default(),
        };

        let mut base = BflConfig::default();
        if let Some(value) = root.take("base") {
            apply_settings(&mut base, value, "base")?;
        }

        let axes = match root.take("grid") {
            Some(value) => parse_grid(value, "grid")?,
            None => Vec::new(),
        };
        let cells = expand_cells(&base, &axes, &dataset)?;

        let seeds = match root.take("seeds") {
            Some(value) => parse_seeds(value, "seeds")?,
            None => return Err(ManifestError::new("seeds", "required key is missing")),
        };

        root.finish()?;
        Ok(Manifest {
            name,
            description,
            dataset,
            cells,
            seeds,
        })
    }

    /// Total number of runs (cells × seeds).
    pub fn total_runs(&self) -> usize {
        self.cells.len() * self.seeds.len()
    }
}

/// One grid axis before expansion.
struct Axis {
    cells: Vec<(String, BflConfigPatch)>,
}

/// A cell's raw `set` object, kept unparsed so it can be re-applied on
/// top of every combination of the other axes (the same JSON may be valid
/// against one combination and out-of-range against another — for
/// example a quota exceeding a reduced client count).
struct BflConfigPatch {
    value: Value,
    path: String,
}

fn parse_dataset(value: &Value, path: &str) -> Result<DatasetSpec, ManifestError> {
    let mut walker = ObjWalker::new(value, path)?;
    let mut spec = DatasetSpec::default();
    if let Some(n) = take_usize(&mut walker, "train_samples")? {
        require(n >= 1, walker.key_path("train_samples"), "must be >= 1")?;
        spec.train_samples = n;
    }
    if let Some(n) = take_usize(&mut walker, "test_samples")? {
        require(n >= 1, walker.key_path("test_samples"), "must be >= 1")?;
        spec.test_samples = n;
    }
    if let Some(seed) = take_u64(&mut walker, "data_seed")? {
        spec.data_seed = seed;
    }
    walker.finish()?;
    Ok(spec)
}

fn parse_grid(value: &Value, path: &str) -> Result<Vec<Axis>, ManifestError> {
    let axes_json = as_array(value, path)?;
    let mut axes = Vec::with_capacity(axes_json.len());
    for (i, axis_json) in axes_json.iter().enumerate() {
        let axis_path = format!("{path}[{i}]");
        let mut walker = ObjWalker::new(axis_json, &axis_path)?;
        // The axis name is descriptive only; labels carry the identity.
        let _axis_name = take_string(&mut walker, "axis")?.ok_or_else(|| {
            ManifestError::new(walker.key_path("axis"), "required key is missing")
        })?;
        let cells_value = walker.take("cells").ok_or_else(|| {
            ManifestError::new(walker.key_path("cells"), "required key is missing")
        })?;
        let cells_path = walker.key_path("cells");
        let cells_json = as_array(cells_value, &cells_path)?;
        if cells_json.is_empty() {
            return Err(ManifestError::new(cells_path, "axis has no cells"));
        }
        let mut cells = Vec::with_capacity(cells_json.len());
        for (j, cell_json) in cells_json.iter().enumerate() {
            let cell_path = format!("{cells_path}[{j}]");
            let mut cell_walker = ObjWalker::new(cell_json, &cell_path)?;
            let label = take_string(&mut cell_walker, "label")?.ok_or_else(|| {
                ManifestError::new(cell_walker.key_path("label"), "required key is missing")
            })?;
            if label.is_empty() || label.contains('/') {
                return Err(ManifestError::new(
                    cell_walker.key_path("label"),
                    format!("must be non-empty and `/`-free, got `{label}`"),
                ));
            }
            if cells.iter().any(|(existing, _)| *existing == label) {
                return Err(ManifestError::new(
                    cell_walker.key_path("label"),
                    format!("duplicate label `{label}` on this axis"),
                ));
            }
            let set_value = cell_walker.take("set").ok_or_else(|| {
                ManifestError::new(cell_walker.key_path("set"), "required key is missing")
            })?;
            let set_path = cell_walker.key_path("set");
            cells.push((
                label,
                BflConfigPatch {
                    value: set_value.clone(),
                    path: set_path,
                },
            ));
            cell_walker.finish()?;
        }
        axes.push(Axis { cells });
        walker.finish()?;
    }
    Ok(axes)
}

/// Cross-products the axes (declaration order, last axis fastest) into
/// labelled cells, applying each combination's patches on top of the base
/// configuration and validating the result against the fleet's dataset.
fn expand_cells(
    base: &BflConfig,
    axes: &[Axis],
    dataset: &DatasetSpec,
) -> Result<Vec<CellSpec>, ManifestError> {
    if axes.is_empty() {
        validate_config(base, dataset, "base")?;
        return Ok(vec![CellSpec {
            label: "base".to_string(),
            config: *base,
        }]);
    }
    let total: usize = axes.iter().map(|a| a.cells.len()).product();
    let mut cells = Vec::with_capacity(total);
    let mut indices = vec![0usize; axes.len()];
    loop {
        let mut config = *base;
        let mut labels = Vec::with_capacity(axes.len());
        for (axis, &pick) in axes.iter().zip(indices.iter()) {
            let (label, patch) = &axis.cells[pick];
            labels.push(label.as_str());
            apply_settings(&mut config, &patch.value, &patch.path)?;
        }
        let label = labels.join("/");
        validate_config(&config, dataset, &format!("cell `{label}`"))?;
        cells.push(CellSpec { label, config });

        // Odometer step: last axis fastest.
        let mut axis = axes.len();
        loop {
            if axis == 0 {
                return Ok(cells);
            }
            axis -= 1;
            indices[axis] += 1;
            if indices[axis] < axes[axis].cells.len() {
                break;
            }
            indices[axis] = 0;
        }
    }
}

fn validate_config(
    config: &BflConfig,
    dataset: &DatasetSpec,
    what: &str,
) -> Result<(), ManifestError> {
    // The second check is the one the engine makes when a run meets its
    // data; made here, the message names the cell.
    config
        .validate()
        .and_then(|()| config.validate_for_dataset(dataset.train_samples))
        .map_err(|e| ManifestError::new("", format!("{what} resolves to an invalid scenario: {e}")))
}

fn parse_seeds(value: &Value, path: &str) -> Result<Vec<u64>, ManifestError> {
    let seeds = match value {
        Value::Arr(items) => {
            let mut seeds = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                seeds.push(as_u64(item, &format!("{path}[{i}]"))?);
            }
            seeds
        }
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let range_value = walker.take("range").ok_or_else(|| {
                ManifestError::new(walker.key_path("range"), "required key is missing")
            })?;
            let range_path = walker.key_path("range");
            let bounds = as_array(range_value, &range_path)?;
            if bounds.len() != 2 {
                return Err(ManifestError::new(
                    range_path,
                    format!("must be a [lo, hi) pair, got {} elements", bounds.len()),
                ));
            }
            let lo = as_u64(&bounds[0], &format!("{range_path}[0]"))?;
            let hi = as_u64(&bounds[1], &format!("{range_path}[1]"))?;
            require(lo < hi, &range_path, "must satisfy lo < hi")?;
            walker.finish()?;
            (lo..hi).collect()
        }
        other => {
            return Err(ManifestError::new(
                path,
                format!(
                    "expected a seed array or {{\"range\": [lo, hi]}}, found {}",
                    other.kind()
                ),
            ));
        }
    };
    if seeds.is_empty() {
        return Err(ManifestError::new(path, "at least one seed is required"));
    }
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err(ManifestError::new(path, "seeds must be distinct"));
    }
    Ok(seeds)
}

/// Applies one `settings` object onto `config`. Recognised keys:
///
/// | key | value | target |
/// |---|---|---|
/// | `clients` | uint ≥ 1 | `fl.clients` |
/// | `rounds` | uint ≥ 1 | `fl.rounds` |
/// | `participation_ratio` | float in (0, 1] | `fl.participation_ratio` |
/// | `local_epochs` | uint ≥ 1 | `fl.local.epochs` |
/// | `learning_rate` | float > 0 | `fl.local.learning_rate` |
/// | `batch_size` | uint ≥ 1 | `fl.local.batch_size` |
/// | `drop_percent` | float in [0, 1) — a fraction despite the name: `0.02` is FedProx-Drop(0.02) | `fl.drop_percent` |
/// | `partition` | `"iid"` \| `{"shards_per_client": n}` \| `{"dirichlet_alpha": a}` | `fl.partition` |
/// | `miners` | uint ≥ 1 | `miners` |
/// | `mode` | `"full"` \| `"fl-only"` \| `"chain-only"` | `mode` |
/// | `strategy` | `"keep"` \| `"discard"` | `strategy` |
/// | `anchor` | `"mean"` \| `"median"` \| `{"trimmed_mean": r}` | `anchor` |
/// | `fair_aggregation` | bool | `fair_aggregation` |
/// | `reward_base` | float ≥ 0 | `reward_base` |
/// | `verify_signatures` | bool | `verify_signatures` |
/// | `rsa_modulus_bits` | uint | `rsa_modulus_bits` |
/// | `discard_cooldown_rounds` | uint | `discard_cooldown_rounds` |
/// | `quota` | uint (0 = synchronous, n ≥ 1 = flexible quota) | `sync` |
/// | `staleness` | `"discard"` \| `{"decay": d}` with d in (0, 1] | `staleness` |
/// | `straggler_slowdown` | float ≥ 1 | `profiles.straggler_slowdown` |
/// | `straggler_fraction` | float in [0, 1] | `profiles.straggler_fraction` |
/// | `churn_fraction` | float in [0, 1] | `profiles.churn_fraction` |
/// | `churn_online_s` | float > 0 | `profiles.churn_online_s` |
/// | `churn_offline_s` | float > 0 | `profiles.churn_offline_s` |
/// | `uplink` | `{"constant": s}` \| `{"uniform": [min, max]}` \| `{"normal": [mean, std]}` \| `{"exponential": mean}` | `profiles.uplink` |
/// | `drop_rate` | float in [0, 1] | `fault.uplink.drop_rate` |
/// | `partition_fault` | `"none"` \| `{"start_s": f, "duration_s": f, "boundary": n}` | `fault.partition` |
/// | `retry` | `"none"` \| `{"max_attempts": n, "timeout_s": f, "base_s": f, "factor": f, "jitter_s": f}` | `retry` |
/// | `reorg` | `"discard"` \| `"salvage"` | `reorg` |
/// | `attack` | `"off"` \| `{"min": a, "max": b}` | `attack` |
///
/// Any other key is a hard error naming the full JSON path. Range checks
/// beyond the table are enforced by [`BflConfig::validate`] once the cell
/// is fully resolved.
pub fn apply_settings(
    config: &mut BflConfig,
    value: &Value,
    path: &str,
) -> Result<(), ManifestError> {
    let mut walker = ObjWalker::new(value, path)?;

    if let Some(n) = take_usize(&mut walker, "clients")? {
        config.fl.clients = n;
    }
    if let Some(n) = take_usize(&mut walker, "rounds")? {
        config.fl.rounds = n;
    }
    if let Some(r) = take_f64(&mut walker, "participation_ratio")? {
        config.fl.participation_ratio = r;
    }
    if let Some(n) = take_usize(&mut walker, "local_epochs")? {
        config.fl.local.epochs = n;
    }
    if let Some(lr) = take_f64(&mut walker, "learning_rate")? {
        config.fl.local.learning_rate = lr;
    }
    if let Some(n) = take_usize(&mut walker, "batch_size")? {
        config.fl.local.batch_size = n;
    }
    if let Some(p) = take_f64(&mut walker, "drop_percent")? {
        config.fl.drop_percent = p;
    }
    if let Some(value) = walker.take("partition") {
        let key_path = walker.key_path("partition");
        config.fl.partition = parse_partition_kind(value, &key_path)?;
    }
    if let Some(n) = take_usize(&mut walker, "miners")? {
        config.miners = n;
    }
    if let Some(mode) = take_string(&mut walker, "mode")? {
        config.mode = match mode.as_str() {
            "full" => FlexibilityMode::FullBfl,
            "fl-only" => FlexibilityMode::FlOnly,
            "chain-only" => FlexibilityMode::ChainOnly,
            other => {
                return Err(ManifestError::new(
                    walker.key_path("mode"),
                    format!("expected full | fl-only | chain-only, got `{other}`"),
                ));
            }
        };
    }
    if let Some(strategy) = take_string(&mut walker, "strategy")? {
        config.strategy = match strategy.as_str() {
            "keep" => LowContributionStrategy::Keep,
            "discard" => LowContributionStrategy::Discard,
            other => {
                return Err(ManifestError::new(
                    walker.key_path("strategy"),
                    format!("expected keep | discard, got `{other}`"),
                ));
            }
        };
    }
    if let Some(value) = walker.take("anchor") {
        let key_path = walker.key_path("anchor");
        config.anchor = parse_anchor(value, &key_path)?;
    }
    if let Some(fair) = take_bool(&mut walker, "fair_aggregation")? {
        config.fair_aggregation = fair;
    }
    if let Some(base) = take_f64(&mut walker, "reward_base")? {
        require(base >= 0.0, walker.key_path("reward_base"), "must be >= 0")?;
        config.reward_base = base;
    }
    if let Some(verify) = take_bool(&mut walker, "verify_signatures")? {
        config.verify_signatures = verify;
    }
    if let Some(bits) = take_usize(&mut walker, "rsa_modulus_bits")? {
        config.rsa_modulus_bits = bits;
    }
    if let Some(rounds) = take_usize(&mut walker, "discard_cooldown_rounds")? {
        config.discard_cooldown_rounds = rounds;
    }
    if let Some(quota) = take_usize(&mut walker, "quota")? {
        config.sync = if quota == 0 {
            SyncMode::Synchronous
        } else {
            SyncMode::FlexibleQuota { quota }
        };
    }
    if let Some(value) = walker.take("staleness") {
        let key_path = walker.key_path("staleness");
        config.staleness = parse_staleness(value, &key_path)?;
    }
    if let Some(s) = take_f64(&mut walker, "straggler_slowdown")? {
        config.profiles.straggler_slowdown = s;
    }
    if let Some(f) = take_f64(&mut walker, "straggler_fraction")? {
        config.profiles.straggler_fraction = f;
    }
    if let Some(f) = take_f64(&mut walker, "churn_fraction")? {
        config.profiles.churn_fraction = f;
    }
    if let Some(s) = take_f64(&mut walker, "churn_online_s")? {
        config.profiles.churn_online_s = s;
    }
    if let Some(s) = take_f64(&mut walker, "churn_offline_s")? {
        config.profiles.churn_offline_s = s;
    }
    if let Some(value) = walker.take("uplink") {
        let key_path = walker.key_path("uplink");
        config.profiles.uplink = parse_uplink(value, &key_path)?;
    }
    if let Some(rate) = take_f64(&mut walker, "drop_rate")? {
        config.fault.uplink.drop_rate = rate;
    }
    if let Some(value) = walker.take("partition_fault") {
        let key_path = walker.key_path("partition_fault");
        config.fault.partition = parse_partition_fault(value, &key_path)?;
    }
    if let Some(value) = walker.take("retry") {
        let key_path = walker.key_path("retry");
        config.retry = parse_retry(value, &key_path)?;
    }
    if let Some(reorg) = take_string(&mut walker, "reorg")? {
        config.reorg = match reorg.as_str() {
            "discard" => ReorgPolicy::Discard,
            "salvage" => ReorgPolicy::Salvage,
            other => {
                return Err(ManifestError::new(
                    walker.key_path("reorg"),
                    format!("expected discard | salvage, got `{other}`"),
                ));
            }
        };
    }
    if let Some(value) = walker.take("attack") {
        let key_path = walker.key_path("attack");
        config.attack = parse_attack(value, &key_path)?;
    }

    walker.finish()
}

fn parse_partition_kind(value: &Value, path: &str) -> Result<PartitionKind, ManifestError> {
    match value {
        Value::Str(s) if s == "iid" => Ok(PartitionKind::Iid),
        Value::Str(other) => Err(ManifestError::new(
            path,
            format!("expected `iid` or an object, got `{other}`"),
        )),
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let kind = if let Some(n) = take_usize(&mut walker, "shards_per_client")? {
                PartitionKind::ShardNonIid {
                    shards_per_client: n,
                }
            } else if let Some(alpha) = take_f64(&mut walker, "dirichlet_alpha")? {
                PartitionKind::Dirichlet { alpha }
            } else {
                return Err(ManifestError::new(
                    path,
                    "expected one of shards_per_client | dirichlet_alpha",
                ));
            };
            walker.finish()?;
            Ok(kind)
        }
        other => Err(ManifestError::new(
            path,
            format!("expected a partition kind, found {}", other.kind()),
        )),
    }
}

fn parse_anchor(value: &Value, path: &str) -> Result<AggregationAnchor, ManifestError> {
    match value {
        Value::Str(s) if s == "mean" => Ok(AggregationAnchor::Mean),
        Value::Str(s) if s == "median" => Ok(AggregationAnchor::Median),
        Value::Str(other) => Err(ManifestError::new(
            path,
            format!("expected mean | median | {{\"trimmed_mean\": r}}, got `{other}`"),
        )),
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let ratio = take_f64(&mut walker, "trimmed_mean")?
                .ok_or_else(|| ManifestError::new(path, "expected a trimmed_mean ratio"))?;
            walker.finish()?;
            Ok(AggregationAnchor::TrimmedMean { trim_ratio: ratio })
        }
        other => Err(ManifestError::new(
            path,
            format!("expected an anchor, found {}", other.kind()),
        )),
    }
}

fn parse_staleness(value: &Value, path: &str) -> Result<StalenessPolicy, ManifestError> {
    match value {
        Value::Str(s) if s == "discard" => Ok(StalenessPolicy::Discard),
        Value::Str(other) => Err(ManifestError::new(
            path,
            format!("expected discard | {{\"decay\": d}}, got `{other}`"),
        )),
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let decay = take_f64(&mut walker, "decay")?
                .ok_or_else(|| ManifestError::new(path, "expected a decay factor"))?;
            walker.finish()?;
            Ok(StalenessPolicy::DecayedInclude { decay })
        }
        other => Err(ManifestError::new(
            path,
            format!("expected a staleness policy, found {}", other.kind()),
        )),
    }
}

fn parse_uplink(value: &Value, path: &str) -> Result<DelayDistribution, ManifestError> {
    let mut walker = ObjWalker::new(value, path)?;
    let distribution = if let Some(s) = take_f64(&mut walker, "constant")? {
        DelayDistribution::Constant(s)
    } else if let Some(value) = walker.take("uniform") {
        let pair_path = walker.key_path("uniform");
        let (min, max) = as_f64_pair(value, &pair_path)?;
        DelayDistribution::Uniform { min, max }
    } else if let Some(value) = walker.take("normal") {
        let pair_path = walker.key_path("normal");
        let (mean, std) = as_f64_pair(value, &pair_path)?;
        DelayDistribution::Normal { mean, std }
    } else if let Some(mean) = take_f64(&mut walker, "exponential")? {
        DelayDistribution::Exponential { mean }
    } else {
        return Err(ManifestError::new(
            path,
            "expected one of constant | uniform | normal | exponential",
        ));
    };
    walker.finish()?;
    Ok(distribution)
}

fn parse_partition_fault(value: &Value, path: &str) -> Result<Option<Partition>, ManifestError> {
    match value {
        Value::Str(s) if s == "none" => Ok(None),
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let start_s = take_f64(&mut walker, "start_s")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("start_s"), "required key is missing")
            })?;
            let duration_s = take_f64(&mut walker, "duration_s")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("duration_s"), "required key is missing")
            })?;
            let boundary = take_usize(&mut walker, "boundary")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("boundary"), "required key is missing")
            })?;
            walker.finish()?;
            Ok(Some(Partition {
                start_s,
                duration_s,
                boundary,
            }))
        }
        other => Err(ManifestError::new(
            path,
            format!(
                "expected `none` or a partition object, found {}",
                other.kind()
            ),
        )),
    }
}

fn parse_retry(value: &Value, path: &str) -> Result<RetryPolicy, ManifestError> {
    match value {
        Value::Str(s) if s == "none" => Ok(RetryPolicy::None),
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let max_attempts = take_u64(&mut walker, "max_attempts")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("max_attempts"), "required key is missing")
            })?;
            let max_attempts = u32::try_from(max_attempts).map_err(|_| {
                ManifestError::new(walker.key_path("max_attempts"), "does not fit in u32")
            })?;
            let timeout_s = take_f64(&mut walker, "timeout_s")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("timeout_s"), "required key is missing")
            })?;
            let base_s = take_f64(&mut walker, "base_s")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("base_s"), "required key is missing")
            })?;
            let factor = take_f64(&mut walker, "factor")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("factor"), "required key is missing")
            })?;
            let jitter_s = take_f64(&mut walker, "jitter_s")?.unwrap_or(0.0);
            walker.finish()?;
            Ok(RetryPolicy::Backoff {
                max_attempts,
                timeout_s,
                base_s,
                factor,
                jitter_s,
            })
        }
        other => Err(ManifestError::new(
            path,
            format!(
                "expected `none` or a backoff object, found {}",
                other.kind()
            ),
        )),
    }
}

fn parse_attack(value: &Value, path: &str) -> Result<AttackConfig, ManifestError> {
    match value {
        Value::Str(s) if s == "off" => Ok(AttackConfig {
            enabled: false,
            ..AttackConfig::default()
        }),
        Value::Obj(_) => {
            let mut walker = ObjWalker::new(value, path)?;
            let min = take_usize(&mut walker, "min")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("min"), "required key is missing")
            })?;
            let max = take_usize(&mut walker, "max")?.ok_or_else(|| {
                ManifestError::new(walker.key_path("max"), "required key is missing")
            })?;
            walker.finish()?;
            Ok(AttackConfig {
                enabled: true,
                min_attackers: min,
                max_attackers: max,
                ..AttackConfig::default()
            })
        }
        other => Err(ManifestError::new(
            path,
            format!(
                "expected `off` or {{\"min\": a, \"max\": b}}, found {}",
                other.kind()
            ),
        )),
    }
}

// ---------------------------------------------------------------------------
// The strict object walker and typed extractors.
// ---------------------------------------------------------------------------

/// Walks a JSON object, tracking consumed keys; [`finish`](Self::finish)
/// rejects any leftover with its full path. This is how the decoder gets
/// `deny_unknown_fields` semantics out of the schema-less shim.
struct ObjWalker<'a> {
    path: String,
    entries: Vec<(&'a str, &'a Value, bool)>,
}

impl<'a> ObjWalker<'a> {
    fn new(value: &'a Value, path: &str) -> Result<Self, ManifestError> {
        match value {
            Value::Obj(fields) => Ok(ObjWalker {
                path: path.to_string(),
                entries: fields.iter().map(|(k, v)| (k.as_str(), v, false)).collect(),
            }),
            other => Err(ManifestError::new(
                path,
                format!("expected an object, found {}", other.kind()),
            )),
        }
    }

    /// The path of `key` under this object.
    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Consumes `key`, returning its value when present.
    fn take(&mut self, key: &str) -> Option<&'a Value> {
        self.entries
            .iter_mut()
            .find(|(k, _, _)| *k == key)
            .map(|(_, value, used)| {
                *used = true;
                *value
            })
    }

    /// Errors on the first key no extractor consumed.
    fn finish(self) -> Result<(), ManifestError> {
        match self.entries.iter().find(|(_, _, used)| !used) {
            Some((key, _, _)) => Err(ManifestError::new(
                self.key_path(key),
                "unknown key".to_string(),
            )),
            None => Ok(()),
        }
    }
}

fn require(ok: bool, path: impl Into<String>, message: &str) -> Result<(), ManifestError> {
    if ok {
        Ok(())
    } else {
        Err(ManifestError::new(path, message))
    }
}

fn as_u64(value: &Value, path: &str) -> Result<u64, ManifestError> {
    match value {
        Value::UInt(v) => Ok(*v),
        other => Err(ManifestError::new(
            path,
            format!("expected an unsigned integer, found {}", other.kind()),
        )),
    }
}

fn as_f64(value: &Value, path: &str) -> Result<f64, ManifestError> {
    let v = match value {
        Value::UInt(v) => *v as f64,
        Value::Int(v) => *v as f64,
        Value::Float(v) => *v,
        other => {
            return Err(ManifestError::new(
                path,
                format!("expected a number, found {}", other.kind()),
            ));
        }
    };
    require(v.is_finite(), path, "must be finite")?;
    Ok(v)
}

fn as_bool(value: &Value, path: &str) -> Result<bool, ManifestError> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(ManifestError::new(
            path,
            format!("expected a bool, found {}", other.kind()),
        )),
    }
}

fn as_str<'a>(value: &'a Value, path: &str) -> Result<&'a str, ManifestError> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(ManifestError::new(
            path,
            format!("expected a string, found {}", other.kind()),
        )),
    }
}

fn as_array<'a>(value: &'a Value, path: &str) -> Result<&'a [Value], ManifestError> {
    match value {
        Value::Arr(items) => Ok(items),
        other => Err(ManifestError::new(
            path,
            format!("expected an array, found {}", other.kind()),
        )),
    }
}

fn as_f64_pair(value: &Value, path: &str) -> Result<(f64, f64), ManifestError> {
    let items = as_array(value, path)?;
    if items.len() != 2 {
        return Err(ManifestError::new(
            path,
            format!("expected a two-element array, got {} elements", items.len()),
        ));
    }
    Ok((
        as_f64(&items[0], &format!("{path}[0]"))?,
        as_f64(&items[1], &format!("{path}[1]"))?,
    ))
}

fn take_u64(walker: &mut ObjWalker<'_>, key: &str) -> Result<Option<u64>, ManifestError> {
    match walker.take(key) {
        Some(value) => Ok(Some(as_u64(value, &walker.key_path(key))?)),
        None => Ok(None),
    }
}

fn take_usize(walker: &mut ObjWalker<'_>, key: &str) -> Result<Option<usize>, ManifestError> {
    match take_u64(walker, key)? {
        Some(v) => {
            let v = usize::try_from(v)
                .map_err(|_| ManifestError::new(walker.key_path(key), "does not fit in usize"))?;
            Ok(Some(v))
        }
        None => Ok(None),
    }
}

fn take_f64(walker: &mut ObjWalker<'_>, key: &str) -> Result<Option<f64>, ManifestError> {
    match walker.take(key) {
        Some(value) => Ok(Some(as_f64(value, &walker.key_path(key))?)),
        None => Ok(None),
    }
}

fn take_bool(walker: &mut ObjWalker<'_>, key: &str) -> Result<Option<bool>, ManifestError> {
    match walker.take(key) {
        Some(value) => Ok(Some(as_bool(value, &walker.key_path(key))?)),
        None => Ok(None),
    }
}

fn take_string(walker: &mut ObjWalker<'_>, key: &str) -> Result<Option<String>, ManifestError> {
    match walker.take(key) {
        Some(value) => Ok(Some(as_str(value, &walker.key_path(key))?.to_string())),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!(r#"{{"name": "t", "seeds": [1, 2]{extra}}}"#)
    }

    #[test]
    fn minimal_manifest_parses_to_one_base_cell() {
        let manifest = Manifest::from_json(&minimal("")).unwrap();
        assert_eq!(manifest.name, "t");
        assert_eq!(manifest.cells.len(), 1);
        assert_eq!(manifest.cells[0].label, "base");
        assert_eq!(manifest.cells[0].config, BflConfig::default());
        assert_eq!(manifest.seeds, vec![1, 2]);
        assert_eq!(manifest.total_runs(), 2);
        assert_eq!(manifest.dataset, DatasetSpec::default());
    }

    #[test]
    fn unknown_root_key_is_rejected_with_its_path() {
        let err = Manifest::from_json(&minimal(r#", "sedes": [3]"#)).unwrap_err();
        assert_eq!(err.path, "sedes");
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn unknown_setting_key_carries_the_full_path() {
        let err = Manifest::from_json(&minimal(r#", "base": {"client": 5}"#)).unwrap_err();
        assert_eq!(err.path, "base.client");
    }

    #[test]
    fn unknown_key_inside_a_grid_cell_names_the_cell() {
        let err = Manifest::from_json(&minimal(
            r#", "grid": [{"axis": "a", "cells": [{"label": "x", "set": {"qotta": 3}}]}]"#,
        ))
        .unwrap_err();
        assert_eq!(err.path, "grid[0].cells[0].set.qotta");
    }

    #[test]
    fn out_of_range_values_are_hard_errors() {
        // A negative participation ratio passes the decoder's type check
        // but fails the scenario validation, pinned to the cell.
        let err = Manifest::from_json(&minimal(r#", "base": {"participation_ratio": -0.5}"#))
            .unwrap_err();
        assert!(err.message.contains("invalid scenario"), "{err}");

        let err = Manifest::from_json(&minimal(r#", "base": {"reward_base": -1.0}"#)).unwrap_err();
        assert_eq!(err.path, "base.reward_base");

        let err = Manifest::from_json(&minimal(r#", "base": {"clients": -3}"#)).unwrap_err();
        assert_eq!(err.path, "base.clients");
        assert!(err.message.contains("unsigned"), "{err}");
    }

    #[test]
    fn grid_axes_cross_product_in_declaration_order() {
        let manifest = Manifest::from_json(&minimal(
            r#", "grid": [
                {"axis": "strategy", "cells": [
                    {"label": "keep", "set": {"strategy": "keep"}},
                    {"label": "discard", "set": {"strategy": "discard"}}
                ]},
                {"axis": "fair", "cells": [
                    {"label": "fair", "set": {"fair_aggregation": true}},
                    {"label": "simple", "set": {"fair_aggregation": false}}
                ]}
            ]"#,
        ))
        .unwrap();
        let labels: Vec<&str> = manifest.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["keep/fair", "keep/simple", "discard/fair", "discard/simple"]
        );
        assert_eq!(
            manifest.cells[3].config.strategy,
            LowContributionStrategy::Discard
        );
        assert!(!manifest.cells[3].config.fair_aggregation);
    }

    #[test]
    fn seed_ranges_expand_half_open() {
        let manifest = Manifest::from_json(r#"{"name": "t", "seeds": {"range": [3, 7]}}"#).unwrap();
        assert_eq!(manifest.seeds, vec![3, 4, 5, 6]);
        let err = Manifest::from_json(r#"{"name": "t", "seeds": {"range": [7, 3]}}"#).unwrap_err();
        assert!(err.message.contains("lo < hi"), "{err}");
    }

    #[test]
    fn duplicate_seeds_are_rejected() {
        let err = Manifest::from_json(r#"{"name": "t", "seeds": [4, 4]}"#).unwrap_err();
        assert!(err.message.contains("distinct"), "{err}");
    }

    #[test]
    fn missing_required_keys_are_reported() {
        assert_eq!(
            Manifest::from_json(r#"{"seeds": [1]}"#).unwrap_err().path,
            "name"
        );
        assert_eq!(
            Manifest::from_json(r#"{"name": "t"}"#).unwrap_err().path,
            "seeds"
        );
    }

    #[test]
    fn event_engine_settings_decode() {
        let manifest = Manifest::from_json(&minimal(
            r#", "base": {
                "clients": 10, "rounds": 2, "participation_ratio": 1.0,
                "quota": 7, "staleness": {"decay": 0.5},
                "straggler_slowdown": 8.0, "straggler_fraction": 0.3,
                "uplink": {"normal": [0.08, 0.03]},
                "drop_rate": 0.15,
                "partition_fault": {"start_s": 1.0, "duration_s": 2.0, "boundary": 2},
                "retry": {"max_attempts": 3, "timeout_s": 0.5, "base_s": 0.5, "factor": 2.0, "jitter_s": 0.1},
                "reorg": "salvage", "miners": 3, "verify_signatures": false
            }"#,
        ))
        .unwrap();
        let config = &manifest.cells[0].config;
        assert_eq!(config.sync, SyncMode::FlexibleQuota { quota: 7 });
        assert_eq!(
            config.staleness,
            StalenessPolicy::DecayedInclude { decay: 0.5 }
        );
        assert_eq!(config.fault.uplink.drop_rate, 0.15);
        assert!(config.fault.partition.is_some());
        assert!(matches!(
            config.retry,
            RetryPolicy::Backoff {
                max_attempts: 3,
                ..
            }
        ));
        assert_eq!(config.reorg, ReorgPolicy::Salvage);
        // quota 0 switches back to the synchronous engine.
        let sync = Manifest::from_json(&minimal(r#", "base": {"quota": 0}"#)).unwrap();
        assert_eq!(sync.cells[0].config.sync, SyncMode::Synchronous);
    }

    #[test]
    fn attack_settings_decode() {
        let manifest = Manifest::from_json(&minimal(
            r#", "base": {"clients": 10, "participation_ratio": 1.0, "attack": {"min": 1, "max": 3}}"#,
        ))
        .unwrap();
        let attack = manifest.cells[0].config.attack;
        assert!(attack.enabled);
        assert_eq!((attack.min_attackers, attack.max_attackers), (1, 3));
        let off = Manifest::from_json(&minimal(r#", "base": {"attack": "off"}"#)).unwrap();
        assert!(!off.cells[0].config.attack.enabled);
    }

    #[test]
    fn grid_patch_invalid_only_in_combination_is_caught() {
        // quota 8 is fine against the default 100 clients but the second
        // axis shrinks the population: the *combination* must fail
        // validation (quota is capped at runtime, but an attack larger
        // than the population is structurally invalid).
        let err = Manifest::from_json(&minimal(
            r#", "grid": [
                {"axis": "attack", "cells": [{"label": "a", "set": {"attack": {"min": 1, "max": 8}}}]},
                {"axis": "pop", "cells": [
                    {"label": "big", "set": {"clients": 20}},
                    {"label": "small", "set": {"clients": 4}}
                ]}
            ]"#,
        ))
        .unwrap_err();
        assert!(err.message.contains("a/small"), "{err}");
    }

    /// The three manifests that used to panic inside a partitioner
    /// (`bfl_data::partition`'s `assert!`s) now fail here, naming the cell
    /// and the numbers involved.
    #[test]
    fn hostile_partitions_fail_with_a_diagnostic_instead_of_a_panic() {
        let base = r#""clients": 10, "rounds": 1"#;
        for (extra, needles) in [
            (
                format!(r#", "base": {{{base}, "partition": {{"shards_per_client": 0}}}}"#),
                ["base", "shards_per_client", "0"],
            ),
            (
                format!(r#", "base": {{{base}, "partition": {{"dirichlet_alpha": 0}}}}"#),
                ["base", "alpha", "0"],
            ),
            (
                format!(r#", "base": {{{base}, "partition": {{"dirichlet_alpha": -2.5}}}}"#),
                ["base", "alpha", "-2.5"],
            ),
            (
                format!(
                    r#", "dataset": {{"train_samples": 5, "test_samples": 5}},
                       "base": {{{base}, "partition": "iid"}}"#
                ),
                ["base", "5 training samples", "10 clients"],
            ),
            (
                format!(
                    r#", "dataset": {{"train_samples": 5, "test_samples": 5}}, "base": {{{base}}},
                       "grid": [{{"axis": "pop", "cells": [
                           {{"label": "fits", "set": {{"clients": 5}}}},
                           {{"label": "starved", "set": {{"clients": 6}}}}
                       ]}}]"#
                ),
                ["cell `starved`", "5 training samples", "6 clients"],
            ),
        ] {
            let err = Manifest::from_json(&minimal(&extra)).unwrap_err();
            for needle in needles {
                assert!(err.to_string().contains(needle), "`{needle}` in: {err}");
            }
        }
        // Chain-only cells train nobody and partition nothing.
        Manifest::from_json(&minimal(
            r#", "dataset": {"train_samples": 5, "test_samples": 5},
               "base": {"clients": 10, "mode": "chain-only"}"#,
        ))
        .unwrap();
    }
}
