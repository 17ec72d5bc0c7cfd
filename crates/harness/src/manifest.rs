//! The experiment manifest: a JSON description of a scenario fleet.
//!
//! A manifest names a base scenario, a grid of override axes whose cells
//! cross-product into labelled configurations, and a seed fleet. Parsing
//! is **strict**: unknown keys, wrong types and out-of-range values are
//! hard errors carrying the JSON path of the offending element
//! (`grid[1].cells[0].set.fl.cleints`), because a typo that silently falls
//! back to a default would corrupt a fleet's results without a trace. The
//! vendored serde shim has no `deny_unknown_fields`, so the root is
//! decoded over [`serde::Value`] by a strict walker that tracks which keys
//! were consumed and rejects the leftovers, and `base` / `set` objects go
//! through [`apply_patch`], which gets the same guarantee from a
//! serialise–merge–deserialise round trip.
//!
//! ## Schema
//!
//! ```json
//! {
//!   "name": "table2_attack",
//!   "description": "optional free text",
//!   "dataset": {"train_samples": 300, "test_samples": 100, "data_seed": 55930},
//!   "base": { <partial BflConfig> },
//!   "grid": [
//!     {"axis": "strategy", "cells": [
//!       {"label": "keep", "set": {"strategy": "Keep"}},
//!       {"label": "discard", "set": {"strategy": "Discard"}}
//!     ]}
//!   ],
//!   "seeds": [1, 2, 3]        // or {"range": [0, 5]} = seeds 0..5
//! }
//! ```
//!
//! `dataset`, `base` and `grid` are optional (defaults: a smoke-scale
//! synthetic MNIST, the paper's Section 5.1 configuration, a single
//! unlabelled cell). A `base` or `set` object is a partial
//! [`BflConfig`] in its serde form — see [`apply_patch`].

use bfl_core::BflConfig;
use bfl_data::synth_mnist;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

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
    /// Smoke scale: 300 training and 100 test samples — seconds per fleet,
    /// and what the allocation contracts in `crates/bench/tests/` train on.
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
        let value: Value = serde_json::from_str(text)
            .map_err(|e| ManifestError::new("", format!("not valid JSON: {e}")))?;
        Self::from_value(&value)
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
            apply_patch(&mut base, value, "base")?;
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
            apply_patch(&mut config, &patch.value, &patch.path)?;
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
    // data; made here, the message names the cell. A fleet's data is
    // always the synthetic MNIST generator's, so its shape is that
    // generator's.
    config
        .validate()
        .and_then(|()| {
            config.validate_for_dataset(
                dataset.train_samples,
                synth_mnist::IMAGE_PIXELS,
                synth_mnist::NUM_CLASSES,
            )
        })
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

/// Applies one `base` / `set` object onto `config`.
///
/// The object is a **strict partial [`BflConfig`] in its serde form** —
/// the form `benchmark/workloads/*.json` spell in full under `config` —
/// so every field of every nested struct and every variant of every enum
/// is addressable, and none is mapped by hand. It is merged into the
/// serialised configuration: an object merges field by field into the
/// struct (or the same enum variant's payload) it addresses; anything
/// else — a string, number, bool, `null`, or an enum value of another
/// variant — replaces the node. The merged tree must deserialise after
/// every replacement, which pins a wrong type, a misspelt variant or a
/// half-specified payload to the key that introduced it, and must come
/// back unchanged when the result is serialised again, which turns a key
/// `from_value` silently ignored into an `unknown key` error at its exact
/// path — the same walk refuses non-finite numbers. `fl.seed` is refused
/// too: the fleet's `seeds` overwrite it in every run; so is a key
/// written twice in one object. Range checks are
/// [`BflConfig::validate`]'s, once the cell is fully resolved.
pub fn apply_patch(config: &mut BflConfig, patch: &Value, path: &str) -> Result<(), ManifestError> {
    ObjWalker::new(patch, path)?;
    reject_repeated_keys(patch, path)?;
    if patch.field("fl").and_then(|fl| fl.field("seed")).is_ok() {
        return Err(ManifestError::new(
            format!("{path}.fl.seed"),
            "seeds come from the fleet (`seeds`), which overwrites this field in every run",
        ));
    }

    let mut tree = config.to_value();
    let mut edits = Vec::new();
    collect_edits(&tree, patch, &mut Vec::new(), &mut edits);
    let mut resolved = *config;
    for (keys, value) in edits {
        let at = format!("{path}.{}", keys.join("."));
        let Some(node) = slot(&mut tree, &keys) else {
            return Err(ManifestError::new(at, "lies under a replaced value"));
        };
        *node = value.clone();
        resolved =
            BflConfig::from_value(&tree).map_err(|e| ManifestError::new(at, e.to_string()))?;
    }
    require_round_trip(&tree, &resolved.to_value(), path)?;
    *config = resolved;
    Ok(())
}

/// Refuses a key written twice in one object of `patch`, at any depth: the
/// JSON parser keeps both, so the second would win unseen — or slip past
/// the `fl.seed` refusal, which reads the first.
fn reject_repeated_keys(patch: &Value, path: &str) -> Result<(), ManifestError> {
    let Value::Obj(fields) = patch else {
        return Ok(());
    };
    fields.iter().enumerate().try_for_each(|(i, (key, value))| {
        let child = format!("{path}.{key}");
        let first = fields[..i].iter().all(|(earlier, _)| earlier != key);
        require(first, child.as_str(), "duplicate key")?;
        reject_repeated_keys(value, &child)
    })
}

/// One replacement a patch makes: the keys from the configuration's root
/// to the node, and the node's new value.
type Edit<'a> = (Vec<&'a str>, &'a Value);

/// Flattens `patch` against the serialised configuration `node` into the
/// replacements it makes, in document order.
fn collect_edits<'a>(
    node: &Value,
    patch: &'a Value,
    keys: &mut Vec<&'a str>,
    edits: &mut Vec<Edit<'a>>,
) {
    match (node, patch) {
        (Value::Obj(fields), Value::Obj(patch_fields))
            if !switches_variant(fields, patch_fields) =>
        {
            for (key, value) in patch_fields {
                keys.push(key);
                match fields.iter().find(|(k, _)| k == key) {
                    Some((_, child)) => collect_edits(child, value, keys, edits),
                    // Not a field of this struct: inserted as it stands, so
                    // the round-trip check reports it as unknown.
                    None => edits.push((keys.clone(), value)),
                }
                keys.pop();
            }
        }
        _ => edits.push((keys.clone(), patch)),
    }
}

/// True when `fields` is an externally tagged enum value (`{"Variant":
/// payload}` — variants are CamelCase, struct fields snake_case) and the
/// patch does not address that variant: the patch then replaces the value
/// instead of merging a second tag into it.
fn switches_variant(fields: &[(String, Value)], patch_fields: &[(String, Value)]) -> bool {
    match fields {
        [(tag, _)] if tag.starts_with(|c: char| c.is_ascii_uppercase()) => {
            !patch_fields.iter().any(|(key, _)| key == tag)
        }
        _ => false,
    }
}

/// The node `keys` address under `tree`, created as `null` when its last
/// key is new to its object; `None` when the path runs through a value
/// that is not an object (distinct keys make edits disjoint, so it cannot).
fn slot<'t>(tree: &'t mut Value, keys: &[&str]) -> Option<&'t mut Value> {
    let mut node = tree;
    for key in keys {
        let Value::Obj(fields) = node else {
            return None;
        };
        let index = fields
            .iter()
            .position(|(k, _)| k == key)
            .unwrap_or_else(|| {
                fields.push((key.to_string(), Value::Null));
                fields.len() - 1
            });
        node = &mut fields[index].1;
    }
    Some(node)
}

/// Requires that `read` — the resolved configuration, serialised again —
/// says everything `merged` says: a key it lacks is one no field read.
/// Numbers compare by value (`1` for an `f64` field comes back as `1.0`)
/// and must be finite.
fn require_round_trip(merged: &Value, read: &Value, path: &str) -> Result<(), ManifestError> {
    match (merged, read) {
        (Value::Obj(fields), Value::Obj(read_fields)) => {
            fields.iter().try_for_each(|(key, value)| {
                let child = format!("{path}.{key}");
                match read_fields.iter().find(|(k, _)| k == key) {
                    Some((_, read_value)) => require_round_trip(value, read_value, &child),
                    None => Err(ManifestError::new(child, "unknown key")),
                }
            })
        }
        (Value::Float(v), _) if !v.is_finite() => Err(ManifestError::new(path, "must be finite")),
        _ => {
            let same_number = matches!((merged.as_f64(), read.as_f64()), (Ok(a), Ok(b)) if a == b);
            require(
                merged == read || same_number,
                path,
                &format!(
                    "the configuration reads this {} back as {read:?}",
                    merged.kind()
                ),
            )
        }
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

fn take_string(walker: &mut ObjWalker<'_>, key: &str) -> Result<Option<String>, ManifestError> {
    match walker.take(key) {
        Some(value) => Ok(Some(as_str(value, &walker.key_path(key))?.to_string())),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_core::{LowContributionStrategy, ReorgPolicy, RetryPolicy, StalenessPolicy, SyncMode};

    /// Parses a manifest named `t` with seeds 1 and 2 plus `extra` root keys.
    fn parse(extra: &str) -> Result<Manifest, ManifestError> {
        Manifest::from_json(&format!(r#"{{"name": "t", "seeds": [1, 2]{extra}}}"#))
    }

    /// The configuration a manifest whose `base` is `patch` resolves to.
    fn base(patch: &str) -> Result<BflConfig, ManifestError> {
        parse(&format!(r#", "base": {patch}"#)).map(|manifest| manifest.cells[0].config)
    }

    #[test]
    fn minimal_manifest_parses_to_one_base_cell() {
        let manifest = parse("").unwrap();
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
        let err = parse(r#", "sedes": [3]"#).unwrap_err();
        assert_eq!(err.path, "sedes");
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn unknown_setting_key_carries_the_full_path() {
        let err = base(r#"{"minners": 5}"#).unwrap_err();
        assert_eq!(err.path, "base.minners");
        assert!(err.message.contains("unknown key"), "{err}");
        assert_eq!(
            base(r#"{"fl": {"cleints": 5}}"#).unwrap_err().path,
            "base.fl.cleints"
        );
    }

    #[test]
    fn unknown_key_inside_a_grid_cell_names_the_cell() {
        let err = parse(
            r#", "grid": [{"axis": "a", "cells": [
                {"label": "x", "set": {"miners": 3}},
                {"label": "y", "set": {"fl": {"cleints": 3}}}]}]"#,
        )
        .unwrap_err();
        assert_eq!(err.path, "grid[0].cells[1].set.fl.cleints");
    }

    #[test]
    fn out_of_range_values_are_hard_errors() {
        // A negative ratio or reward pool is a well-typed number: the
        // scenario validation refuses it, pinned to the cell.
        for patch in [
            r#"{"fl": {"participation_ratio": -0.5}}"#,
            r#"{"reward_base": -1.0}"#,
        ] {
            let err = base(patch).unwrap_err();
            assert!(err.message.contains("base resolves to an invalid"), "{err}");
        }
        let err = base(r#"{"fl": {"clients": -3}}"#).unwrap_err();
        assert_eq!(err.path, "base.fl.clients");
        assert!(err.message.contains("unsigned"), "{err}");
    }

    #[test]
    fn grid_axes_cross_product_in_declaration_order() {
        let manifest = parse(
            r#", "grid": [
                {"axis": "strategy", "cells": [
                    {"label": "keep", "set": {"strategy": "Keep"}},
                    {"label": "discard", "set": {"strategy": "Discard"}}
                ]},
                {"axis": "fair", "cells": [
                    {"label": "fair", "set": {"fair_aggregation": true}},
                    {"label": "simple", "set": {"fair_aggregation": false}}
                ]}
            ]"#,
        )
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

    const BACKOFF: &str = r#"{"Backoff": {"max_attempts": 3, "timeout_s": 0.5, "base_s": 0.25, "factor": 2.0, "jitter_s": 0.1}}"#;

    /// An event-engine base every test below that needs one starts from.
    fn event_engine_base() -> String {
        format!(
            r#"{{
                "fl": {{"clients": 10, "rounds": 2, "participation_ratio": 1.0}},
                "sync": {{"FlexibleQuota": {{"quota": 7}}}},
                "staleness": {{"DecayedInclude": {{"decay": 0.5}}}},
                "profiles": {{"straggler_slowdown": 8.0, "uplink": {{"Normal": {{"mean": 0.08, "std": 0.03}}}}}},
                "fault": {{
                    "uplink": {{"drop_rate": 0.15}},
                    "partition": {{"start_s": 1.0, "duration_s": 2.0, "boundary": 2}}
                }},
                "retry": {BACKOFF}, "reorg": "Salvage", "miners": 3, "verify_signatures": false
            }}"#
        )
    }

    #[test]
    fn event_engine_settings_decode() {
        let config = base(&event_engine_base()).unwrap();
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
    }

    #[test]
    fn attack_settings_decode() {
        let attack = base(
            r#"{"fl": {"clients": 10, "participation_ratio": 1.0},
                "attack": {"enabled": true, "min_attackers": 1, "max_attackers": 3}}"#,
        )
        .unwrap()
        .attack;
        assert!(attack.enabled);
        assert_eq!((attack.min_attackers, attack.max_attackers), (1, 3));
        assert_eq!(attack.kind, BflConfig::default().attack.kind);
        assert!(
            !base(r#"{"attack": {"enabled": false}}"#)
                .unwrap()
                .attack
                .enabled
        );
    }

    #[test]
    fn grid_patch_invalid_only_in_combination_is_caught() {
        // Eight attackers are fine against 20 clients but the second axis
        // shrinks the population: the *combination* must fail validation.
        let err = parse(
            r#", "grid": [
                {"axis": "attack", "cells": [{"label": "a", "set":
                    {"attack": {"enabled": true, "min_attackers": 1, "max_attackers": 8}}}]},
                {"axis": "pop", "cells": [
                    {"label": "big", "set": {"fl": {"clients": 20}}},
                    {"label": "small", "set": {"fl": {"clients": 4}}}
                ]}
            ]"#,
        )
        .unwrap_err();
        let expected = "cell `a/small` resolves to an invalid scenario";
        assert!(err.message.contains(expected), "{err}");
    }

    /// Chain-only cells train nobody and partition nothing, so neither
    /// the data's size nor the model's shape is checked for them. (What a
    /// learning cell may not be is `tests/cli.rs`'s `REFUSALS` table.)
    #[test]
    fn chain_only_cells_skip_the_learning_checks() {
        for extra in [
            r#", "dataset": {"train_samples": 5}, "base": {"fl": {"clients": 10}, "mode": "ChainOnly"}"#,
            r#", "base": {"fl": {"model": {"SoftmaxRegression": {"features": 100, "classes": 5}}},
                "mode": "ChainOnly"}"#,
        ] {
            parse(extra).unwrap();
        }
    }

    /// Every way a `base` / `set` object can be wrong is a
    /// [`ManifestError`] at the offending key — for a misspelt variant or
    /// a malformed enum value, the enum's own key — and never a panic.
    /// One case a line: `patch => path under base => what the message says`.
    #[test]
    fn strictness_is_path_precise_at_any_depth() {
        const CASES: &str = r#"
            {"delay": {"fork": {"propagation_delay": 0.3}}} => .delay.fork.propagation_delay => unknown key
            {"sync": "Synchronus"} => .sync => unknown SyncMode variant `Synchronus`
            {"sync": {"FlexibleQuotta": {"quota": 3}}} => .sync => unknown SyncMode variant
            {"fl": {"model": {"Perceptron": {"features": 784, "classes": 10}}}} => .fl.model => unknown ModelKind variant `Perceptron`
            {"fl": {"partition": {"ShardNonIid": {"shards_per_cleint": 1}}}} => .fl.partition.ShardNonIid.shards_per_cleint => unknown key
            {"fl": {"partition": {"Dirichlet": {"alfa": 0.5}}}} => .fl.partition => missing field `alpha`
            {"fl": {"partition": {"Dirichlet": {"alpha": 0.5, "beta": 1}}}} => .fl.partition.Dirichlet.beta => unknown key
            {"fault": {"crash": {"miner": 0, "crash_at_s": 1.0, "down_for_s": 2.0, "why": 1}}} => .fault.crash.why => unknown key
            {"fl": {"clients": -3}} => .fl.clients => expected unsigned integer
            {"fl": {"clients": 2.5}} => .fl.clients => expected unsigned integer
            {"miners": "two"} => .miners => expected unsigned integer, found string
            {"verify_signatures": 1} => .verify_signatures => expected bool
            {"retry": {"Backoff": {"max_attempts": 4294967296, "timeout_s": 1, "base_s": 1, "factor": 2, "jitter_s": 0}}} => .retry => out of range
            {"fl": {"local": {"learning_rate": 1e999}}} => .fl.local.learning_rate => must be finite
            {"profiles": {"uplink": {"Uniform": {"min": 0.0, "max": -1e999}}}} => .profiles.uplink.Uniform.max => must be finite
            {"fl": {"seed": 7}} => .fl.seed => seeds come from the fleet
            {"miners": 2, "miners": 3} => .miners => duplicate key
            {"fl": {}, "fl": {"seed": 7}} => .fl => duplicate key
            {"fl": {"partition": "Iid"}, "fl": {"partition": {"ShardNonIid": {"shards_per_client": 3}}}} => .fl => duplicate key
            {"sync": {"FlexibleQuota": {"quota": 3, "quota": 4}}} => .sync.FlexibleQuota.quota => duplicate key
            {"sync": {"FlexibleQuota": {"quota": 3}, "Synchronous": null}} => .sync => expected SyncMode enum value, found object
            {"retry": {"Backoff": {"max_attempts": 5}}} => .retry => missing field `timeout_s`
            {"fl": 3} => .fl => expected object
            [1, 2] =>  => expected an object, found array"#;
        for case in CASES.lines().skip(1) {
            let [patch, path, needle] = case.split(" => ").collect::<Vec<_>>()[..] else {
                panic!("malformed case: {case}");
            };
            let err = base(patch).unwrap_err();
            assert_eq!(err.path, format!("base{path}"), "{case}: {err}");
            assert!(err.message.contains(needle), "{case}: {err}");
        }
        // The same checks run on every cell's `set`, at the cell's path.
        let err = parse(
            r#", "grid": [{"axis": "a", "cells": [
                {"label": "x", "set": {"attack": {"kind": {"Scaling": {"factor": "ten"}}}}}]}]"#,
        )
        .unwrap_err();
        assert_eq!(err.path, "grid[0].cells[0].set.attack.kind");
        assert!(err.message.contains("expected number"), "{err}");
    }

    /// A patch that names another variant replaces the value; a patch that
    /// edits one field of a nested struct, an `Option`'s payload or the
    /// current variant's payload leaves every sibling as the base had it.
    #[test]
    fn a_patch_replaces_variants_and_merges_structs() {
        let parent = base(&event_engine_base()).unwrap();
        let patched = |set: &str| -> Result<BflConfig, ManifestError> {
            let set: Value = serde_json::from_str(set).expect("the test's JSON parses");
            let mut config = parent;
            apply_patch(&mut config, &set, "set").map(|()| config)
        };

        let mut expected = parent;
        expected.fault.partition = None;
        assert_eq!(patched(r#"{"fault": {"partition": null}}"#), Ok(expected));

        let mut expected = parent;
        expected.fault.partition.as_mut().unwrap().duration_s = 9.0;
        let longer = patched(r#"{"fault": {"partition": {"duration_s": 9}}}"#);
        assert_eq!(
            longer,
            Ok(expected),
            "start_s and boundary stay, 9 reads as 9.0"
        );

        let mut expected = parent;
        expected.retry = RetryPolicy::Backoff {
            max_attempts: 5,
            timeout_s: 0.5,
            base_s: 0.25,
            factor: 2.0,
            jitter_s: 0.1,
        };
        let patient = patched(r#"{"retry": {"Backoff": {"max_attempts": 5}}}"#);
        assert_eq!(patient, Ok(expected), "the other four backoff fields stay");

        let mut expected = parent;
        expected.profiles.uplink = bfl_net::DelayDistribution::Constant(0.02);
        expected.sync = SyncMode::Synchronous;
        let switched =
            patched(r#"{"profiles": {"uplink": {"Constant": 0.02}}, "sync": "Synchronous"}"#);
        assert_eq!(switched, Ok(expected), "straggler_slowdown stays at 8");
    }
}
