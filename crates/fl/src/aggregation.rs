//! Server-side aggregation helpers shared by the learning modes.
//!
//! The paper's Algorithm 1 line 24 aggregates by plain averaging
//! (`bfl_ml::gradient::average_refs`), with FAIR-BFL's
//! contribution-weighted Equation 1 layered on top in `bfl-core`. What
//! lives here is the staleness decay the event engine applies to late
//! uploads.

use bfl_ml::gradient::GradientVector;

/// Decays a stale client upload toward the current global parameters.
///
/// In the asynchronous round engine a straggler's upload can arrive
/// `age >= 1` rounds after the round that commissioned it. Including it
/// verbatim would inject a gradient computed against an outdated global
/// model; discarding it wastes the straggler's work. The standard
/// asynchronous-FL compromise blends it toward the model it is late for:
///
/// `decayed = global + decay^age · (params − global)`
///
/// with `decay ∈ (0, 1]`. `age = 0` (or `decay = 1`) returns `params`
/// unchanged; as `age` grows the stale update fades into the current
/// global parameters, bounding how far an arbitrarily late upload can
/// pull the aggregate.
pub fn decay_stale_update(
    global: &[f64],
    params: &[f64],
    decay: f64,
    age: usize,
) -> GradientVector {
    assert_eq!(
        global.len(),
        params.len(),
        "stale upload and global parameters must have the same dimension"
    );
    assert!(
        decay > 0.0 && decay <= 1.0,
        "staleness decay must be in (0, 1], got {decay}"
    );
    let weight = decay.powi(age as i32);
    global
        .iter()
        .zip(params.iter())
        .map(|(&g, &p)| g + weight * (p - g))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "same dimension")]
    fn mismatched_lengths_panic() {
        let _ = decay_stale_update(&[1.0], &[1.0, 2.0], 0.5, 1);
    }

    #[test]
    fn stale_decay_blends_toward_the_global() {
        let global = [1.0, 2.0];
        let params = [3.0, 0.0];
        // Fresh uploads pass through untouched.
        assert_eq!(decay_stale_update(&global, &params, 0.5, 0), params);
        assert_eq!(decay_stale_update(&global, &params, 1.0, 7), params);
        // One round late at decay 0.5: halfway between global and upload.
        assert_eq!(decay_stale_update(&global, &params, 0.5, 1), vec![2.0, 1.0]);
        // Two rounds late: a quarter of the way.
        assert_eq!(decay_stale_update(&global, &params, 0.5, 2), vec![1.5, 1.5]);
        // Very old uploads collapse onto the global parameters.
        let ancient = decay_stale_update(&global, &params, 0.5, 60);
        assert!((ancient[0] - 1.0).abs() < 1e-12);
        assert!((ancient[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "staleness decay")]
    fn stale_decay_rejects_out_of_range_factors() {
        let _ = decay_stale_update(&[1.0], &[2.0], 0.0, 1);
    }
}
