//! Process-wide switch between the optimized crypto engine and the
//! retained seed-path reference implementations.
//!
//! Mirrors `bfl_ml::engine` from the batched-GEMM PR: the optimized
//! paths (word-level Knuth division, Montgomery/REDC modular
//! exponentiation, CRT signing) are the default, and the original
//! bit-by-bit / square-and-multiply / plain-exponent implementations are
//! retained behind this switch as test oracles: the equivalence suites
//! compare both paths bit-for-bit on the same inputs, and the engine's
//! golden-digest tests replay whole runs under either setting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static REFERENCE_MODE: AtomicBool = AtomicBool::new(false);
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Serializes callers that toggle — or whose correctness depends on —
/// the process-wide mode. Rust runs tests in parallel threads of one
/// process, so an equivalence test that reads the mode must hold this
/// lock, or a concurrently toggling test silently reroutes it.
pub fn mode_lock() -> MutexGuard<'static, ()> {
    MODE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Routes [`crate::bigint::BigUint::div_rem`], modular exponentiation and
/// [`crate::rsa::RsaPrivateKey::apply`] through the retained seed-path
/// implementations when `true`.
pub fn set_reference_mode(enabled: bool) {
    REFERENCE_MODE.store(enabled, Ordering::SeqCst);
}

/// Whether the reference path is active.
pub fn reference_mode() -> bool {
    REFERENCE_MODE.load(Ordering::Relaxed)
}

/// Runs `f` with the reference path enabled, restoring the previous mode
/// afterwards (also on panic).
pub fn with_reference_mode<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_reference_mode(self.0);
        }
    }
    let _restore = Restore(reference_mode());
    set_reference_mode(true);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_toggles_and_restores() {
        let _guard = mode_lock();
        assert!(!reference_mode());
        let inside = with_reference_mode(reference_mode);
        assert!(inside);
        assert!(!reference_mode());
        set_reference_mode(true);
        assert!(reference_mode());
        set_reference_mode(false);
    }
}
