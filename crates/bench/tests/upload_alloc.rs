//! Procedure II's allocation contract, asserted in-process with the
//! counting allocator installed as this binary's global allocator: on a
//! warm thread, signing an upload allocates the signature's bytes and
//! nothing else, the miner's streamed check of it allocates nothing, and
//! a fan-out over the parked workers that sign and check in parallel
//! allocates its results and little else — no thread is spawned for it.
//!
//! "Warm" is one earlier use on the same thread: the thread's signing
//! workspace, the key's Montgomery contexts, the thread's verifier and
//! the calling thread's pool of helpers are all built by then.

use bfl_bench::CountingAllocator;
use bfl_crypto::{EnvelopeDigest, KeyStore};
use bfl_ml::{gradient, par};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Runs `f`, returning its result and the allocator calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC.snapshot();
    let out = f();
    (out, ALLOC.delta_since(&before).allocations)
}

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed regions.
#[test]
fn an_upload_allocates_its_signature_and_a_fan_out_its_results() {
    // The paper's 7850-parameter model, hashed as its clients and miners
    // do: streamed from the `f64`s.
    let params: Vec<f64> = (0..7850).map(|i| (i as f64 * 0.01).sin()).collect();
    let envelope = || {
        let mut envelope = EnvelopeDigest::new(4);
        gradient::stream_bytes(&params, |bytes| envelope.update(bytes));
        envelope
    };

    for bits in [256usize, 1024] {
        let mut store = KeyStore::new();
        let pairs = store
            .provision(&mut StdRng::seed_from_u64(bits as u64), &[4], bits)
            .expect("keygen");
        let key = &pairs[&4].private;
        let signature = envelope().sign(key);
        store
            .verify_envelope(envelope(), &signature)
            .expect("the miner accepts what the client signed");

        let (again, signing) = counted(|| envelope().sign(key));
        assert_eq!(again, signature, "signing is deterministic");
        assert!(
            signing <= 2,
            "a warm {bits}-bit signature made {signing} allocator calls (at most 2 allowed: \
             its bytes, and one spare)"
        );
        let (verdict, checking) = counted(|| store.verify_envelope(envelope(), &signature));
        assert_eq!(verdict, Ok(()));
        assert_eq!(
            checking, 0,
            "a warm {bits}-bit streamed verification made {checking} allocator calls"
        );
    }

    const WORKERS: usize = 2;
    let items: Vec<u64> = (0..10).collect();
    par::with_thread_limit(WORKERS, || {
        let triple = |_: usize, &x: &u64| x * 3;
        // The first fan-out builds the pool.
        let first = par::par_map(&items, 1, triple);
        let (out, mapping) = counted(|| par::par_map(&items, 1, triple));
        assert_eq!(out, first);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<u64>>());
        assert!(
            mapping <= WORKERS + 2,
            "a {WORKERS}-worker fan-out on a warm pool made {mapping} allocator calls \
             (at most {} allowed)",
            WORKERS + 2
        );
    });
}
