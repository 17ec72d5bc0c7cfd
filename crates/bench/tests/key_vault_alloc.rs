//! The key vault's allocation contract, asserted in-process with the
//! counting allocator installed as this binary's global allocator: once a
//! vault holds an id, touching it again — the per-round `ensure` of a
//! selection, or an admission's `pair` lookup — rewrites its LRU stamp in
//! place and makes no allocator call. An eagerly provisioned run touches
//! its whole selection every round, so its rounds stay as allocation-free
//! as the vault's touches.

use bfl_bench::CountingAllocator;
use bfl_crypto::KeyVault;

/// Cached ids: enough that the LRU bookkeeping spans several B-tree nodes.
const CACHED: u64 = 64;

/// Touches of cached ids the contract brackets.
const TOUCHES: usize = 1_000;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed region.
#[test]
fn touching_cached_ids_makes_no_allocator_call() {
    let ids: Vec<u64> = (0..CACHED).collect();
    let selection: Vec<u64> = ids.iter().copied().step_by(5).collect();
    let mut vault = KeyVault::new(0xBF1 ^ 0x5EED_0F4B, 128, ids.len());
    vault.ensure(&ids).expect("keygen succeeds");

    let before = ALLOC.snapshot();
    let mut touches = 0;
    let mut id = 0;
    while touches < TOUCHES {
        // Admissions in a scattered order, then a round's selection.
        for _ in 0..7 {
            id = (id + 23) % CACHED;
            vault.pair(id).expect("cached");
            touches += 1;
        }
        vault.ensure(&selection).expect("cached");
        touches += selection.len();
    }
    let delta = ALLOC.delta_since(&before);
    assert_eq!(
        delta.allocations, 0,
        "{touches} touches of cached ids made {} allocator calls",
        delta.allocations
    );
    assert_eq!(vault.pairs().len(), ids.len(), "nothing was evicted");
}
