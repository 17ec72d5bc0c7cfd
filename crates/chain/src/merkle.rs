//! Merkle tree root over transaction ids.
//!
//! Block headers commit to their transaction list through a Merkle root so
//! that verifying miners can detect any tampering with the body without
//! re-hashing payloads individually during the PoW search.

use bfl_crypto::sha256::{sha256, Digest};

/// Computes the Merkle root of a list of leaf digests.
///
/// The empty list hashes to SHA-256 of the empty string, mirroring the
/// convention that an empty block still has a well-defined commitment. An
/// odd leaf at any level is paired with itself (the Bitcoin convention).
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    merkle_root_in_place(&mut leaves.to_vec())
}

/// [`merkle_root`] folded inside the caller's leaf buffer: each level
/// overwrites the front half of the one below it, so the tree costs no
/// allocation beyond the leaves. The buffer's contents are unspecified
/// afterwards.
pub(crate) fn merkle_root_in_place(level: &mut [Digest]) -> Digest {
    if level.is_empty() {
        return sha256(b"");
    }
    let mut len = level.len();
    while len > 1 {
        let parents = len.div_ceil(2);
        // Parent `i` reads children `2i` and `2i + 1`, both at or past
        // `i`, so writing it never clobbers a child still to be read.
        for i in 0..parents {
            let left = level[2 * i];
            let right = if 2 * i + 1 < len {
                level[2 * i + 1]
            } else {
                left
            };
            let mut buf = [0u8; 64];
            buf[..32].copy_from_slice(&left);
            buf[32..].copy_from_slice(&right);
            level[i] = sha256(&buf);
        }
        len = parents;
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaf(i: u8) -> Digest {
        sha256(&[i])
    }

    /// The level-by-level form `merkle_root` had before it folded in
    /// place, kept as its oracle.
    fn merkle_root_reference(leaves: &[Digest]) -> Digest {
        if leaves.is_empty() {
            return sha256(b"");
        }
        let mut level: Vec<Digest> = leaves.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                let left = pair[0];
                let right = if pair.len() == 2 { pair[1] } else { pair[0] };
                let mut buf = [0u8; 64];
                buf[..32].copy_from_slice(&left);
                buf[32..].copy_from_slice(&right);
                next.push(sha256(&buf));
            }
            level = next;
        }
        level[0]
    }

    #[test]
    fn in_place_root_matches_the_level_by_level_reference() {
        for n in 0..=65usize {
            let leaves: Vec<Digest> = (0..n as u8).map(leaf).collect();
            let expected = merkle_root_reference(&leaves);
            assert_eq!(merkle_root(&leaves), expected, "{n} leaves");
            assert_eq!(
                merkle_root_in_place(&mut leaves.clone()),
                expected,
                "{n} leaves, caller's buffer"
            );
        }
    }

    #[test]
    fn empty_list_has_stable_root() {
        assert_eq!(merkle_root(&[]), sha256(b""));
    }

    #[test]
    fn single_leaf_root_is_the_leaf() {
        let l = leaf(7);
        assert_eq!(merkle_root(&[l]), l);
    }

    #[test]
    fn root_changes_when_any_leaf_changes() {
        let leaves: Vec<Digest> = (0..5).map(leaf).collect();
        let base = merkle_root(&leaves);
        for i in 0..leaves.len() {
            let mut mutated = leaves.clone();
            mutated[i] = leaf(100 + i as u8);
            assert_ne!(
                merkle_root(&mutated),
                base,
                "leaf {i} change must alter root"
            );
        }
    }

    #[test]
    fn root_depends_on_order() {
        let a: Vec<Digest> = (0..4).map(leaf).collect();
        let mut b = a.clone();
        b.swap(0, 3);
        assert_ne!(merkle_root(&a), merkle_root(&b));
    }

    #[test]
    fn odd_and_even_leaf_counts_produce_roots() {
        for n in 1..=9usize {
            let leaves: Vec<Digest> = (0..n as u8).map(leaf).collect();
            let _ = merkle_root(&leaves);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn root_is_deterministic(n in 0usize..24) {
            let leaves: Vec<Digest> = (0..n as u8).map(leaf).collect();
            prop_assert_eq!(merkle_root(&leaves), merkle_root(&leaves));
        }
    }
}
