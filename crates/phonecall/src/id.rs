//! Node identity: opaque wire-level IDs from a polynomially large space and
//! dense engine-internal indices.
//!
//! The paper assumes each node has a unique `O(log n)`-bit address (think IP
//! address) and that nodes *cannot* enumerate the address space — knowing
//! `n` does not let a node guess other nodes' addresses. We model this with
//! a pseudo-random injection from dense indices `0..n` into a `u64` space;
//! algorithm code only ever sees [`NodeId`]s, while the engine resolves them
//! back to [`NodeIdx`]s, like a network delivering to an IP address. The
//! injection is a SplitMix64 permutation of an arithmetic progression, so
//! resolving is that permutation run backwards: a few invertible arithmetic
//! steps and one range check, with no directory to build or probe.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A node's wire-visible unique address from the polynomial ID space.
///
/// `NodeId`s are what algorithms learn, store in `follow` variables, compare
/// (cluster IDs are ordered by leader ID in the paper) and put in messages.
/// They are deliberately *not* convertible back to a dense index without the
/// engine's [`IdSpace`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Raw 64-bit value of the address (for hashing / serialization).
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an ID from its raw value.
    ///
    /// Intended for deserialization and tests; algorithms should only use
    /// IDs handed to them by the engine.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:#010x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// A dense engine-internal node index in `0..n`.
///
/// Indices exist so that simulator state lives in flat vectors; they are
/// *not* visible to algorithms on the wire (that would break the polynomial
/// ID space assumption and with it the lower bound of Theorem 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize`, for vector addressing.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<NodeIdx> for usize {
    fn from(idx: NodeIdx) -> usize {
        idx.as_usize()
    }
}

/// Odd stride of the counter sequence the IDs are mixed from (the golden
/// ratio scaled to 64 bits, SplitMix64's own increment).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// The two odd multipliers of the SplitMix64 finalizer.
const MIX1: u64 = 0xbf58_476d_1ce4_e5b9;
const MIX2: u64 = 0x94d0_49bb_1331_11eb;
const GAMMA_INV: u64 = inverse_mod_2_64(GAMMA);
const MIX1_INV: u64 = inverse_mod_2_64(MIX1);
const MIX2_INV: u64 = inverse_mod_2_64(MIX2);

/// The bijection between dense indices and wire IDs.
///
/// Index `i` gets the address `splitmix64(base + (i + 1)·GAMMA)`, where
/// `base` is derived from the run seed. That is a pure function of `i`,
/// so the space stores no per-node table: [`Self::id_of`] evaluates it
/// and [`Self::resolve`] runs it backwards.
///
/// **Why the IDs are distinct.** `GAMMA` is odd, hence a unit mod 2^64,
/// so the counters `base + k·GAMMA` for `k = 1..=n` are pairwise
/// distinct for any `n < 2^64`. The finalizer is a composition of
/// xorshifts (invertible over GF(2)) and multiplications by odd
/// constants (invertible mod 2^64), so it is a bijection of `u64`.
/// Distinct counters therefore give distinct IDs; no collision check is
/// needed, and no retry can ever change the sequence.
#[derive(Clone, Copy, Debug)]
pub struct IdSpace {
    n: u32,
    base: u64,
}

impl IdSpace {
    /// Builds an ID space for `n` nodes from `seed`. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit in a `u32`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "network must contain at least one node");
        let Ok(n) = u32::try_from(n) else {
            panic!("n must fit in u32");
        };
        IdSpace {
            n,
            base: seed ^ GAMMA,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether the space is empty (never true for a constructed space).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The wire ID of a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn id_of(&self, idx: NodeIdx) -> NodeId {
        assert!(idx.0 < self.n, "node index {idx} out of range");
        let k = u64::from(idx.0) + 1;
        NodeId(splitmix64(self.base.wrapping_add(k.wrapping_mul(GAMMA))))
    }

    /// Resolves a wire ID back to its dense index, if the ID exists.
    ///
    /// Inverts [`Self::id_of`]: unmix the finalizer, strip `base`, divide
    /// by `GAMMA` (multiply by its inverse) to recover `i + 1`, and accept
    /// the result iff it names one of the `n` nodes.
    #[inline]
    #[must_use]
    pub fn resolve(&self, id: NodeId) -> Option<NodeIdx> {
        let k = unsplitmix64(id.0)
            .wrapping_sub(self.base)
            .wrapping_mul(GAMMA_INV);
        let i = k.wrapping_sub(1);
        if i < u64::from(self.n) {
            Some(NodeIdx(i as u32))
        } else {
            None
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
#[inline]
const fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// The inverse of [`splitmix64`]: its three steps undone in reverse.
#[inline]
const fn unsplitmix64(mut z: u64) -> u64 {
    z = unxorshift(z, 31).wrapping_mul(MIX2_INV);
    z = unxorshift(z, 27).wrapping_mul(MIX1_INV);
    unxorshift(z, 30)
}

/// Inverts `x ^ (x >> s)`. Writing the shift as the nilpotent map `R`,
/// `(I + R)⁻¹ = I + R + R² + …` over GF(2), and `R^j` is a shift by `j·s`.
#[inline]
const fn unxorshift(y: u64, s: u32) -> u64 {
    let mut x = y;
    let mut shift = s;
    while shift < 64 {
        x ^= y >> shift;
        shift += s;
    }
    x
}

/// The inverse of an odd `a` mod 2^64 by Newton's iteration: `x = a` is
/// correct to 3 bits (`a² ≡ 1 mod 8`), and each step doubles the
/// number of correct bits, so five steps reach 96 ≥ 64.
const fn inverse_mod_2_64(a: u64) -> u64 {
    let mut x = a;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        step += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn ids_are_unique_and_resolvable() {
        let space = IdSpace::new(1000, 7);
        assert_eq!(space.len(), 1000);
        let mut ids = Vec::new();
        for i in 0..1000u32 {
            let idx = NodeIdx(i);
            let id = space.id_of(idx);
            assert_eq!(space.resolve(id), Some(idx));
            ids.push(id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000, "IDs must be collision free");
    }

    #[test]
    fn id_space_is_deterministic_per_seed() {
        let ids = |seed| {
            let space = IdSpace::new(64, seed);
            (0..64).map(|i| space.id_of(NodeIdx(i))).collect::<Vec<_>>()
        };
        assert_eq!(ids(123), ids(123));
        assert_ne!(ids(123), ids(124));
    }

    /// The first IDs of two seeds, as the hash-directory construction
    /// drew them. Every golden digest depends on this sequence, so a
    /// change to it fails here, by name, first.
    #[test]
    fn first_ids_are_pinned() {
        let pinned: [(u64, [u64; 3]); 2] = [
            (
                0,
                [
                    0x6e78_9e6a_a1b9_65f4,
                    0x06c4_5d18_8009_454f,
                    0xf88b_b8a8_724c_81ec,
                ],
            ),
            (
                1,
                [
                    0xe99f_f867_dbf6_82c9,
                    0x382f_f84c_b272_81e9,
                    0x6d1d_b36c_cba9_82d2,
                ],
            ),
        ];
        for (seed, want) in pinned {
            let space = IdSpace::new(3, seed);
            for (i, &raw) in want.iter().enumerate() {
                assert_eq!(
                    space.id_of(NodeIdx(i as u32)).raw(),
                    raw,
                    "seed {seed}, index {i}"
                );
            }
        }
    }

    #[test]
    fn inverse_constants_invert() {
        assert_eq!(GAMMA.wrapping_mul(GAMMA_INV), 1);
        assert_eq!(MIX1.wrapping_mul(MIX1_INV), 1);
        assert_eq!(MIX2.wrapping_mul(MIX2_INV), 1);
        for z in [0, 1, u64::MAX, GAMMA, 0x8000_0000_0000_0000] {
            assert_eq!(unsplitmix64(splitmix64(z)), z);
            assert_eq!(splitmix64(unsplitmix64(z)), z);
        }
    }

    #[test]
    fn one_past_the_end_does_not_resolve() {
        for n in [1u32, 2, 1000] {
            let space = IdSpace::new(n as usize, 5);
            let past = IdSpace::new(n as usize + 1, 5).id_of(NodeIdx(n));
            assert_eq!(space.resolve(past), None, "n = {n}");
            assert_eq!(
                space.resolve(space.id_of(NodeIdx(n - 1))),
                Some(NodeIdx(n - 1))
            );
        }
    }

    #[test]
    fn single_node_space_works() {
        let space = IdSpace::new(1, 9);
        assert_eq!(space.len(), 1);
        assert_eq!(space.resolve(space.id_of(NodeIdx(0))), Some(NodeIdx(0)));
    }

    #[test]
    fn largest_space_is_arithmetic_only() {
        // `IdSpace` holds two integers, so a 2^32 - 1 node space costs
        // nothing to build and resolves its last index.
        assert_eq!(std::mem::size_of::<IdSpace>(), 16);
        let space = IdSpace::new(u32::MAX as usize, 7);
        let last = NodeIdx(u32::MAX - 1);
        assert_eq!(space.resolve(space.id_of(last)), Some(last));
        assert_eq!(space.len(), u32::MAX as usize);
    }

    #[test]
    fn unknown_id_does_not_resolve() {
        let space = IdSpace::new(8, 1);
        let bogus = NodeId::from_raw(0xdead_beef_dead_beef);
        let known = (0..8).any(|i| space.id_of(NodeIdx(i)) == bogus);
        assert!(!known);
        assert_eq!(space.resolve(bogus), None);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let id = NodeId::from_raw(42);
        assert!(!format!("{id}").is_empty());
        assert!(!format!("{id:?}").is_empty());
        assert!(!format!("{}", NodeIdx(3)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = IdSpace::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_of_out_of_range_panics() {
        let _ = IdSpace::new(4, 0).id_of(NodeIdx(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The closed-form resolver answers exactly like a directory
        /// map from every issued ID to its index: on every issued ID,
        /// on the IDs just past the end, and on arbitrary probes.
        #[test]
        fn resolve_matches_a_directory(seed in any::<u64>(), n in 1usize..=4096, probes in proptest::collection::vec(any::<u64>(), 1..64)) {
            let space = IdSpace::new(n, seed);
            let directory: BTreeMap<NodeId, NodeIdx> =
                (0..n as u32).map(|i| (space.id_of(NodeIdx(i)), NodeIdx(i))).collect();
            prop_assert_eq!(directory.len(), n);
            for (&id, &idx) in &directory {
                prop_assert_eq!(space.resolve(id), Some(idx));
            }
            let wider = IdSpace::new(n + 8, seed);
            let near_misses = (n as u32..n as u32 + 8).map(|i| wider.id_of(NodeIdx(i)).raw());
            for raw in probes.iter().copied().chain(near_misses) {
                let id = NodeId::from_raw(raw);
                prop_assert_eq!(space.resolve(id), directory.get(&id).copied());
            }
        }
    }
}
