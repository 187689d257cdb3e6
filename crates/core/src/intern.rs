//! Hash-consed shape interning: dense per-session ids for shape tokens.
//!
//! Pattern mining groups episodes by tree structure. The grouping key used
//! to be the canonical signature *string* (resolved symbol names, rendered
//! per episode), which put a heap allocation, name resolution, formatting,
//! and SipHash on the mining hot path. The [`ShapeInterner`] replaces that
//! with hash-consing: the compact token stream produced by
//! [`crate::shape::write_shape_tokens`] (raw [`SymbolId`]s, no name
//! resolution) is interned once, and every later episode with the same
//! shape maps to the same dense [`ShapeId`] via a single [`FxHasher`] pass
//! plus one memcmp. Buckets are keyed by the 64-bit hash itself through an
//! identity hasher, so no re-hashing happens inside the map; collisions
//! are resolved by explicit chains and byte comparison, never by trusting
//! the hash.
//!
//! `ShapeId`s are **per-interner**: two sessions assign symbol ids (and
//! hence shape tokens and shape ids) independently. Anything that crosses
//! a session boundary — the pattern browser, session diffs, multi-trace
//! merging — goes through the canonical string rendering
//! ([`ShapeSignature::from_tokens`]), produced once per *pattern* rather
//! than once per episode. See [`crate::shape`] for the two-level scheme.
//!
//! [`SymbolId`]: lagalyzer_model::SymbolId
//! [`ShapeSignature::from_tokens`]: crate::shape::ShapeSignature::from_tokens

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A dense, per-interner id for one distinct shape token stream.
///
/// Ids start at zero and increase by one per fresh shape, so they double
/// as indices into side tables (that is what makes pattern bucketing an
/// array index instead of a hash lookup). They are meaningless outside
/// the [`ShapeInterner`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShapeId(u32);

impl ShapeId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: usize) -> ShapeId {
        ShapeId(u32::try_from(index).expect("more than u32::MAX distinct shapes"))
    }
}

/// The multiplier from the Fx family of hash functions.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A single-pass Fx-style hasher (the rustc `FxHash` recurrence), written
/// here so the hot path needs neither SipHash nor a new dependency.
///
/// Not DoS-resistant — fine for shape tokens, which are derived data, and
/// for [`ShapeInterner`], which never trusts the hash (it compares bytes).
#[derive(Clone, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes per multiply; the tail word carries its length
        // so "ab" and "ab\0" hash differently.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] = rem.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a token stream in one pass, mixing in the length up front.
///
/// Long streams (deep trees) are folded through four independent Fx
/// lanes, 32 bytes per round: the Fx recurrence is a serial
/// rotate–xor–multiply chain, so a single lane is latency-bound at one
/// multiply per 8 bytes, while four lanes keep the multiplier busy. The
/// lanes are combined through the same recurrence, and the sub-32-byte
/// tail goes through the plain [`FxHasher`] word loop.
pub fn hash_tokens(tokens: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(tokens.len() as u64);
    let mut rest = tokens;
    if rest.len() >= 32 {
        let mut lanes = [h.hash; 4];
        // Distinct seeds per lane so a 32-byte block of equal words does
        // not collapse the lanes into one.
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane.wrapping_add(FX_SEED.rotate_left(i as u32 * 16));
        }
        while rest.len() >= 32 {
            let (block, tail) = rest.split_at(32);
            for (i, lane) in lanes.iter_mut().enumerate() {
                let word = u64::from_le_bytes(
                    block[i * 8..i * 8 + 8]
                        .try_into()
                        .expect("8-byte lane word"),
                );
                *lane = (lane.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
            }
            rest = tail;
        }
        h.hash = 0;
        for lane in lanes {
            h.add(lane);
        }
    }
    h.write(rest);
    h.finish()
}

/// A hasher that passes pre-computed `u64` keys through unchanged.
///
/// The interner's buckets are keyed by [`hash_tokens`] output; re-hashing
/// a hash would only burn cycles.
#[derive(Clone, Default, Debug)]
pub struct IdentityHasher {
    hash: u64,
}

impl Hasher for IdentityHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only hashes u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = v;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type IdentityBuild = BuildHasherDefault<IdentityHasher>;

/// A hash-consing interner for shape token streams.
///
/// ```
/// use lagalyzer_core::intern::ShapeInterner;
///
/// let mut interner = ShapeInterner::new();
/// let (a, fresh_a) = interner.intern(b"D[P]");
/// let (b, fresh_b) = interner.intern(b"D[P]");
/// let (c, _) = interner.intern(b"D[L]");
/// assert_eq!(a, b);
/// assert!(fresh_a && !fresh_b);
/// assert_ne!(a, c);
/// assert_eq!(interner.tokens(a), b"D[P]");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ShapeInterner {
    /// Token stream per [`ShapeId`], in interning order.
    shapes: Vec<Box<[u8]>>,
    /// Hash → candidate ids. Chains are almost always length 1; hash
    /// equality is never trusted, membership is decided by byte equality.
    buckets: HashMap<u64, Vec<ShapeId>, IdentityBuild>,
}

impl ShapeInterner {
    /// Creates an empty interner.
    pub fn new() -> ShapeInterner {
        ShapeInterner::default()
    }

    /// Number of distinct shapes interned.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Interns `tokens`, returning its dense id and whether the shape was
    /// new to this interner.
    pub fn intern(&mut self, tokens: &[u8]) -> (ShapeId, bool) {
        self.intern_hashed(hash_tokens(tokens), tokens)
    }

    /// Interning with a caller-supplied hash (the testable core of
    /// [`ShapeInterner::intern`]; colliding hashes must still intern
    /// correctly).
    fn intern_hashed(&mut self, hash: u64, tokens: &[u8]) -> (ShapeId, bool) {
        let chain = self.buckets.entry(hash).or_default();
        for &id in chain.iter() {
            if &*self.shapes[id.index()] == tokens {
                return (id, false);
            }
        }
        let id = ShapeId::from_index(self.shapes.len());
        self.shapes.push(tokens.into());
        chain.push(id);
        (id, true)
    }

    /// The token stream behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn tokens(&self, id: ShapeId) -> &[u8] {
        &self.shapes[id.index()]
    }

    /// Consumes the interner, returning every token stream in id order.
    pub(crate) fn into_shapes(self) -> Vec<Vec<u8>> {
        self.shapes.into_iter().map(Vec::from).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{write_shape_tokens, ShapeSignature};
    use lagalyzer_model::prelude::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = ShapeInterner::new();
        let (a, fa) = i.intern(b"D");
        let (b, fb) = i.intern(b"D[P]");
        let (a2, fa2) = i.intern(b"D");
        assert!(fa && fb && !fa2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn empty_tokens_intern() {
        // A structureless shape ("" would be a bare root with no
        // children in some encodings) must round-trip like any other.
        let mut i = ShapeInterner::new();
        let (id, fresh) = i.intern(b"");
        assert!(fresh);
        assert_eq!(i.tokens(id), b"");
        assert_eq!(i.intern(b""), (id, false));
    }

    #[test]
    fn colliding_hashes_still_separate_shapes() {
        // Force every shape into one bucket: correctness must come from
        // the byte comparison, not from hash quality.
        let mut i = ShapeInterner::new();
        let (a, _) = i.intern_hashed(42, b"D[P]");
        let (b, fresh_b) = i.intern_hashed(42, b"D[L]");
        let (c, fresh_c) = i.intern_hashed(42, b"D[P]");
        assert_ne!(a, b, "distinct tokens must get distinct ids");
        assert!(fresh_b);
        assert_eq!(a, c);
        assert!(!fresh_c);
        assert_eq!(i.tokens(a), b"D[P]");
        assert_eq!(i.tokens(b), b"D[L]");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn fx_hash_distinguishes_tail_lengths() {
        assert_ne!(hash_tokens(b"ab"), hash_tokens(b"ab\0"));
        assert_ne!(hash_tokens(b""), hash_tokens(b"\0"));
        assert_eq!(hash_tokens(b"D[P]"), hash_tokens(b"D[P]"));
    }

    #[test]
    fn render_matches_of_tree() {
        let mut symbols = SymbolTable::new();
        let m = symbols.method("javax.swing.JFrame", "paint");
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, TimeNs::ZERO).unwrap();
        b.leaf(
            IntervalKind::Paint,
            Some(m),
            TimeNs::from_millis(1),
            TimeNs::from_millis(5),
        )
        .unwrap();
        b.exit(TimeNs::from_millis(6)).unwrap();
        let tree = b.finish().unwrap();

        let mut tokens = Vec::new();
        write_shape_tokens(&tree, &mut tokens);
        let mut i = ShapeInterner::new();
        let (id, _) = i.intern(&tokens);
        assert_eq!(
            ShapeSignature::from_tokens(i.tokens(id), &symbols),
            ShapeSignature::of_tree(&tree, &symbols)
        );
    }

    #[test]
    fn gc_exclusion_parity_with_string_signatures() {
        // Two trees that differ only by GC nodes intern to the same id,
        // exactly as their string signatures are equal.
        let build = |with_gc: bool| {
            let mut symbols = SymbolTable::new();
            let m = symbols.method("a.B", "c");
            let mut b = IntervalTreeBuilder::new();
            b.enter(IntervalKind::Dispatch, None, TimeNs::ZERO).unwrap();
            b.enter(IntervalKind::Native, Some(m), TimeNs::from_millis(1))
                .unwrap();
            if with_gc {
                b.leaf(
                    IntervalKind::Gc,
                    None,
                    TimeNs::from_millis(2),
                    TimeNs::from_millis(3),
                )
                .unwrap();
            }
            b.exit(TimeNs::from_millis(5)).unwrap();
            b.exit(TimeNs::from_millis(6)).unwrap();
            (b.finish().unwrap(), symbols)
        };
        let (plain, s1) = build(false);
        let (gc, s2) = build(true);
        let mut tokens_plain = Vec::new();
        let mut tokens_gc = Vec::new();
        assert!(!write_shape_tokens(&plain, &mut tokens_plain));
        assert!(write_shape_tokens(&gc, &mut tokens_gc));
        let mut i = ShapeInterner::new();
        let (a, _) = i.intern(&tokens_plain);
        let (b, fresh) = i.intern(&tokens_gc);
        assert_eq!(a, b, "GC nodes must not split shapes");
        assert!(!fresh);
        assert_eq!(
            ShapeSignature::of_tree(&plain, &s1),
            ShapeSignature::of_tree(&gc, &s2)
        );
    }
}
