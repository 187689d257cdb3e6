//! The checksums of the binary containers.
//!
//! Every checksum a `.lgz` trace or a `.lgzc` corpus carries — the trailer,
//! the extent footer's and the rollup section's own checksums, and a
//! rollup's content checksum — is computed with one hash, and the file's
//! version byte selects which:
//!
//! | container | versions | hash                        |
//! |-----------|----------|-----------------------------|
//! | `.lgz`    | 1, 2     | [`Algorithm::Fnv1a`]        |
//! | `.lgz`    | 3        | [`Algorithm::Lane4`]        |
//! | `.lgzc`   | 1        | [`Algorithm::Fnv1a`]        |
//! | `.lgzc`   | 2        | [`Algorithm::Lane4`]        |
//!
//! The writers emit only the newest versions (the footerless legacy
//! `.lgz` v1 aside), so older files keep verifying with the hash they were
//! sealed with and nothing but the version byte chooses between the two.
//!
//! FNV-1a is byte serial: every input byte waits on a 64-bit multiply, so
//! it runs at well under 1 GB/s and dominated the time it takes to open a
//! trace. `Lane4` runs four independent lanes over 32-byte stripes, so
//! the multiplies of one stripe overlap, and keeps the property the
//! trailer relies on: every step is a bijection of the value it consumes,
//! so any change confined to one aligned 8-byte word of the input (a
//! single-byte change included) always changes the digest.

/// The hash a container's version byte selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Byte-serial 64-bit FNV-1a: `.lgz` v1 and v2, `.lgzc` v1.
    Fnv1a,
    /// The four-lane stripe hash: `.lgz` v3, `.lgzc` v2. Four 64-bit
    /// lanes take one little-endian word each of every 32-byte stripe;
    /// the digest folds the lanes, the words after the last whole stripe
    /// (the last one zero-extended) and the total length, so a change
    /// confined to one aligned 8-byte word always changes it.
    Lane4,
}

impl Algorithm {
    /// The hash of a `.lgz` trace of format `version`. Versions this build
    /// does not know are read as the newest one, which salvage decoding
    /// assumes for them too.
    pub(crate) const fn of_trace_version(version: u8) -> Algorithm {
        if version >= 3 {
            Algorithm::Lane4
        } else {
            Algorithm::Fnv1a
        }
    }

    /// The hash of a `.lgzc` corpus of format `version`, read the same way
    /// as [`of_trace_version`](Algorithm::of_trace_version).
    pub(crate) const fn of_corpus_version(version: u8) -> Algorithm {
        if version >= 2 {
            Algorithm::Lane4
        } else {
            Algorithm::Fnv1a
        }
    }

    /// The hash of a binary trace or corpus, from its magic and version
    /// byte; `None` when `bytes` carry neither signature.
    pub(crate) fn of_file(bytes: &[u8]) -> Option<Algorithm> {
        let version = *bytes.get(7)?;
        if bytes.starts_with(crate::binary::MAGIC_PREFIX) {
            Some(Algorithm::of_trace_version(version))
        } else if bytes.starts_with(crate::corpus::CORPUS_MAGIC_PREFIX) {
            Some(Algorithm::of_corpus_version(version))
        } else {
            None
        }
    }

    /// A fresh streaming hasher.
    pub(crate) fn hasher(self) -> Hasher {
        match self {
            Algorithm::Fnv1a => Hasher::Fnv1a(Fnv1a::new()),
            Algorithm::Lane4 => Hasher::Lane4(Lane4::new()),
        }
    }

    /// Hashes `bytes` in one call.
    pub fn hash(self, bytes: &[u8]) -> u64 {
        let mut h = self.hasher();
        h.update(bytes);
        h.finish()
    }
}

/// A streaming hasher of either [`Algorithm`].
#[derive(Clone, Debug)]
pub(crate) enum Hasher {
    Fnv1a(Fnv1a),
    Lane4(Lane4),
}

impl Hasher {
    /// Feeds `bytes`; any split of the input gives the same digest.
    #[inline]
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        match self {
            Hasher::Fnv1a(h) => h.update(bytes),
            Hasher::Lane4(h) => h.update(bytes),
        }
    }

    /// The digest of everything fed so far. The hasher is left as it
    /// was, so this also snapshots a stream mid-way.
    pub(crate) fn finish(&self) -> u64 {
        match self {
            Hasher::Fnv1a(h) => h.finish(),
            Hasher::Lane4(h) => h.finish(),
        }
    }
}

/// Streaming 64-bit FNV-1a, the checksum of `.lgz` v1/v2 and `.lgzc` v1.
#[derive(Clone, Debug)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher over the empty input.
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds `bytes`, one byte at a time.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything fed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Bytes per stripe: one little-endian 64-bit word per lane.
const STRIPE: usize = 32;

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// The lanes' starting states: distinct, so equal stripes in different
/// lanes do not cancel.
const SEEDS: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];

/// One lane step. For a fixed lane state it is a bijection of the word
/// (multiply by an odd constant, add, rotate, multiply by an odd
/// constant), and for a fixed word a bijection of the lane state.
#[inline(always)]
const fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// One FNV-style fold of a 64-bit value into the digest: xor, then
/// multiply by an odd constant — a bijection of either input.
#[inline(always)]
const fn fold(h: u64, value: u64) -> u64 {
    (h ^ value).wrapping_mul(P1)
}

/// The final mix: xor-shifts and odd multiplies, each a bijection, so
/// distinct folded states stay distinct digests.
const fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Reads the little-endian word at `at` of a stripe.
#[inline(always)]
fn word(stripe: &[u8; STRIPE], at: usize) -> u64 {
    u64::from_le_bytes(stripe[at..at + 8].try_into().expect("8-byte word"))
}

/// The four-lane stripe hash, the checksum of `.lgz` v3 and `.lgzc` v2.
///
/// The input is cut into 32-byte stripes; word `k` of every stripe (its
/// bytes `8k..8k + 8`, little endian) is mixed into lane `k` by an
/// xxHash-style round, so the four lanes advance independently. The
/// digest folds, FNV-style, the four lanes, then the bytes after the last
/// whole stripe as little-endian words (the last one zero-extended), then
/// the total length, and mixes the result. Every step is a bijection of
/// the value it takes in, so a change confined to one aligned 8-byte word
/// of the input always changes the digest.
///
/// [`finish`](Lane4::finish) does not consume the state: it can snapshot
/// a stream at any byte, with no padding, and the stream goes on.
#[derive(Clone, Debug)]
pub(crate) struct Lane4 {
    lanes: [u64; 4],
    /// The bytes after the last whole stripe fed so far.
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Lane4 {
    /// A hasher over the empty input.
    pub(crate) fn new() -> Lane4 {
        Lane4 {
            lanes: SEEDS,
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    /// Feeds `bytes`; any split of the input gives the same digest.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            let stripe = self.tail;
            self.stripes(&stripe);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Mixes whole stripes into the lanes; `bytes.len()` is a multiple of
    /// [`STRIPE`].
    #[inline]
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for stripe in bytes.chunks_exact(STRIPE) {
            let stripe: &[u8; STRIPE] = stripe.try_into().expect("whole stripe");
            a = round(a, word(stripe, 0));
            b = round(b, word(stripe, 8));
            c = round(c, word(stripe, 16));
            d = round(d, word(stripe, 24));
        }
        self.lanes = [a, b, c, d];
    }

    /// The digest of everything fed so far; the state is left as it was.
    pub(crate) fn finish(&self) -> u64 {
        let mut h = SEEDS[0];
        for lane in self.lanes {
            h = fold(h, lane);
        }
        for w in self.tail[..self.tail_len].chunks(8) {
            let mut padded = [0u8; 8];
            padded[..w.len()].copy_from_slice(w);
            h = fold(h, u64::from_le_bytes(padded));
        }
        avalanche(fold(h, self.total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: assembles each word from its bytes
    /// and hands it to its lane, or to the tail fold after the last whole
    /// stripe, without the streaming buffer or the stripe loop.
    fn reference(bytes: &[u8]) -> u64 {
        let whole = bytes.len() / STRIPE * STRIPE;
        let mut lanes = SEEDS;
        let mut w = 0u64;
        for (i, &b) in bytes[..whole].iter().enumerate() {
            w |= u64::from(b) << (8 * (i % 8));
            if i % 8 == 7 {
                let lane = &mut lanes[i / 8 % 4];
                *lane = round(*lane, w);
                w = 0;
            }
        }
        let mut h = SEEDS[0];
        for lane in lanes {
            h = fold(h, lane);
        }
        let tail = &bytes[whole..];
        for (i, &b) in tail.iter().enumerate() {
            w |= u64::from(b) << (8 * (i % 8));
            if i % 8 == 7 || i + 1 == tail.len() {
                h = fold(h, w);
                w = 0;
            }
        }
        avalanche(fold(h, bytes.len() as u64))
    }

    /// Deterministic filler bytes.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31) ^ 0x5a).collect()
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vector: "a" hashes to 0xaf63dc4c8601ec8c.
        assert_eq!(Algorithm::Fnv1a.hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Algorithm::Fnv1a.hash(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn lane4_fixed_vectors() {
        // Pinned digests: a change here changes every v3 trace and v2
        // corpus on disk.
        let cases: [(&[u8], u64); 5] = [
            (b"", 0x245b_ff4d_f2c5_cb6a),
            (b"a", 0x6abb_8b45_eb77_aa8c),
            (b"LagAlyzer", 0x2419_fe6c_499a_ddd4),
            (&bytes(32), 0x064a_c512_c5d6_1c5b),
            (&bytes(100), 0x1a3c_42d5_324d_3546),
        ];
        for (input, digest) in cases {
            assert_eq!(
                Algorithm::Lane4.hash(input),
                digest,
                "len {}: {:#018x}",
                input.len(),
                Algorithm::Lane4.hash(input)
            );
            assert_eq!(reference(input), digest, "reference, len {}", input.len());
        }
    }

    #[test]
    fn lane4_matches_reference_at_every_length_and_split() {
        let input = bytes(97);
        for len in 0..=input.len() {
            let whole = Algorithm::Lane4.hash(&input[..len]);
            assert_eq!(whole, reference(&input[..len]), "len {len}");
            for split in [0, 1, 7, 8, 31, 32, 33, len / 2] {
                let split = split.min(len);
                let mut h = Lane4::new();
                h.update(&input[..split]);
                assert_eq!(h.finish(), reference(&input[..split]), "snapshot {split}");
                h.update(&input[split..len]);
                assert_eq!(h.finish(), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn lane4_notices_every_single_word_change() {
        // Every bit of every word, including the zero-extended last one.
        let input = bytes(75);
        let digest = Algorithm::Lane4.hash(&input);
        for at in 0..input.len() {
            for bit in 0..8 {
                let mut flipped = input.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(
                    Algorithm::Lane4.hash(&flipped),
                    digest,
                    "byte {at} bit {bit}"
                );
            }
        }
        // Trailing zero bytes change the length, which is folded too.
        assert_ne!(Algorithm::Lane4.hash(b"ab"), Algorithm::Lane4.hash(b"ab\0"));
    }

    #[test]
    fn version_bytes_select_the_hash() {
        assert_eq!(Algorithm::of_file(b"LGLZTRC\x01"), Some(Algorithm::Fnv1a));
        assert_eq!(Algorithm::of_file(b"LGLZTRC\x02"), Some(Algorithm::Fnv1a));
        assert_eq!(Algorithm::of_file(b"LGLZTRC\x03"), Some(Algorithm::Lane4));
        assert_eq!(Algorithm::of_file(b"LGLZCRP\x01"), Some(Algorithm::Fnv1a));
        assert_eq!(Algorithm::of_file(b"LGLZCRP\x02"), Some(Algorithm::Lane4));
        assert_eq!(Algorithm::of_file(b"LGLZTRC"), None);
        assert_eq!(Algorithm::of_file(b"lagalyzer-trace v1"), None);
    }

    mod properties {
        use super::super::*;
        use super::reference;
        use proptest::prelude::*;

        proptest! {
            /// Streaming the input in pieces cut at random points, and
            /// snapshotting after every piece, gives the reference digest
            /// of each prefix.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn streaming_snapshots_match_reference(
                input in proptest::collection::vec(any::<u8>(), 0..600),
                cuts in proptest::collection::vec(0usize..600, 0..8),
            ) {
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(input.len())).collect();
                cuts.push(input.len());
                cuts.sort_unstable();
                let mut h = Algorithm::Lane4.hasher();
                let mut at = 0;
                for cut in cuts {
                    h.update(&input[at..cut]);
                    at = cut;
                    prop_assert_eq!(h.finish(), reference(&input[..at]));
                }
                prop_assert_eq!(h.finish(), Algorithm::Lane4.hash(&input));
            }

            /// Flipping any bits inside one aligned 8-byte word changes
            /// the digest.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn one_word_changes_always_change_the_digest(
                input in proptest::collection::vec(any::<u8>(), 1..400),
                word in any::<usize>(),
                mask in any::<u64>(),
            ) {
                let start = word % input.len().div_ceil(8) * 8;
                let end = (start + 8).min(input.len());
                let mut flipped = input.clone();
                for (i, b) in flipped[start..end].iter_mut().enumerate() {
                    *b ^= (mask >> (8 * i)) as u8;
                }
                prop_assume!(flipped != input);
                prop_assert_ne!(Algorithm::Lane4.hash(&flipped), Algorithm::Lane4.hash(&input));
            }
        }
    }
}
