//! Deterministic randomness.
//!
//! Every stochastic decision in the stack — link jitter and loss in the
//! simulator, tie-breaking in higher layers — draws from a seeded ChaCha8
//! stream, so a run is fully reproducible from its seed. The generator
//! lives in the kernel (rather than in `simnet`, where it originated) so
//! non-simulated platforms get the same reproducibility guarantees.
//!
//! The keystream is ChaCha with 8 rounds (4 double rounds), a 64-bit
//! block counter and a zero nonce; the 256-bit key is expanded from the
//! `u64` seed with SplitMix64, one 32-bit key word per step. A `u64`
//! draw is two consecutive keystream words, low word first.

use std::ops::RangeInclusive;

/// ChaCha double rounds per block (ChaCha8).
const DOUBLE_ROUNDS: usize = 4;

/// Keystream words per ChaCha block.
const BLOCK_WORDS: usize = 16;

/// A seeded, reproducible random number generator.
///
/// # Examples
///
/// ```
/// use cscw_kernel::SeededRng;
///
/// let mut a = SeededRng::seed_from(7);
/// let mut b = SeededRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    /// The key words of the ChaCha state.
    key: [u32; 8],
    /// The counter of the next block to generate.
    counter: u64,
    /// The current keystream block.
    block: [u32; BLOCK_WORDS],
    /// The next unread word of `block`; `BLOCK_WORDS` means "refill".
    index: usize,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut state = seed;
        let key = std::array::from_fn(|_| {
            // SplitMix64 with the golden-gamma increment; each step
            // yields one key word (its low 32 bits).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        });
        SeededRng {
            key,
            counter: 0,
            block: [0; BLOCK_WORDS],
            index: BLOCK_WORDS,
        }
    }

    /// Returns the next `u64` from the stream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }

    /// Returns a uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.scaled(u128::from(bound))
    }

    /// Returns a uniformly random value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "lo must not exceed hi");
        lo + self.scaled(u128::from(hi - lo) + 1)
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`). The
    /// extremes draw nothing.
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Returns a uniformly random `f64` in `[0, 1)`: the top 53 bits of
    /// one `u64` draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a string whose length is drawn uniformly from `len` and
    /// whose characters are each drawn uniformly from the ASCII
    /// `alphabet`: what a character-class pattern such as `[a-z]{1,8}`
    /// generates.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is empty or not ASCII, or if `len` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use cscw_kernel::SeededRng;
    ///
    /// let mut rng = SeededRng::seed_from(7);
    /// let word = rng.word(b"abc", 2..=4);
    /// assert!((2..=4).contains(&word.len()));
    /// assert!(word.bytes().all(|b| b"abc".contains(&b)));
    /// ```
    pub fn word(&mut self, alphabet: &[u8], len: RangeInclusive<usize>) -> String {
        assert!(
            !alphabet.is_empty() && alphabet.is_ascii(),
            "alphabet must be non-empty ASCII"
        );
        let n = self.range_inclusive(*len.start() as u64, *len.end() as u64);
        (0..n)
            .map(|_| char::from(alphabet[self.below(alphabet.len() as u64) as usize]))
            .collect()
    }

    /// Forks an independent generator whose stream is derived from this
    /// one. Used to give each node its own stream so adding a node never
    /// perturbs the draws of existing nodes.
    pub fn fork(&mut self) -> SeededRng {
        SeededRng::seed_from(self.next_u64())
    }

    /// Scales one `u64` draw into `[0, span)` by a widening multiply
    /// (`span` is at most 2^64).
    fn scaled(&mut self, span: u128) -> u64 {
        ((u128::from(self.next_u64()) * span) >> 64) as u64
    }

    fn next_u32(&mut self) -> u32 {
        if self.index == BLOCK_WORDS {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    /// Generates the block at `counter` and advances the counter.
    fn refill(&mut self) {
        let k = self.key;
        let initial: [u32; BLOCK_WORDS] = [
            // "expand 32-byte k"
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            k[0],
            k[1],
            k[2],
            k[3],
            k[4],
            k[5],
            k[6],
            k[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let mut state = initial;
        for _ in 0..DOUBLE_ROUNDS {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial) {
            *word = word.wrapping_add(init);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

#[inline(always)]
fn quarter_round(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::seed_from(123);
        let mut b = SeededRng::seed_from(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = SeededRng::seed_from(1);
        let mut b = SeededRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn keystream_advances_across_blocks() {
        let mut rng = SeededRng::seed_from(7);
        let first: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SeededRng::seed_from(9);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut rng = SeededRng::seed_from(9);
        let mut seen = [false; 4];
        for _ in 0..2000 {
            seen[rng.range_inclusive(0, 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes_are_deterministic() {
        let mut rng = SeededRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn forks_are_reproducible_and_independent() {
        let mut root1 = SeededRng::seed_from(42);
        let mut root2 = SeededRng::seed_from(42);
        let mut f1 = root1.fork();
        let mut f2 = root2.fork();
        assert_eq!(f1.next_u64(), f2.next_u64());
        assert_eq!(root1.next_u64(), root2.next_u64());
    }

    /// Every draw of one seed's stream, in the order [`drawn`] takes them.
    struct Pin {
        seed: u64,
        /// The first 40 `next_u64` words: five ChaCha blocks.
        words: [u64; 40],
        below_1000: [u64; 20],
        range_3_9: [u64; 20],
        /// Bit `i` set when the `i`-th `chance(0.3)` came up true.
        chance_30: u32,
        unit_bits: [u64; 5],
        /// The first word of the forked stream.
        fork: u64,
        /// The parent's next word after the fork.
        after_fork: u64,
    }

    fn drawn(seed: u64) -> Pin {
        let mut rng = SeededRng::seed_from(seed);
        let words = std::array::from_fn(|_| rng.next_u64());
        let below_1000 = std::array::from_fn(|_| rng.below(1000));
        let range_3_9 = std::array::from_fn(|_| rng.range_inclusive(3, 9));
        let chance_30 = (0..20).fold(0, |mask, i| mask | (u32::from(rng.chance(0.3)) << i));
        let unit_bits = std::array::from_fn(|_| rng.unit().to_bits());
        let fork = rng.fork().next_u64();
        Pin {
            seed,
            words,
            below_1000,
            range_3_9,
            chance_30,
            unit_bits,
            fork,
            after_fork: rng.next_u64(),
        }
    }

    #[rustfmt::skip]
    const PINS: [Pin; 3] = [
        Pin {
            seed: 0,
            words: [
                0xaf5a2e88d4470d8e, 0x6c0706ec08599d4d, 0x570ada7b162f42d4, 0xe20c3df659a989f3,
                0x1cf0519323903802, 0xd9e1ca2ce390c8ea, 0x07e54088fd9237fa, 0x2b7209e425b77d20,
                0xb50b7fc7fe0c4745, 0xe5c2518fa395ae82, 0x06a0fee9e75027c4, 0x1f00e0a696b78882,
                0x130637fb61cde692, 0x1cec390242773bc5, 0xa7a167a22d38edef, 0x4a9a2b3adeb638d2,
                0xdf89c6984ce87a87, 0x1c915c957cf09e40, 0xf7b8bd5ab8174119, 0x5bb4d4fb627eb881,
                0x0fa050d9073dc429, 0x395f36919e965f6f, 0x92157dd4361f2ea4, 0x24049adc5527a518,
                0x196cbc27d19c7742, 0x9835e4a6d6bdc731, 0x961450e6de86550d, 0x66dfdad60b3dccdc,
                0x10a3e73f3ce2f0c1, 0xe82cd645634e5240, 0xb4368e5b58b34c94, 0xecbabc9cbf0e9900,
                0xf11832d9ec55aa33, 0xc61d792fc31da1ca, 0xd6ac5d62377334eb, 0x91ab90c04f3d7f6f,
                0x1ea9ecfc323984a6, 0x53cdb3c93a109c91, 0xf7457b3f51fd1ef1, 0x796fff9e175b131d,
            ],
            below_1000: [959, 378, 710, 50, 106, 219, 100, 236, 611, 860, 469, 346, 108, 365, 334, 164, 196, 506, 636, 145],
            range_3_9: [9, 9, 8, 5, 9, 3, 7, 8, 6, 4, 9, 3, 8, 8, 4, 4, 9, 9, 5, 4],
            chance_30: 0x6d271,
            unit_bits: [0x3fb7a08f63c29ff8, 0x3fee88460d25f4ab, 0x3fbf1fc2b3cf4ee8, 0x3fd4a9fab6899c8e, 0x3feae29ea64b7580],
            fork: 0x1c376ea16cdb9579,
            after_fork: 0xff24409f869c2b96,
        },
        Pin {
            seed: 1,
            words: [
                0x4af8ede5e1a3cd3a, 0x36d7ac06795ad0db, 0xad281b99978a801c, 0xde21d83405c2f802,
                0x1837efa388af1deb, 0xd455855da5aca67e, 0xea3752c6e8836053, 0x019d865c968d993c,
                0xaa05216e408bcc57, 0x4e681ac1a9b00a71, 0x5c11d4a04eb99206, 0xf3424284b6739c41,
                0xbf9c6c5092628097, 0x3897536dc0b78a6d, 0x1683728d4347393c, 0x4ed64fb22c0d1a41,
                0x5cec2bb9d54c44a4, 0xbc2a30a135954e75, 0x5724f43a5c86c12a, 0xca04d927a0b982c3,
                0xed7276188a196bdf, 0x4f403eb113d62d20, 0xb9e9a296c8f8f23b, 0xa60637c6f758787d,
                0x1b8b9eb9329c2275, 0xd278d73d124e06fc, 0xc25165e3aeed849d, 0xd7ba803a0c9ae35e,
                0xb820112d8bc59624, 0x2193ef59ff46b321, 0x70583ff2e5f1f105, 0xbd44a5375c765273,
                0x03cb74d3cdfb17e7, 0x998e9dd3a0910b19, 0x5a327d207a27f65b, 0x630f1d014bab033e,
                0xb921142a51d9725d, 0x89378660cb0129e5, 0xfa5a492539d9a4d0, 0xb228722329316cdb,
            ],
            below_1000: [66, 622, 115, 733, 372, 188, 605, 777, 401, 400, 284, 999, 130, 974, 448, 178, 259, 690, 412, 522],
            range_3_9: [8, 4, 5, 9, 3, 6, 3, 5, 9, 6, 9, 8, 4, 8, 3, 4, 9, 6, 9, 4],
            chance_30: 0x88848,
            unit_bits: [0x3fdcc0443a8e5fb4, 0x3fd842566aed2f4e, 0x3fd5c6e9a454667c, 0x3fd8c3e9ceb2ac5e, 0x3feab3a109c74410],
            fork: 0x3e802ec19a0d647c,
            after_fork: 0x27b56f979c150917,
        },
        Pin {
            seed: 0xBAD,
            words: [
                0x8de36145bf0cbb75, 0x068049e914d549f9, 0x5cfe87c7f4db8b7a, 0x5f3bddab485e9deb,
                0x1448b4e9bbd417c6, 0x2a0b67e0ec333ebe, 0x615025bd40c699ae, 0xfbe883e0aecbcc88,
                0x584e6f4ce012479f, 0xd1aaf630764f283b, 0xf62925eb052a4443, 0xca793c4be331c34d,
                0x72f586600ec88dca, 0xaef9f7f7a45096bf, 0xcb92b7fc8b181c85, 0x78a663e10d284408,
                0x6080acb66afb2a3d, 0x347bdeabde0f10f0, 0x2ae025a2b4ac54e3, 0x6c910577d487a4ff,
                0x408034e024a7502e, 0x9da2a6ca5ee689b1, 0xed90532113dd8455, 0x65cfbd406d9e3e37,
                0x89041e38db0fb4b8, 0xab6786e0ae3fac38, 0x797238cca95eaf63, 0x4ed54239c4d5728c,
                0x526a0207f8af143e, 0x0d01feaf42e8a272, 0xd94895ccda230326, 0x8814d49e3e280976,
                0xda92791ea6ffad44, 0x791db4323cc0d34a, 0x50f4de1580a430bd, 0x4a0407d433f37ea6,
                0x85db1fc282e15e5c, 0xcc29691752f950a5, 0xcbe8f27a31e3b1a8, 0x66eb31a8a96167a8,
            ],
            below_1000: [288, 690, 813, 356, 957, 712, 213, 544, 303, 387, 7, 121, 760, 464, 757, 617, 548, 772, 139, 774],
            range_3_9: [9, 9, 7, 7, 3, 9, 6, 5, 5, 7, 8, 8, 9, 6, 9, 6, 5, 9, 5, 6],
            chance_30: 0x58008,
            unit_bits: [0x3fe738088a68e69d, 0x3fcb23f7a9f3c094, 0x3fdf1f57df603aec, 0x3fe9d5d384ac26d0, 0x3fe649fdfa959480],
            fork: 0xa589c6802b932877,
            after_fork: 0x5282a9e68987aa75,
        },
    ];

    /// The streams every seeded figure in the workspace rests on. A
    /// change to the keystream, the seed expansion or any sampler's
    /// arithmetic moves one of these words.
    #[test]
    fn streams_are_pinned() {
        for pin in &PINS {
            let got = drawn(pin.seed);
            let seed = pin.seed;
            assert_eq!(got.words, pin.words, "words, seed {seed:#x}");
            assert_eq!(got.below_1000, pin.below_1000, "below, seed {seed:#x}");
            assert_eq!(got.range_3_9, pin.range_3_9, "range, seed {seed:#x}");
            assert_eq!(got.chance_30, pin.chance_30, "chance, seed {seed:#x}");
            assert_eq!(got.unit_bits, pin.unit_bits, "unit, seed {seed:#x}");
            assert_eq!(got.fork, pin.fork, "fork, seed {seed:#x}");
            assert_eq!(got.after_fork, pin.after_fork, "after fork, seed {seed:#x}");
        }
    }
}
