//! The request generator's randomness: a SplitMix64 stream and a Zipf
//! sampler. Owned by the benchmark so the program under test receives
//! only the generated requests, never the seed.

use farmem_bench::ZipfTable;

/// SplitMix64: tiny, fast, and good enough to draw keys from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` and a per-use `salt` (so two
    /// generators of one run never share a sequence).
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2^-40 for the
    /// key counts used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf over `0..n` with exponent `s`: `farmem_bench::ZipfTable` draws
/// the rank, and a fixed permutation maps ranks to keys, so popular keys
/// are not neighbours in the tree. Which keys are popular is a property
/// of the workload, not of the seed: if it moved with the seed, so would
/// the hot keys' chain lengths, and `rt_per_op` would differ by 2 %
/// between seeds instead of 0.1 %.
pub struct Zipf {
    ranks: ZipfTable,
    perm: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler and the rank→key permutation (O(n) once, at
    /// set-up); `seed` feeds the rank draws only.
    pub fn new(n: u64, s: f64, seed: u64) -> Zipf {
        assert!(n <= u64::from(u32::MAX), "zipf key count out of range");
        let mut rng = Rng::new(0x706f_7075_6c61_7269, n);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf {
            ranks: ZipfTable::new(n, s, seed),
            perm,
        }
    }

    /// Draws one key in `0..n`.
    pub fn key(&mut self) -> u64 {
        u64::from(self.perm[self.ranks.next_key() as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut z = Zipf::new(1000, 0.99, 1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.key() as usize] += 1;
        }
        let top = *counts.iter().max().unwrap();
        // Rank 0 draws ~1/H(1000, 0.99) ≈ 13% of the traffic.
        assert!(top > 10_000 && top < 17_000, "top key drew {top}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 600);
        // Another seed draws another sequence over the same hot key.
        let hot = counts.iter().position(|&c| c == top).unwrap();
        let mut other = Zipf::new(1000, 0.99, 2);
        let again = (0..10_000).filter(|_| other.key() as usize == hot).count();
        assert!(again > 1_000, "seed 2 drew key {hot} only {again} times");
    }
}
