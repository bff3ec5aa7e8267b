//! The benchmark's seeded generator (SplitMix64): every input the
//! benchmark builds comes from `--seed` through this, so one seed gives
//! one set of inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// The first `k` entries of a seeded Fisher–Yates shuffle of `0..n`.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..n as u32).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}
