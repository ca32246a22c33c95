//! SplitMix64: the only source of randomness in loadgen. Every statement
//! sequence, literal and data seed derives from the `--seed` argument
//! through it, so the same seed always produces the same run inputs.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)` — one per connection,
    /// table or statement pool, so adding a consumer never shifts the
    /// literals another one draws.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95));
        rng.next_u64();
        Rng(rng.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `k` distinct values from `lo..hi`, in draw order.
    pub fn distinct(&mut self, k: usize, lo: i64, hi: i64) -> Vec<i64> {
        assert!(
            (hi - lo) as usize >= k,
            "range too small for {k} distinct draws"
        );
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.range(lo, hi);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}
