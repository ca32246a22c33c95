//! The seeded property harness shared by the randomized test binaries.
//!
//! Originally written against `proptest`; the offline build vendors only a
//! small `rand` stand-in, so properties are driven by an explicit
//! seeded-case loop instead, and every failure message carries the seed
//! needed to replay it.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run `property` against `cases` independently seeded RNGs.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..cases {
        let seed = 0x5AA5_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if result.is_err() {
            panic!("property '{name}' failed for seed {seed:#x}");
        }
    }
}
