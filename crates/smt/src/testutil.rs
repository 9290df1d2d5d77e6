//! Test-only helpers shared by the theory modules' randomized tests.

/// Tiny deterministic xorshift generator, so randomized property tests are
/// reproducible from their seed and need no external RNG crate.
pub struct XorShift(pub u64);

impl XorShift {
    /// The next raw 64-bit value.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo) as u64)) as i64
    }

    /// `true` with the given probability in percent.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}
