//! The case runner: deterministic RNG, config, and error type.

use std::fmt;

/// Why a single test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case found a counterexample.
    Fail(String),
    /// The case asked to be discarded (e.g. `prop_assume`).
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// A rejection (discard) with the given reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// The outcome of one test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (mirrors `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// 256 cases, or as many as the `PROPTEST_CASES` environment variable
/// says, as in `proptest`.
impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|cases| cases.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

/// The deterministic generator handed to strategies (xoshiro256**).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds via SplitMix64 expansion of `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits (xoshiro256**, Blackman & Vigna).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is an empty range");
        self.next_u64() % bound
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn fnv1a(data: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in data.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs `case` up to `config.cases` times with a deterministic per-test
/// seed, panicking on the first failure (no shrinking is attempted).
///
/// # Panics
///
/// Panics when a case fails, or when too many cases are rejected.
pub fn run_proptest<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let mut rng = TestRng::seed_from_u64(fnv1a(name));
    let mut passed = 0u32;
    let mut rejected = 0u32;
    while passed < config.cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected < config.cases.saturating_mul(16).max(1024),
                    "{name}: too many rejected cases ({rejected})"
                );
            }
            Err(TestCaseError::Fail(message)) => {
                panic!("{name}: case {passed} failed (no shrinking attempted)\n{message}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = TestRng::seed_from_u64(3);
        let mut b = TestRng::seed_from_u64(3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn runner_counts_cases() {
        let mut runs = 0;
        run_proptest(&ProptestConfig::with_cases(17), "counting", |_| {
            runs += 1;
            Ok(())
        });
        assert_eq!(runs, 17);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn runner_panics_on_failure() {
        run_proptest(&ProptestConfig::default(), "failing", |_| {
            Err(TestCaseError::fail("boom"))
        });
    }

    #[test]
    fn rejects_are_skipped() {
        let mut attempts = 0;
        run_proptest(&ProptestConfig::with_cases(4), "rejecting", |rng| {
            attempts += 1;
            if rng.below(2) == 0 {
                Err(TestCaseError::reject("coin"))
            } else {
                Ok(())
            }
        });
        assert!(attempts >= 4);
    }
}
