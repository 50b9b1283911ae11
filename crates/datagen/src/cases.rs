//! Seeded case loops for the workspace's property tests.
//!
//! [`for_cases`] runs a property over `n` generated cases. Case `i` of
//! property `name` draws from its own [`StdRng`], seeded from a hash of
//! `name` and `i`, so every run replays the same cases and a failing one
//! can be replayed alone from the seed the runner prints. Generators are
//! plain functions of the case's generator; there is no shrinking.

use rand::SeedableRng;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub use rand::rngs::StdRng;
pub use rand::Rng;

/// The seed of case `index` of property `name`: FNV-1a over the name,
/// with the index mixed in by the golden-ratio increment.
fn seed(name: &str, index: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^ u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The generator of case `index` of property `name`.
pub fn case_rng(name: &str, index: u32) -> StdRng {
    StdRng::seed_from_u64(seed(name, index))
}

/// Run `case` over `n` cases of property `name`, each on its own
/// [`case_rng`]. When a case panics, print the property, the case and its
/// seed to stderr and re-raise the case's own panic.
pub fn for_cases(name: &str, n: u32, mut case: impl FnMut(&mut StdRng)) {
    for index in 0..n {
        let mut rng = case_rng(name, index);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            eprintln!("{}", failure(name, index, n));
            resume_unwind(payload);
        }
    }
}

/// A vector of `len` (drawn first) values of `item`.
pub fn vec<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// One of `xs`, uniformly.
pub fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

/// A string of `len` (drawn first) characters of `alphabet`.
pub fn string(rng: &mut StdRng, alphabet: &str, len: RangeInclusive<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let n = rng.gen_range(len);
    (0..n).map(|_| pick(rng, &chars)).collect()
}

/// The line a failing case prints.
fn failure(name: &str, index: u32, n: u32) -> String {
    let seed = seed(name, index);
    format!(
        "{name}: case {index} of {n} failed; replay it on \
         StdRng::seed_from_u64({seed:#018x}) (cases::case_rng({name:?}, {index}))"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(rng: &mut StdRng) -> Vec<u64> {
        (0..8).map(|_| rng.gen()).collect()
    }

    #[test]
    fn a_case_replays_its_draws() {
        assert_eq!(draws(&mut case_rng("p", 3)), draws(&mut case_rng("p", 3)));
        let mut seen = Vec::new();
        for_cases("p", 4, |rng| seen.push(draws(rng)));
        assert_eq!(seen[3], draws(&mut case_rng("p", 3)));
    }

    #[test]
    fn cases_draw_apart() {
        let mut seen: Vec<Vec<u64>> = (0..64).map(|i| draws(&mut case_rng("p", i))).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 64, "two indices of one property share draws");
        assert_ne!(draws(&mut case_rng("p", 0)), draws(&mut case_rng("q", 0)));
    }

    #[test]
    fn a_failing_case_reraises_its_own_panic() {
        let mut ran = 0;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            for_cases("fails", 10, |_| {
                ran += 1;
                if ran == 4 {
                    std::panic::panic_any(41_u32);
                }
            })
        }))
        .expect_err("case 3 panics");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&41));
        assert_eq!(ran, 4, "the runner stops at the failing case");
        let line = failure("fails", 3, 10);
        assert!(
            line.contains(&format!("{:#018x}", seed("fails", 3))),
            "{line}"
        );
        assert!(line.contains("case 3 of 10"), "{line}");
    }
}
