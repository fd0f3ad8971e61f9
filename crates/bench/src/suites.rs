//! The paper's five function suites (§IV).
//!
//! * `NPN4` — all 222 4-input NPN classes;
//! * `FDSD6` / `FDSD8` — fully-DSD-decomposable functions of 6 / 8
//!   inputs;
//! * `PDSD6` / `PDSD8` — partially-DSD-decomposable functions of 6 / 8
//!   inputs.
//!
//! The paper draws the DSD collections from practical mapping
//! benchmarks; this crate generates them with the seeded random DSD
//! generators of `stp-tt` (see `DESIGN.md`, *Substitutions*). Counts and
//! timeout scale between a *quick* profile (minutes on a laptop) and the
//! *full* paper-scale profile.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_tt::{npn_classes, random_fdsd, random_pdsd, TruthTable};

/// A named collection of specification functions.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name as printed in Table I.
    pub name: &'static str,
    /// The specification functions.
    pub functions: Vec<TruthTable>,
}

/// Scale profile for suite generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced instance counts: the whole table regenerates in minutes.
    Quick,
    /// The paper's instance counts (222 / 1000 / 100 / 1000 / 100).
    Full,
}

/// Deterministic seed base so runs are reproducible.
const SEED: u64 = 0x5154_5053_594e_5448; // "QTPSYNTH"

/// The `NPN4` suite: all 222 4-input NPN class representatives.
pub fn npn4() -> Suite {
    Suite { name: "NPN4", functions: npn_classes(4) }
}

/// A fully-DSD suite of `count` functions over `num_vars` inputs.
pub fn fdsd(num_vars: usize, count: usize, seed_offset: u64) -> Suite {
    let mut rng = SmallRng::seed_from_u64(SEED ^ seed_offset);
    let functions = (0..count).map(|_| random_fdsd(num_vars, &mut rng)).collect();
    Suite { name: if num_vars == 6 { "FDSD6" } else { "FDSD8" }, functions }
}

/// A partially-DSD suite of `count` functions over `num_vars` inputs.
///
/// Difficulty is mixed the way the paper's collections are: even
/// indices embed a 3-input prime block, odd indices a 4-input one —
/// the larger blocks are the instances that drive every engine toward
/// its timeout (the paper's PDSD rows are the only ones with `#t/o`).
pub fn pdsd(num_vars: usize, count: usize, seed_offset: u64) -> Suite {
    let mut rng = SmallRng::seed_from_u64(SEED ^ seed_offset ^ 0x7064_7364);
    let functions = (0..count)
        .map(|i| random_pdsd(num_vars, if i % 2 == 0 { 3 } else { 4 }, &mut rng))
        .collect();
    Suite { name: if num_vars == 6 { "PDSD6" } else { "PDSD8" }, functions }
}

/// The wide-spec suite: fully-DSD functions of 9–12 inputs, two per
/// arity. Their specs span 8–64 words, so factoring routes through the
/// four-word instance of the split kernel
/// (`factor_split_words::<4, WIDE_WORDS, WIDE_SHARED>`) for every split
/// with `|A| + |B| ≤ 8` and `|S| ≤ 8` — the workload the
/// `BENCH_factor.json` wide row pins.
pub fn wide() -> Suite {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x7769_6465); // "wide"
    let functions =
        (9..=12).flat_map(|n| [random_fdsd(n, &mut rng), random_fdsd(n, &mut rng)]).collect();
    Suite { name: "WIDE[9..12]", functions }
}

/// The five Table I suites at the requested scale.
pub fn standard_suites(scale: Scale) -> Vec<Suite> {
    let (fdsd6_n, fdsd8_n, pdsd6_n, pdsd8_n) = match scale {
        Scale::Quick => (40, 8, 20, 4),
        Scale::Full => (1000, 100, 1000, 100),
    };
    vec![npn4(), fdsd(6, fdsd6_n, 6), fdsd(8, fdsd8_n, 8), pdsd(6, pdsd6_n, 6), pdsd(8, pdsd8_n, 8)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_tt::is_full_dsd;

    #[test]
    fn npn4_has_222_functions() {
        assert_eq!(npn4().functions.len(), 222);
    }

    #[test]
    fn fdsd_suites_are_fully_decomposable() {
        let suite = fdsd(6, 8, 6);
        assert_eq!(suite.functions.len(), 8);
        for f in &suite.functions {
            assert_eq!(f.num_vars(), 6);
            assert_eq!(f.support().len(), 6);
            assert!(is_full_dsd(f));
        }
    }

    #[test]
    fn pdsd_suites_are_partially_decomposable() {
        let suite = pdsd(6, 5, 6);
        assert_eq!(suite.functions.len(), 5);
        for f in &suite.functions {
            assert_eq!(f.support().len(), 6);
            assert!(!is_full_dsd(f));
        }
    }

    #[test]
    fn suites_are_deterministic() {
        let a = fdsd(6, 5, 6);
        let b = fdsd(6, 5, 6);
        assert_eq!(a.functions, b.functions);
    }

    #[test]
    fn quick_scale_produces_all_five_suites() {
        let suites = standard_suites(Scale::Quick);
        assert_eq!(suites.len(), 5);
        let names: Vec<&str> = suites.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["NPN4", "FDSD6", "FDSD8", "PDSD6", "PDSD8"]);
    }
}
