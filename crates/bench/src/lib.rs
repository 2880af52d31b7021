//! Reproduction harness for the evaluation section of
//! *"Hybrid STT-CMOS Designs for Reverse-engineering Prevention"*.
//!
//! Two binaries cover what the campaign engine does not:
//!
//! | Binary | Paper artifact | What it prints |
//! |---|---|---|
//! | `fig1` | Figure 1 | MTJ-LUT vs static CMOS ratio table: published values next to the ratios derived from the calibrated technology model |
//! | `ablation` | (ours) | LUT-count and hardening sweeps behind the design choices |
//!
//! Table I, Table II and Figure 3 come from the campaign engine:
//! `sttlock-cli campaign --table table1|table2|fig3|all`.
//!
//! `ablation` reads its options through [`HarnessArgs`]: `--max-gates <n>`
//! bounds the profile its sweeps run on, and `--seed <n>` fixes the
//! randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::{profiles, Profile};
use sttlock_campaign::circuit_seed;
use sttlock_netlist::Netlist;

/// Command-line options of the `ablation` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Skip benchmarks above this gate count.
    pub max_gates: usize,
    /// Seed for circuit generation and selection.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            max_gates: usize::MAX,
            seed: 42,
        }
    }
}

impl HarnessArgs {
    /// Parses `--max-gates <n>` and `--seed <n>` from the process args.
    ///
    /// Unknown flags abort with a usage message, so typos do not silently
    /// run the full suite.
    pub fn parse() -> Self {
        let mut out = HarnessArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--max-gates" => {
                    out.max_gates = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--max-gates needs an integer"));
                }
                "--seed" => {
                    out.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag `{other}`")),
            }
        }
        out
    }

    /// The benchmark profiles selected by `--max-gates`.
    pub fn profiles(&self) -> Vec<Profile> {
        profiles::up_to(self.max_gates)
    }

    /// Generates the circuit for a profile with this run's seed.
    ///
    /// The per-profile stream split lives in
    /// [`sttlock_campaign::circuit_seed`] so the campaign engine and
    /// the ablation sweeps generate byte-identical circuits.
    pub fn generate(&self, profile: &Profile) -> Netlist {
        let mut rng = StdRng::seed_from_u64(circuit_seed(self.seed, profile.name));
        profile.generate(&mut rng)
    }
}

/// Prints `problem` and the usage line to stderr and exits: status 2
/// for a problem, 0 for an empty one (`--help`).
pub fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: <bin> [--max-gates N] [--seed N]");
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_cover_all_profiles() {
        let a = HarnessArgs::default();
        assert_eq!(a.profiles().len(), 12);
    }

    #[test]
    fn max_gates_filters() {
        let a = HarnessArgs {
            max_gates: 700,
            seed: 1,
        };
        assert!(a.profiles().iter().all(|p| p.gates <= 700));
    }

    #[test]
    fn per_profile_seeds_differ() {
        assert_ne!(circuit_seed(42, "s641"), circuit_seed(42, "s820"));
    }

    #[test]
    fn generate_matches_profile() {
        let a = HarnessArgs {
            max_gates: 300,
            seed: 9,
        };
        let p = a.profiles()[0];
        let n = a.generate(&p);
        assert_eq!(n.gate_count(), p.gates);
    }
}
