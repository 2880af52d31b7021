//! The one attack entry point: an [`AttackKind`] names an attack and its
//! limits, [`run`] runs it under the caller's budget, and
//! [`AttackOutcome::metrics`] gives the counters every front end
//! records.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_exec::Budget;
use sttlock_netlist::Netlist;

use crate::error::AttackError;
use crate::sat_attack::{self, SatAttackOutcome};
use crate::sensitization::{self, SensitizationConfig, SensitizationOutcome};

/// Default unroll bound of the no-scan attack, in clock cycles.
pub const FRAMES: usize = 8;

/// Largest unroll bound [`AttackKind::parse`] accepts. The no-scan
/// attack encodes `2 × frames` circuit copies before its first budget
/// check, so the bound caps the memory one request can ask for.
pub const MAX_FRAMES: usize = 64;

/// Default DIP limit of the SAT attacks.
pub const MAX_DIPS: usize = 10_000;

/// Which attack (if any) runs after the flow in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Flow only: overheads, selection time, security estimates.
    None,
    /// The sensitization attack (paper Section V).
    Sensitization,
    /// The full-scan oracle-guided SAT attack.
    Sat {
        /// DIP-iteration limit (0 = unlimited).
        max_dips: usize,
    },
    /// The no-scan sequential SAT attack.
    SequentialSat {
        /// Unroll bound in clock cycles.
        frames: usize,
        /// DIP-iteration limit (0 = unlimited).
        max_dips: usize,
    },
}

impl AttackKind {
    /// Stable short tag used in records and cache keys.
    pub fn tag(&self) -> &'static str {
        match self {
            AttackKind::None => "none",
            AttackKind::Sensitization => "sens",
            AttackKind::Sat { .. } => "sat",
            AttackKind::SequentialSat { .. } => "seq",
        }
    }

    /// Full descriptor, including limits, for cache keying.
    pub fn descriptor(&self) -> String {
        match self {
            AttackKind::None => "none".into(),
            AttackKind::Sensitization => "sens".into(),
            AttackKind::Sat { max_dips } => format!("sat(max_dips={max_dips})"),
            AttackKind::SequentialSat { frames, max_dips } => {
                format!("seq(frames={frames},max_dips={max_dips})")
            }
        }
    }

    /// The attack named by `tag` (`none`, `sens`, `sat` or `seq`), with
    /// the limits that kind takes.
    ///
    /// # Errors
    ///
    /// A message naming the problem: an unknown tag, or a `seq` unroll
    /// bound outside `1..=`[`MAX_FRAMES`].
    pub fn parse(tag: &str, frames: usize, max_dips: usize) -> Result<AttackKind, String> {
        match tag {
            "none" => Ok(AttackKind::None),
            "sens" => Ok(AttackKind::Sensitization),
            "sat" => Ok(AttackKind::Sat { max_dips }),
            "seq" if (1..=MAX_FRAMES).contains(&frames) => {
                Ok(AttackKind::SequentialSat { frames, max_dips })
            }
            "seq" => Err(format!(
                "`frames` must be in 1..={MAX_FRAMES}, got {frames}"
            )),
            other => Err(format!("unknown attack `{other}` (none|sens|sat|seq)")),
        }
    }
}

/// What an attack reached: the sensitization attack's per-gate recovery
/// state, or a SAT attack's DIP count and solver counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Outcome of [`AttackKind::Sensitization`].
    Sensitization(SensitizationOutcome),
    /// Outcome of [`AttackKind::Sat`] (`frames` 0) or
    /// [`AttackKind::SequentialSat`].
    Sat(SatAttackOutcome),
}

impl AttackOutcome {
    /// The counters campaign records and benchmarks keep.
    pub fn metrics(&self) -> AttackMetrics {
        match self {
            AttackOutcome::Sensitization(out) => AttackMetrics {
                broke: out.is_full_break(),
                test_clocks: out.test_clocks,
                sat_queries: out.sat_queries,
                ..AttackMetrics::default()
            },
            AttackOutcome::Sat(out) => {
                let s = out.solver_stats;
                AttackMetrics {
                    broke: out.succeeded(),
                    dips: out.dips as u64,
                    frames: out.frames as u64,
                    conflicts: s.conflicts,
                    decisions: s.decisions,
                    propagations: s.propagations,
                    restarts: s.restarts,
                    learnt_clauses: s.learnt_clauses,
                    ..AttackMetrics::default()
                }
            }
        }
    }
}

/// Attack metrics of one successful attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttackMetrics {
    /// Whether the attack fully recovered the configuration.
    pub broke: bool,
    /// DIPs (SAT attacks) — distinguishing patterns/sequences used.
    pub dips: u64,
    /// Oracle test clocks (sensitization attack).
    pub test_clocks: u64,
    /// SAT justification queries (sensitization attack).
    pub sat_queries: u64,
    /// Solver conflicts.
    pub conflicts: u64,
    /// Solver decisions.
    pub decisions: u64,
    /// Solver propagations.
    pub propagations: u64,
    /// Solver restarts.
    pub restarts: u64,
    /// Learnt clauses.
    pub learnt_clauses: u64,
    /// Unroll bound (sequential attack; 0 otherwise).
    pub frames: u64,
}

/// Runs the attack `kind` names against the foundry view `redacted` and
/// the programmed part `oracle`, until it finishes or `budget` trips.
/// Returns `None` for [`AttackKind::None`].
///
/// `seed` seeds the sensitization attack's pattern generator (the SAT
/// attacks are deterministic), so a given cell or request repeats.
///
/// # Errors
///
/// The attack's [`AttackError`]; a tripped budget is
/// [`AttackError::Budget`] carrying the partial outcome.
pub fn run(
    kind: AttackKind,
    redacted: &Netlist,
    oracle: &Netlist,
    seed: u64,
    budget: &Budget,
) -> Result<Option<AttackOutcome>, AttackError> {
    let outcome = match kind {
        AttackKind::None => return Ok(None),
        AttackKind::Sensitization => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA77A_C4ED);
            let cfg = SensitizationConfig::default();
            AttackOutcome::Sensitization(sensitization::run(
                redacted, oracle, &cfg, budget, &mut rng,
            )?)
        }
        AttackKind::Sat { max_dips } => {
            AttackOutcome::Sat(sat_attack::run(redacted, oracle, max_dips, budget)?)
        }
        AttackKind::SequentialSat { frames, max_dips } => AttackOutcome::Sat(
            sat_attack::run_sequential(redacted, oracle, frames, max_dips, budget)?,
        ),
    };
    Ok(Some(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_netlist::{GateKind, NetlistBuilder};

    /// A small sequential design with two missing gates.
    fn locked() -> (Netlist, Netlist) {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.input("d");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Nor, &["g1", "d"]);
        b.gate("g3", GateKind::Xor, &["g2", "a"]);
        b.dff("q", "g3");
        b.gate("g4", GateKind::And, &["q", "d"]);
        b.output("g4");
        b.output("g1");
        let mut programmed = b.finish().unwrap();
        for name in ["g1", "g3"] {
            let id = programmed.find(name).unwrap();
            programmed.replace_gate_with_lut(id).unwrap();
        }
        let (redacted, _) = programmed.redact();
        (redacted, programmed)
    }

    const SAT: AttackKind = AttackKind::Sat { max_dips: MAX_DIPS };
    const SEQ: AttackKind = AttackKind::SequentialSat {
        frames: 4,
        max_dips: MAX_DIPS,
    };
    const KINDS: [AttackKind; 4] = [AttackKind::None, AttackKind::Sensitization, SAT, SEQ];

    #[test]
    fn run_matches_the_attack_it_names() {
        let (redacted, oracle) = locked();
        let budget = Budget::unbounded();
        let seed = 7;
        let run = |kind| run(kind, &redacted, &oracle, seed, &budget).unwrap();

        assert_eq!(run(AttackKind::None), None);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xA77A_C4ED);
        let cfg = SensitizationConfig::default();
        let sens = sensitization::run(&redacted, &oracle, &cfg, &budget, &mut rng).unwrap();
        assert_eq!(
            run(AttackKind::Sensitization),
            Some(AttackOutcome::Sensitization(sens))
        );

        let sat = sat_attack::run(&redacted, &oracle, MAX_DIPS, &budget).unwrap();
        assert_eq!(sat.frames, 0);
        assert_eq!(run(SAT), Some(AttackOutcome::Sat(sat)));

        let seq = sat_attack::run_sequential(&redacted, &oracle, 4, MAX_DIPS, &budget).unwrap();
        assert_eq!(seq.frames, 4);
        assert_eq!(run(SEQ), Some(AttackOutcome::Sat(seq)));
    }

    #[test]
    fn metrics_carry_the_outcome_counters() {
        let (redacted, oracle) = locked();
        let budget = Budget::unbounded();
        let run = |kind| run(kind, &redacted, &oracle, 1, &budget).unwrap().unwrap();
        let sens = run(AttackKind::Sensitization);
        let AttackOutcome::Sensitization(out) = &sens else {
            panic!("{sens:?}");
        };
        let m = sens.metrics();
        assert_eq!(
            (m.test_clocks, m.sat_queries),
            (out.test_clocks, out.sat_queries)
        );
        assert_eq!((m.dips, m.frames, m.conflicts), (0, 0, 0));

        let seq = run(SEQ).metrics();
        assert!(seq.broke);
        assert_eq!(seq.frames, 4);
        assert!(seq.dips > 0 && seq.conflicts + seq.decisions > 0);
        assert_eq!(seq.test_clocks, 0);
    }

    #[test]
    fn parse_round_trips_every_kind() {
        for kind in KINDS {
            assert_eq!(AttackKind::parse(kind.tag(), 4, MAX_DIPS), Ok(kind));
        }
        assert_eq!(
            AttackKind::parse("seq", FRAMES, 3),
            Ok(AttackKind::SequentialSat {
                frames: 8,
                max_dips: 3
            })
        );
    }

    #[test]
    fn parse_rejects_unknown_tags_and_out_of_range_frames() {
        let e = AttackKind::parse("warp", FRAMES, MAX_DIPS).unwrap_err();
        assert!(e.contains("unknown attack `warp`"), "{e}");
        for frames in [0, MAX_FRAMES + 1] {
            let e = AttackKind::parse("seq", frames, MAX_DIPS).unwrap_err();
            assert!(e.contains("`frames`"), "{e}");
        }
        assert!(AttackKind::parse("seq", MAX_FRAMES, MAX_DIPS).is_ok());
        // Only the no-scan attack unrolls: other kinds ignore `frames`.
        assert_eq!(
            AttackKind::parse("sat", 0, 5),
            Ok(AttackKind::Sat { max_dips: 5 })
        );
    }

    #[test]
    fn attack_descriptors_pin_their_limits() {
        assert_eq!(
            AttackKind::Sat { max_dips: 9 }.descriptor(),
            "sat(max_dips=9)"
        );
        assert_eq!(
            AttackKind::SequentialSat {
                frames: 4,
                max_dips: 0
            }
            .descriptor(),
            "seq(frames=4,max_dips=0)"
        );
        assert_eq!(AttackKind::Sensitization.tag(), "sens");
    }
}
