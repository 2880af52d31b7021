//! Synthetic benchmark circuits with ISCAS '89 profiles.
//!
//! The paper evaluates on twelve ISCAS '89 benchmarks. The original
//! `.bench` files are distribution-restricted artifacts, so this crate
//! substitutes a **seeded random sequential circuit generator** whose
//! [`Profile`]s match the published structural parameters of each
//! benchmark: combinational gate count (the paper's Table I "size"
//! column), flip-flop count, and primary I/O counts. The selection
//! algorithms and overhead analyses depend only on these graph-structural
//! properties, so the profiles preserve the experiments' behaviour; real
//! ISCAS '89 files can be dropped in through
//! [`bench_format`](sttlock_netlist::bench_format) with no code changes.
//!
//! Every generated circuit is guaranteed to contain deep I/O paths: the
//! flip-flops form a pipeline *backbone* (each flip-flop's D-cone reads
//! the previous flip-flop), so the paper's ≥2-flip-flop path sampling
//! always succeeds.
//!
//! The generator tracks signals as node ids in declaration order
//! (inputs `I*`, gates `N*`, flip-flops `F*`) and hands the finished
//! nodes to [`Netlist::from_nodes`], so no fan-in is ever looked up by
//! name; a circuit is one pass of random draws plus one validation.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sttlock_benchgen::profiles;
//!
//! let p = profiles::by_name("s641").expect("known benchmark");
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let n = p.generate(&mut rng);
//! assert_eq!(n.gate_count(), 287); // the paper's size column
//! assert_eq!(n.dff_count(), 19);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::seq::SliceRandom;
use rand::Rng;

use sttlock_netlist::{GateKind, Netlist, Node, NodeId};

pub mod profiles;

/// Maximum flip-flop depth of a backbone pipeline chain. Register-rich
/// circuits get many parallel chains instead of one absurdly deep one,
/// matching the bounded sequential depth of the real ISCAS '89 suite.
pub const MAX_CHAIN_DEPTH: usize = 12;

/// Structural profile of a benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Benchmark name (e.g. `"s641"`).
    pub name: &'static str,
    /// Combinational gate count, excluding flip-flops — the paper's
    /// Table I "size" column.
    pub gates: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
}

impl Profile {
    /// Builds an ad-hoc profile, for sweeps and tests.
    ///
    /// # Panics
    ///
    /// Panics when [`check`](Profile::check) rejects the profile.
    pub fn custom(
        name: &'static str,
        gates: usize,
        dffs: usize,
        inputs: usize,
        outputs: usize,
    ) -> Self {
        let p = Profile {
            name,
            gates,
            dffs,
            inputs,
            outputs,
        };
        p.validate();
        p
    }

    /// Checks the structural requirements of
    /// [`generate`](Profile::generate): at least one primary input, at
    /// least one primary output, and enough gates for the flip-flop
    /// backbone and the outputs.
    ///
    /// # Errors
    ///
    /// The requirement the profile misses, worded to follow the
    /// circuit's name (`"needs at least one primary input"`).
    pub fn check(&self) -> Result<(), String> {
        if self.inputs == 0 {
            return Err("needs at least one primary input".into());
        }
        if self.outputs == 0 {
            return Err("needs at least one primary output".into());
        }
        if self.gates < self.dffs.max(1) + self.outputs.min(self.gates) {
            return Err(format!(
                "has too few gates ({}) for {} flip-flops and {} outputs",
                self.gates, self.dffs, self.outputs
            ));
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("profile `{}` {e}", self.name);
        }
    }

    /// Generates a fresh circuit matching this profile. The same seed
    /// yields the same circuit.
    ///
    /// The generated netlist always validates (acyclic combinational core,
    /// resolved references) and exactly matches the profile's gate,
    /// flip-flop and primary-input counts. The output count matches unless
    /// `outputs > gates`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Netlist {
        self.validate();
        // Signals are node ids in declaration order: primary inputs
        // `I*`, then gates `N*`, then flip-flops `F*`. The flip-flops
        // come last, but gates read them from the start.
        let gate_id = |g: usize| NodeId::from_index(self.inputs + g);
        let ff_id = |ff: usize| NodeId::from_index(self.inputs + self.gates + ff);
        let mut nodes: Vec<(String, Node)> =
            Vec::with_capacity(self.inputs + self.gates + self.dffs);
        nodes.extend((0..self.inputs).map(|i| (format!("I{i}"), Node::Input)));

        // `pool` = signals a gate may read: inputs, flip-flop outputs and
        // already-generated gates. Recency bias creates logic depth. Its
        // first `inputs` entries stay the primary inputs.
        let mut pool: Vec<NodeId> = (0..self.inputs)
            .map(NodeId::from_index)
            .chain((0..self.dffs).map(ff_id))
            .collect();
        // Signals not yet read by anyone — preferred as fan-ins so the
        // circuit stays connected instead of sprouting dangling cones.
        let mut unread: Vec<NodeId> = pool.clone();

        // Backbone: evenly spaced gate positions serve as flip-flop
        // D-drivers. Flip-flops are organized into pipeline *chains* of
        // bounded depth (real ISCAS '89 sequential depth is small even
        // when the register count is large): within a chain, D-driver i
        // is forced to read the previous flip-flop of the chain, and the
        // first stage reads a primary input. This guarantees ≥2-flip-flop
        // I/O paths without creating thousand-stage pipelines.
        let n_chains = if self.dffs >= 2 {
            self.dffs
                .div_ceil(MAX_CHAIN_DEPTH)
                .min(self.dffs / 2)
                .max(1)
        } else {
            1
        };
        let mut d_driver_of: Vec<Option<usize>> = vec![None; self.gates];
        for ff in 0..self.dffs {
            let pos = ((ff + 1) * self.gates) / (self.dffs + 1);
            d_driver_of[pos.min(self.gates - 1)] = Some(ff);
        }

        let mut ff_d: Vec<Option<NodeId>> = vec![None; self.dffs];
        for (g, &d_ff) in d_driver_of.iter().enumerate() {
            let kind = random_kind(rng);
            let fanin_n = if kind.is_unary() {
                1
            } else {
                random_fanin(rng)
            };

            let mut fanin: Vec<NodeId> = Vec::with_capacity(fanin_n);
            if let Some(ff) = d_ff {
                // Forced backbone input: the previous flip-flop of this
                // chain, or a primary input for a chain's first stage.
                // Flip-flop `ff` belongs to chain `ff % n_chains`; its
                // predecessor is `ff - n_chains`.
                let forced = if ff < n_chains {
                    *pool[..self.inputs].choose(rng).expect("inputs nonempty")
                } else {
                    ff_id(ff - n_chains)
                };
                fanin.push(forced);
            }
            while fanin.len() < fanin_n {
                let pick = if !unread.is_empty() && rng.gen_bool(0.35) {
                    let i = rng.gen_range(0..unread.len());
                    unread.swap_remove(i)
                } else if rng.gen_bool(0.5) && pool.len() > 32 {
                    // Recency bias: draw from the newest 32 signals.
                    *pool[pool.len() - 32..].choose(rng).expect("nonempty")
                } else {
                    *pool.choose(rng).expect("nonempty")
                };
                if !fanin.contains(&pick) {
                    fanin.push(pick);
                }
                // Duplicate picks simply retry; pools are nonempty so this
                // terminates (fanin_n ≤ 4 ≤ distinct signals available).
                if fanin.len() < fanin_n && pool.len() < fanin_n + 1 {
                    break; // degenerate tiny pool: accept fewer inputs
                }
            }
            // Arity guard for multi-input kinds in degenerate cases.
            let kind = if fanin.len() == 1 && !kind.is_unary() {
                GateKind::Not
            } else {
                kind
            };
            for f in &fanin {
                unread.retain(|u| u != f);
            }
            let id = gate_id(g);
            if let Some(ff) = d_ff {
                ff_d[ff] = Some(id);
                // The D pin reads this gate, so it is not dangling.
            } else {
                unread.push(id);
            }
            pool.push(id);
            nodes.push((format!("N{g}"), Node::Gate { kind, fanin }));
        }

        for (ff, d) in ff_d.into_iter().enumerate() {
            let d = d.expect("every flip-flop got a backbone driver");
            nodes.push((format!("F{ff}"), Node::Dff { d }));
        }

        // Primary outputs: prefer unread gates (newest first), then fall
        // back to the newest gates overall. The last flip-flop's fan-out
        // cone ends here via the backbone.
        let is_gate = |id: &NodeId| (self.inputs..self.inputs + self.gates).contains(&id.index());
        let mut outputs: Vec<NodeId> = unread.iter().copied().filter(is_gate).rev().collect();
        for g in (0..self.gates).rev() {
            if !outputs.contains(&gate_id(g)) {
                outputs.push(gate_id(g));
            }
            if outputs.len() >= self.outputs {
                break;
            }
        }
        outputs.truncate(self.outputs);

        Netlist::from_nodes(self.name, nodes, outputs)
            .expect("generated circuit is structurally valid")
    }
}

/// Gate-kind distribution approximating synthesized ISCAS '89 netlists:
/// NAND/NOR-heavy with a tail of XOR/XNOR and inverters.
fn random_kind<R: Rng + ?Sized>(rng: &mut R) -> GateKind {
    let roll = rng.gen_range(0..100);
    match roll {
        0..=27 => GateKind::Nand,
        28..=45 => GateKind::Nor,
        46..=57 => GateKind::And,
        58..=69 => GateKind::Or,
        70..=84 => GateKind::Not,
        85..=91 => GateKind::Xor,
        92..=95 => GateKind::Xnor,
        _ => GateKind::Buf,
    }
}

/// Fan-in distribution: mostly 2, some 3, few 4 — matching standard-cell
/// mapped netlists.
fn random_fanin<R: Rng + ?Sized>(rng: &mut R) -> usize {
    let roll = rng.gen_range(0..100);
    match roll {
        0..=69 => 2,
        70..=89 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sttlock_netlist::paths::{sample_io_paths, PathSamplerConfig};

    #[test]
    fn profile_counts_are_exact() {
        let p = Profile::custom("t", 120, 7, 6, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let n = p.generate(&mut rng);
        assert_eq!(n.gate_count(), 120);
        assert_eq!(n.dff_count(), 7);
        assert_eq!(n.inputs().len(), 6);
        assert_eq!(n.outputs().len(), 5);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = Profile::custom("t", 80, 4, 4, 3);
        let a = p.generate(&mut StdRng::seed_from_u64(7));
        let b = p.generate(&mut StdRng::seed_from_u64(7));
        let c = p.generate(&mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn backbone_guarantees_deep_io_paths() {
        let p = Profile::custom("t", 150, 6, 5, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let n = p.generate(&mut rng);
        let cfg = PathSamplerConfig {
            sample_fraction: 0.25,
            min_samples: 16,
            min_ffs: 2,
            attempts_per_seed: 6,
        };
        let paths = sample_io_paths(&n, &cfg, &mut rng);
        assert!(
            !paths.is_empty(),
            "a backboned circuit must expose >=2-FF I/O paths"
        );
        assert!(paths[0].ff_count >= 2);
    }

    #[test]
    fn tiny_profiles_still_generate() {
        let p = Profile::custom("t", 10, 2, 2, 2);
        let n = p.generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(n.gate_count(), 10);
        assert!(n.check_acyclic().is_ok());
    }

    #[test]
    #[should_panic(expected = "too few gates")]
    fn rejects_impossible_profiles() {
        let _ = Profile::custom("t", 2, 5, 1, 1);
    }

    #[test]
    fn most_gates_reach_an_output_or_state() {
        use sttlock_netlist::CircuitView;
        let p = Profile::custom("t", 200, 8, 6, 10);
        let n = p.generate(&mut StdRng::seed_from_u64(5));
        let view = CircuitView::new(&n);
        let fo = view.fanout();
        let outputs = view.output_set();
        let dangling = n
            .iter()
            .filter(|(id, node)| {
                node.is_combinational() && fo.readers(*id).is_empty() && !outputs.contains(*id)
            })
            .count();
        // The unread-first fan-in policy keeps dangling cones rare.
        assert!(
            (dangling as f64) < 0.05 * n.gate_count() as f64,
            "{dangling} dangling gates"
        );
    }
}
