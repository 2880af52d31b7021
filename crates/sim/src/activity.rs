//! Dynamic switching-activity estimation.
//!
//! The paper's power numbers are parameterized by the output switching
//! activity α (Figure 1 quotes α = 10 % and 30 %). This module measures α
//! per net by simulating random primary-input streams and counting output
//! toggles, using all 64 lanes of the bit-parallel simulator as
//! independent sample streams.

use rand::Rng;

use sttlock_netlist::{CircuitView, Netlist, NodeId};

use crate::error::SimError;
use crate::Simulator;

/// Per-net switching activity measured by simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityReport {
    /// Toggle probability per cycle, one entry per node (indexed by
    /// [`NodeId::index`]).
    pub alpha: Vec<f64>,
    /// Number of simulated cycles (after the warm-up cycle).
    pub cycles: usize,
}

impl ActivityReport {
    /// Activity of one net.
    pub fn of(&self, id: NodeId) -> f64 {
        self.alpha[id.index()]
    }

    /// Mean activity over the given nodes (0 if empty).
    pub fn mean_over(&self, ids: &[NodeId]) -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        ids.iter().map(|&id| self.of(id)).sum::<f64>() / ids.len() as f64
    }
}

/// Estimates per-net switching activity over `cycles` cycles of uniform
/// random primary-input patterns.
///
/// Primary inputs therefore show α ≈ 0.5; internal nets show the
/// structural attenuation real logic exhibits.
///
/// # Errors
///
/// Returns [`SimError::UnprogrammedLut`] for redacted netlists — measure
/// activity on the programmed view.
pub fn estimate_activity<R: Rng + ?Sized>(
    netlist: &Netlist,
    cycles: usize,
    rng: &mut R,
) -> Result<ActivityReport, SimError> {
    estimate_activity_with(&CircuitView::new(netlist), cycles, rng)
}

/// [`estimate_activity`] over a shared [`CircuitView`], running the
/// tape compiled (once) in the view.
pub fn estimate_activity_with<R: Rng + ?Sized>(
    view: &CircuitView<'_>,
    cycles: usize,
    rng: &mut R,
) -> Result<ActivityReport, SimError> {
    assert!(cycles > 0, "need at least one cycle");
    let netlist = view.netlist();
    let mut sim = Simulator::with_view(view)?;
    let mut toggles = vec![0u64; netlist.len()];
    let mut inputs = vec![0u64; netlist.inputs().len()];

    // Warm-up cycle establishes the baseline values.
    for w in inputs.iter_mut() {
        *w = rng.gen();
    }
    sim.eval_comb(&inputs)?;
    sim.clock();
    let mut prev: Vec<u64> = sim.values().to_vec();

    for _ in 0..cycles {
        for w in inputs.iter_mut() {
            *w = rng.gen();
        }
        sim.eval_comb(&inputs)?;
        sim.clock();
        for ((t, p), &cur) in toggles.iter_mut().zip(prev.iter_mut()).zip(sim.values()) {
            *t += u64::from((cur ^ *p).count_ones());
            *p = cur;
        }
    }

    let samples = (cycles as f64) * 64.0;
    let alpha = toggles.iter().map(|&t| t as f64 / samples).collect();
    Ok(ActivityReport { alpha, cycles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sttlock_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn random_inputs_toggle_at_half() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("g", GateKind::And, &["a", "c"]);
        b.output("g");
        let n = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rep = estimate_activity(&n, 200, &mut rng).unwrap();
        let a = rep.of(n.find("a").unwrap());
        assert!((a - 0.5).abs() < 0.05, "input activity {a}");
        // AND of two random inputs toggles less: P(out) = 0.25, so the
        // toggle rate is 2·0.25·0.75 = 0.375.
        let g = rep.of(n.find("g").unwrap());
        assert!((g - 0.375).abs() < 0.05, "AND activity {g}");
    }

    #[test]
    fn constant_nets_never_toggle() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.constant("one", true);
        b.gate("g", GateKind::Or, &["a", "one"]); // always 1
        b.output("g");
        let n = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let rep = estimate_activity(&n, 100, &mut rng).unwrap();
        assert_eq!(rep.of(n.find("g").unwrap()), 0.0);
        assert_eq!(rep.of(n.find("one").unwrap()), 0.0);
    }

    #[test]
    fn toggle_flop_has_full_activity() {
        let mut b = NetlistBuilder::new("m");
        b.input("en");
        b.gate("next", GateKind::Xnor, &["en", "state"]);
        b.dff("state", "next");
        b.output("state");
        let n = b.finish().unwrap();
        // en held... random, but XNOR(en, state) toggles state whenever
        // en=0; with random en the state toggle rate is 0.5-ish. Just
        // check it is substantial and bounded.
        let mut rng = StdRng::seed_from_u64(3);
        let rep = estimate_activity(&n, 300, &mut rng).unwrap();
        let s = rep.of(n.find("state").unwrap());
        assert!(s > 0.3 && s < 0.7, "state activity {s}");
    }

    #[test]
    fn mean_over_averages() {
        let rep = ActivityReport {
            alpha: vec![0.2, 0.4],
            cycles: 1,
        };
        let ids = [NodeId::from_index(0), NodeId::from_index(1)];
        assert!((rep.mean_over(&ids) - 0.3).abs() < 1e-12);
        assert_eq!(rep.mean_over(&[]), 0.0);
    }
}
