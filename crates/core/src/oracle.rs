//! Timing oracles for the parametric-aware selection.
//!
//! Algorithm 2 asks one question over and over: *"if this draw of gates
//! became LUTs, would the clock period still fit the budget?"*
//! [`TimingOracle`] abstracts how that question is answered so the
//! selection logic is written once:
//!
//! * [`FullSta`] clones the netlist and runs a complete
//!   [`analyze`] per query — the original
//!   (pre-incremental) behavior, kept as the reference implementation
//!   for differential tests and the benchmarks.
//! * [`IncrementalSta`] answers from its cached arrival state, touching
//!   only the fanout cone of the swapped gate.
//!
//! Both produce **bit-identical** clock periods (the incremental engine
//! evaluates the same max-fold expression on the same operand sets), so
//! a fixed seed yields byte-identical selections whichever oracle runs.

use sttlock_netlist::{Netlist, NodeId};
use sttlock_sta::{analyze, IncrementalSta};
use sttlock_techlib::Library;

/// How the parametric selection probes hypothetical LUT swaps.
///
/// Implementations track a *current hypothesis* — the set of gates
/// swapped so far. [`swap_to_lut`](TimingOracle::swap_to_lut) and
/// [`revert_to_gate`](TimingOracle::revert_to_gate) edit that set;
/// [`clock_period_ns`](TimingOracle::clock_period_ns) evaluates it.
pub trait TimingOracle {
    /// Adds `id` (a CMOS standard cell in the original netlist) to the
    /// current swap hypothesis.
    fn swap_to_lut(&mut self, id: NodeId);

    /// Removes `id` from the hypothesis; it times as its original gate
    /// kind again.
    fn revert_to_gate(&mut self, id: NodeId);

    /// Minimum feasible clock period of the current hypothesis, ns.
    fn clock_period_ns(&mut self) -> f64;
}

/// Reference oracle: a scratch netlist mutated in place and re-analyzed
/// from scratch on every question.
#[derive(Debug, Clone)]
pub struct FullSta<'a> {
    original: &'a Netlist,
    lib: &'a Library,
    scratch: Netlist,
}

impl<'a> FullSta<'a> {
    /// A full-pass oracle over `netlist` with no gates swapped yet.
    pub fn new(netlist: &'a Netlist, lib: &'a Library) -> Self {
        FullSta {
            original: netlist,
            lib,
            scratch: netlist.clone(),
        }
    }
}

impl TimingOracle for FullSta<'_> {
    fn swap_to_lut(&mut self, id: NodeId) {
        self.scratch
            .replace_gate_with_lut(id)
            .expect("swap candidates are narrow standard cells");
    }

    fn revert_to_gate(&mut self, id: NodeId) {
        let kind = self
            .original
            .node(id)
            .gate_kind()
            .expect("swap candidates are standard cells");
        self.scratch.restore_lut_to_gate(id, kind);
    }

    fn clock_period_ns(&mut self) -> f64 {
        analyze(&self.scratch, self.lib).clock_period_ns()
    }
}

impl TimingOracle for IncrementalSta<'_> {
    fn swap_to_lut(&mut self, id: NodeId) {
        IncrementalSta::swap_to_lut(self, id);
    }

    fn revert_to_gate(&mut self, id: NodeId) {
        let kind = self
            .netlist()
            .node(id)
            .gate_kind()
            .expect("swap candidates are standard cells");
        self.restore_gate(id, kind);
    }

    fn clock_period_ns(&mut self) -> f64 {
        IncrementalSta::clock_period_ns(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sttlock_benchgen::Profile;
    use sttlock_netlist::CircuitView;

    #[test]
    fn oracles_agree_bit_for_bit() {
        let n = Profile::custom("oracle", 180, 8, 8, 5).generate(&mut StdRng::seed_from_u64(2));
        let lib = Library::predictive_90nm();
        let base = analyze(&n, &lib);
        let mut full = FullSta::new(&n, &lib);
        let mut inc = IncrementalSta::from_analysis_with(&CircuitView::new(&n), &lib, &base);

        let gates: Vec<NodeId> = n
            .iter()
            .filter(|(_, node)| node.gate_kind().is_some() && node.fanin().len() <= 6)
            .map(|(id, _)| id)
            .take(24)
            .collect();
        // Interleave persistent swaps with single-swap probes.
        for (i, &id) in gates.iter().enumerate() {
            if i % 3 == 0 {
                TimingOracle::swap_to_lut(&mut full, id);
                TimingOracle::swap_to_lut(&mut inc, id);
            }
            assert_eq!(
                TimingOracle::clock_period_ns(&mut full).to_bits(),
                TimingOracle::clock_period_ns(&mut inc).to_bits()
            );
        }
        // Single-swap probes (swap, measure, revert) on top of them.
        for (_, &id) in gates.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
            TimingOracle::swap_to_lut(&mut full, id);
            TimingOracle::swap_to_lut(&mut inc, id);
            assert_eq!(
                TimingOracle::clock_period_ns(&mut full).to_bits(),
                TimingOracle::clock_period_ns(&mut inc).to_bits()
            );
            TimingOracle::revert_to_gate(&mut full, id);
            TimingOracle::revert_to_gate(&mut inc, id);
        }
    }
}
