//! The camouflaged-cell baseline the paper compares against.
//!
//! Section IV-A.3 argues that an STT-based LUT beats IC camouflaging
//! (Rajendran et al., CCS '13 — the paper's \[12\]) because "the possible
//! candidates per STT-based LUT is not limited to a small number of
//! gates": a camouflaged cell hides one of ~3 functions, a k-input LUT
//! hides one of 2^2^k.
//!
//! This module makes that comparison executable. A camouflage *policy*
//! restricts a redacted LUT's key space to a small candidate family in
//! the SAT encoding, modeling a camouflaged standard cell; the SAT
//! attack can then be run against a camouflaged design and a
//! LUT-obfuscated design of identical structure, and the DIP/conflict
//! counts compared (see the `ablation` harness and the attack-defense
//! integration tests).

use std::collections::HashMap;

use sttlock_netlist::{meaningful_gates, GateKind, Netlist, NodeId, TruthTable};
use sttlock_sat::encode::Encoding;
use sttlock_sat::{Lit, Solver};

/// The candidate family of the CCS'13-style camouflaged cell: each
/// camouflaged gate is one of NAND, NOR, XNOR at its fan-in.
pub fn ccs13_candidates(fanin: usize) -> Vec<TruthTable> {
    [GateKind::Nand, GateKind::Nor, GateKind::Xnor]
        .into_iter()
        .map(|k| TruthTable::from_gate(k, fanin))
        .collect()
}

/// The full meaningful-gate family (6 candidates) — an intermediate
/// point between camouflaging and the unrestricted LUT.
pub fn meaningful_candidates(fanin: usize) -> Vec<TruthTable> {
    meaningful_gates(fanin)
}

/// Restricts the key variables of the redacted LUT `id` in `enc` to the
/// given candidate tables: adds a selector per candidate, forces the key
/// bits to match the selected table, and requires at least one selector.
///
/// Applying this to every redacted LUT of an encoding turns the
/// LUT-obfuscation instance into a camouflaging instance of the same
/// structure — candidate count per gate becomes the paper's `P`.
///
/// # Panics
///
/// Panics if `id` has no key variables in `enc` (it is not a redacted
/// LUT of that encoding) or if a candidate's width mismatches.
pub fn restrict_keys(solver: &mut Solver, enc: &Encoding, id: NodeId, candidates: &[TruthTable]) {
    let key = enc
        .keys
        .get(&id)
        .unwrap_or_else(|| panic!("node {id} has no key variables"));
    assert!(!candidates.is_empty(), "need at least one candidate");
    let mut selectors = Vec::with_capacity(candidates.len());
    for table in candidates {
        assert_eq!(
            table.rows(),
            key.len(),
            "candidate width must match the LUT fan-in"
        );
        let s = solver.new_var();
        for (row, &k) in key.iter().enumerate() {
            // s → (k == table[row])
            solver.add_clause(&[Lit::neg(s), Lit::new(k, !table.eval(row))]);
        }
        selectors.push(Lit::pos(s));
    }
    solver.add_clause(&selectors);
}

/// Applies [`restrict_keys`] to every redacted LUT of an encoding using
/// a per-node candidate map; nodes missing from the map keep the full
/// LUT key space.
pub fn restrict_all(
    solver: &mut Solver,
    enc: &Encoding,
    candidates: &HashMap<NodeId, Vec<TruthTable>>,
) {
    for &id in enc.keys.keys() {
        if let Some(c) = candidates.get(&id) {
            restrict_keys(solver, enc, id, c);
        }
    }
}

/// Log₁₀ of the hypothesis-space size for a redacted netlist under a
/// camouflage policy (`candidates_per_gate(fanin)` candidates per gate)
/// versus the unrestricted LUT key space — the analytic version of the
/// paper's "significantly large search space" argument.
pub fn search_space_log10(
    netlist: &Netlist,
    candidates_per_gate: impl Fn(usize) -> f64,
) -> (f64, f64) {
    let mut camo = 0.0f64;
    let mut lut = 0.0f64;
    for (_, node) in netlist.iter() {
        if let sttlock_netlist::Node::Lut {
            fanin,
            config: None,
        } = node
        {
            camo += candidates_per_gate(fanin.len()).log10();
            // A k-input LUT hides 2^(2^k) functions: log10 = 2^k·log10 2.
            lut += (1usize << fanin.len()) as f64 * 2f64.log10();
        }
    }
    (camo, lut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_netlist::NetlistBuilder;
    use sttlock_sat::encode::encode;
    use sttlock_sat::SatResult;

    fn redacted_single_lut() -> (Netlist, NodeId) {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("g", GateKind::Nand, &["a", "c"]);
        b.output("g");
        let mut n = b.finish().unwrap();
        let g = n.find("g").unwrap();
        n.replace_gate_with_lut(g).unwrap();
        let (stripped, _) = n.redact();
        (stripped, g)
    }

    #[test]
    fn ccs13_family_has_three_members() {
        let fam = ccs13_candidates(2);
        assert_eq!(fam.len(), 3);
        assert!(fam.contains(&TruthTable::from_gate(GateKind::Nand, 2)));
    }

    #[test]
    fn restriction_admits_only_candidates() {
        let (n, g) = redacted_single_lut();
        let mut solver = Solver::new();
        let enc = encode(&n, &mut solver);
        restrict_keys(&mut solver, &enc, g, &ccs13_candidates(2));

        let key = enc.keys[&g].clone();
        // NAND (a candidate) is admissible…
        let nand = TruthTable::from_gate(GateKind::Nand, 2);
        let asg: Vec<Lit> = key
            .iter()
            .enumerate()
            .map(|(r, &k)| Lit::new(k, !nand.eval(r)))
            .collect();
        assert_eq!(solver.solve_with(&asg), SatResult::Sat);
        // …AND (not a candidate) is not.
        let and = TruthTable::from_gate(GateKind::And, 2);
        let asg: Vec<Lit> = key
            .iter()
            .enumerate()
            .map(|(r, &k)| Lit::new(k, !and.eval(r)))
            .collect();
        assert_eq!(solver.solve_with(&asg), SatResult::Unsat);
    }

    #[test]
    fn search_space_matches_the_papers_argument() {
        let (n, _) = redacted_single_lut();
        let (camo, lut) = search_space_log10(&n, |_| 3.0);
        // One 2-input gate: 3 camouflage candidates vs 16 LUT functions.
        assert!((camo - 3f64.log10()).abs() < 1e-12);
        assert!((lut - 16f64.log10()).abs() < 1e-12);
        assert!(lut > camo);
    }

    #[test]
    fn restrict_all_skips_unlisted_nodes() {
        let (n, g) = redacted_single_lut();
        let mut solver = Solver::new();
        let enc = encode(&n, &mut solver);
        restrict_all(&mut solver, &enc, &HashMap::new());
        // No restriction: AND is still admissible.
        let and = TruthTable::from_gate(GateKind::And, 2);
        let key = enc.keys[&g].clone();
        let asg: Vec<Lit> = key
            .iter()
            .enumerate()
            .map(|(r, &k)| Lit::new(k, !and.eval(r)))
            .collect();
        assert_eq!(solver.solve_with(&asg), SatResult::Sat);
    }
}
