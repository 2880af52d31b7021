//! LUT hardening against machine-learning attacks (Section IV-A.3).
//!
//! The paper proposes two measures that blow up the per-LUT hypothesis
//! space beyond the "one simple gate" assumption an ML/decamouflaging
//! attacker would like to make:
//!
//! * **Decoy inputs** — an under-filled LUT gains extra inputs wired to
//!   arbitrary circuit signals; the programmed table simply ignores
//!   them, but the attacker cannot know which inputs are live.
//! * **Function absorption** — a LUT swallows a single-fan-out driving
//!   gate, implementing a complex function such as `(A·(B⊕C))+D`
//!   instead of one standard cell.
//!
//! Both transforms preserve the design's function exactly (the hybrid
//! netlist keeps simulating identically) while multiplying the candidate
//! count `P` the attacks of Equations 2–3 must consider.

use std::error::Error;
use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use sttlock_netlist::view::Fanout;
use sttlock_netlist::{CircuitView, Netlist, Node, NodeId, TruthTable};

/// Why the hardening pass refused to run.
///
/// These used to be `assert!` process aborts; batch drivers need them
/// as recordable failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HardenError {
    /// `max_fanin` exceeds the 6-input LUT limit of the technology.
    FaninTooWide {
        /// The requested maximum fan-in.
        requested: usize,
    },
    /// The netlist contains a redacted LUT — hardening needs the
    /// programmed view (harden first, then [`Netlist::redact`]).
    RedactedLut {
        /// Name of the first unprogrammed LUT found.
        name: String,
    },
}

impl fmt::Display for HardenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardenError::FaninTooWide { requested } => {
                write!(f, "LUTs support at most 6 inputs (requested {requested})")
            }
            HardenError::RedactedLut { name } => write!(
                f,
                "harden requires the programmed view; LUT `{name}` is redacted"
            ),
        }
    }
}

impl Error for HardenError {}

/// Hardening tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardenConfig {
    /// Probability of adding a decoy input to each LUT with spare width.
    pub decoy_probability: f64,
    /// Whether to absorb single-fan-out driving gates into LUTs.
    pub absorb: bool,
    /// Maximum LUT fan-in after hardening (≤ 6).
    pub max_fanin: usize,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            decoy_probability: 0.5,
            absorb: true,
            max_fanin: 4,
        }
    }
}

/// What the hardening pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardenReport {
    /// Decoy inputs wired in.
    pub decoys_added: usize,
    /// Gates absorbed into downstream LUTs.
    pub gates_absorbed: usize,
    /// STT cells (truth-table rows) after hardening — the device's fault
    /// surface. Every decoy input doubles the victim LUT's share, so
    /// hardening trades fault exposure for obscurity; fault campaigns
    /// read this to normalize recovery rates.
    pub fault_surface_rows: usize,
}

/// STT cells at risk in a hybrid: the total truth-table rows across
/// programmed LUTs (one non-volatile cell per row). This is the universe
/// the per-row probabilities of a fault model apply to.
pub fn fault_surface(netlist: &Netlist) -> usize {
    netlist
        .iter()
        .filter_map(|(id, _)| netlist.lut_config(id))
        .map(|t| t.rows())
        .sum()
}

/// Hardens every programmed LUT of a hybrid netlist in place.
///
/// The pass is function-preserving: the absorbed gates keep driving
/// their nets (they become structural decoys when the LUT was their only
/// reader), and decoy inputs are ignored by the extended truth tables.
///
/// # Errors
///
/// Returns [`HardenError::FaninTooWide`] for a `max_fanin` above 6 and
/// [`HardenError::RedactedLut`] when the netlist is not the programmed
/// view — harden first, then [`redact`](Netlist::redact). (Both were
/// `assert!` aborts before the campaign engine needed recorded
/// failures.) Errors are detected before any mutation, so on `Err` the
/// netlist is unchanged.
pub fn harden<R: Rng + ?Sized>(
    netlist: &mut Netlist,
    cfg: &HardenConfig,
    rng: &mut R,
) -> Result<HardenReport, HardenError> {
    if cfg.max_fanin > 6 {
        return Err(HardenError::FaninTooWide {
            requested: cfg.max_fanin,
        });
    }
    let mut report = HardenReport::default();
    let luts: Vec<NodeId> = netlist
        .iter()
        .filter(|(_, n)| n.is_lut())
        .map(|(id, _)| id)
        .collect();
    for &id in &luts {
        if netlist.lut_config(id).is_none() {
            return Err(HardenError::RedactedLut {
                name: netlist.node_name(id).to_owned(),
            });
        }
    }

    if cfg.absorb {
        // Snapshot the fanout before the absorb loop mutates wiring
        // (matching the pass's historical stale-fanout semantics: a
        // gate absorbed into one LUT is not re-counted for the next).
        let fanout = CircuitView::new(netlist).fanout_arc();
        for &lut in &luts {
            if try_absorb(netlist, &fanout, lut, cfg.max_fanin) {
                report.gates_absorbed += 1;
            }
        }
    }

    let all_signals: Vec<NodeId> = netlist
        .iter()
        .filter(|(_, n)| !matches!(n, Node::Const(_)))
        .map(|(id, _)| id)
        .collect();
    for &lut in &luts {
        let width = netlist.node(lut).fanin().len();
        if width >= cfg.max_fanin || !rng.gen_bool(cfg.decoy_probability) {
            continue;
        }
        if try_add_decoy(netlist, lut, &all_signals, rng) {
            report.decoys_added += 1;
        }
    }
    report.fault_surface_rows = fault_surface(netlist);
    Ok(report)
}

/// Absorbs one single-fan-out driving gate into the LUT, if any fits.
fn try_absorb(netlist: &mut Netlist, fanout: &Fanout, lut: NodeId, max_fanin: usize) -> bool {
    let lut_fanin = netlist.node(lut).fanin().to_vec();
    let table = netlist.lut_config(lut).expect("programmed");
    for (pin, &driver) in lut_fanin.iter().enumerate() {
        let Node::Gate { kind, fanin: g_in } = netlist.node(driver) else {
            continue;
        };
        if fanout.readers(driver).len() != 1 {
            continue; // other readers still need the gate's output
        }
        let g_kind = *kind;
        let g_in = g_in.clone();
        // Merged inputs: LUT inputs with `pin` replaced by the gate's
        // inputs (deduplicated, order: remaining LUT pins then gate pins).
        let mut merged: Vec<NodeId> = Vec::new();
        for (i, &f) in lut_fanin.iter().enumerate() {
            if i != pin && !merged.contains(&f) {
                merged.push(f);
            }
        }
        for &h in &g_in {
            if !merged.contains(&h) {
                merged.push(h);
            }
        }
        if merged.len() > max_fanin || merged.is_empty() {
            continue;
        }
        // Build the composite table by evaluating gate-into-LUT for every
        // assignment of the merged inputs.
        let g_table = TruthTable::from_gate(g_kind, g_in.len());
        let rows = 1usize << merged.len();
        let mut bits = 0u64;
        for row in 0..rows {
            let value_of = |sig: NodeId| -> bool {
                let idx = merged.iter().position(|&m| m == sig).expect("merged input");
                (row >> idx) & 1 == 1
            };
            let mut g_row = 0usize;
            for (i, &h) in g_in.iter().enumerate() {
                if value_of(h) {
                    g_row |= 1 << i;
                }
            }
            let g_out = g_table.eval(g_row);
            let mut l_row = 0usize;
            for (i, &f) in lut_fanin.iter().enumerate() {
                let v = if i == pin { g_out } else { value_of(f) };
                if v {
                    l_row |= 1 << i;
                }
            }
            if table.eval(l_row) {
                bits |= 1 << row;
            }
        }
        let new_table = TruthTable::new(merged.len(), bits);
        if netlist.rewire_lut(lut, merged, Some(new_table)).is_ok() {
            return true;
        }
    }
    false
}

/// Wires one decoy input into the LUT, extending the table to ignore it.
fn try_add_decoy<R: Rng + ?Sized>(
    netlist: &mut Netlist,
    lut: NodeId,
    signals: &[NodeId],
    rng: &mut R,
) -> bool {
    let fanin = netlist.node(lut).fanin().to_vec();
    let table = netlist.lut_config(lut).expect("programmed");
    for _ in 0..8 {
        let &candidate = signals.choose(rng).expect("nonempty netlist");
        if candidate == lut || fanin.contains(&candidate) {
            continue;
        }
        // Reject signals downstream of the LUT (combinational cycle);
        // `rewire_lut` re-checks and rolls back, so a cheap pre-filter
        // plus the rollback is enough. A view made per query reads the
        // fan-out map the last accepted rewire kept, so earlier decoys
        // in this loop are seen.
        if CircuitView::new(netlist).comb_reachable(lut, candidate) {
            continue;
        }
        let mut new_fanin = fanin.clone();
        new_fanin.push(candidate);
        // Duplicate the table: output independent of the new top input.
        let old_rows = table.rows();
        let bits = table.bits() | (table.bits() << old_rows);
        let new_table = TruthTable::new(new_fanin.len(), bits);
        if netlist.rewire_lut(lut, new_fanin, Some(new_table)).is_ok() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sttlock_netlist::{GateKind, NetlistBuilder};
    use sttlock_sim::Simulator;

    /// d AND (a XOR c) → LUT on the outer AND; the XOR has a single
    /// fan-out, so absorption turns the LUT into the paper's example
    /// shape `A·(B⊕C)`.
    fn absorbable() -> Netlist {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.input("d");
        b.gate("x", GateKind::Xor, &["a", "c"]);
        b.gate("y", GateKind::And, &["x", "d"]);
        b.output("y");
        let mut n = b.finish().unwrap();
        let y = n.find("y").unwrap();
        n.replace_gate_with_lut(y).unwrap();
        n
    }

    fn equivalent(a: &Netlist, b: &Netlist, inputs: usize, seed: u64) -> bool {
        let mut sa = Simulator::new(a).unwrap();
        let mut sb = Simulator::new(b).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..64).all(|_| {
            let pat: Vec<u64> = (0..inputs).map(|_| rng.gen()).collect();
            sa.step(&pat).unwrap() == sb.step(&pat).unwrap()
        })
    }

    #[test]
    fn decoys_inflate_the_reported_fault_surface() {
        let n = absorbable();
        let before = fault_surface(&n);
        assert_eq!(before, 4); // one 2-input LUT
        let mut hardened = n.clone();
        let cfg = HardenConfig {
            decoy_probability: 1.0,
            absorb: true,
            max_fanin: 6,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = harden(&mut hardened, &cfg, &mut rng).unwrap();
        assert_eq!(report.fault_surface_rows, fault_surface(&hardened));
        if report.decoys_added + report.gates_absorbed > 0 {
            assert!(report.fault_surface_rows > before);
        }
    }

    #[test]
    fn absorption_preserves_function_and_widens_lut() {
        let n = absorbable();
        let mut hardened = n.clone();
        let cfg = HardenConfig {
            decoy_probability: 0.0,
            absorb: true,
            max_fanin: 4,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let report = harden(&mut hardened, &cfg, &mut rng).unwrap();
        assert_eq!(report.gates_absorbed, 1);
        let y = hardened.find("y").unwrap();
        assert_eq!(hardened.node(y).fanin().len(), 3, "A·(B⊕C) takes 3 inputs");
        assert!(equivalent(&n, &hardened, 3, 2));
    }

    #[test]
    fn decoys_preserve_function() {
        let n = absorbable();
        let mut hardened = n.clone();
        let cfg = HardenConfig {
            decoy_probability: 1.0,
            absorb: false,
            max_fanin: 4,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = harden(&mut hardened, &cfg, &mut rng).unwrap();
        assert!(report.decoys_added >= 1);
        let y = hardened.find("y").unwrap();
        assert!(hardened.node(y).fanin().len() > 2);
        assert!(equivalent(&n, &hardened, 3, 4));
    }

    #[test]
    fn hardening_respects_max_fanin() {
        let mut n = absorbable();
        let cfg = HardenConfig {
            decoy_probability: 1.0,
            absorb: true,
            max_fanin: 4,
        };
        let mut rng = StdRng::seed_from_u64(5);
        harden(&mut n, &cfg, &mut rng).unwrap();
        for (_, node) in n.iter() {
            if node.is_lut() {
                assert!(node.fanin().len() <= 4);
            }
        }
    }

    #[test]
    fn gate_with_multiple_readers_is_not_absorbed() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("x", GateKind::Xor, &["a", "c"]);
        b.gate("y", GateKind::And, &["x", "a"]);
        b.gate("z", GateKind::Or, &["x", "c"]); // second reader of x
        b.output("y");
        b.output("z");
        let mut n = b.finish().unwrap();
        let y = n.find("y").unwrap();
        n.replace_gate_with_lut(y).unwrap();
        let cfg = HardenConfig {
            decoy_probability: 0.0,
            absorb: true,
            max_fanin: 4,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let report = harden(&mut n, &cfg, &mut rng).unwrap();
        assert_eq!(report.gates_absorbed, 0);
    }

    #[test]
    fn refuses_redacted_luts_with_an_error() {
        let n = absorbable();
        let (mut stripped, _) = n.redact();
        let before = stripped.clone();
        let mut rng = StdRng::seed_from_u64(7);
        let err = harden(&mut stripped, &HardenConfig::default(), &mut rng).unwrap_err();
        assert!(matches!(err, HardenError::RedactedLut { .. }), "{err}");
        assert_eq!(stripped, before, "failed harden must not mutate");
    }

    #[test]
    fn refuses_oversized_fanin_with_an_error() {
        let mut n = absorbable();
        let cfg = HardenConfig {
            max_fanin: 7,
            ..HardenConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let err = harden(&mut n, &cfg, &mut rng).unwrap_err();
        assert_eq!(err, HardenError::FaninTooWide { requested: 7 });
    }
}
