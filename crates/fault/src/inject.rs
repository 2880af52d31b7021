//! Applying a [`FaultModel`] to a programmed hybrid — and to every
//! subsequent re-program attempt.
//!
//! Injection goes through a [`HybridOverlay`]: a corrupted LUT is a
//! sparse edit over the shared base, and a stuck CMOS gate becomes a
//! constant LUT over the same wiring, so the base netlist is never
//! cloned and all of the base's graph facts stay valid for the faulted
//! variant.
//!
//! Determinism: every node draws from its own FNV-seeded stream (one
//! per fault mechanism), so the set of injected faults depends only on
//! `(model, seed)` — not on iteration order, thread scheduling or how
//! many other nodes exist. Stuck cells are a pure function of
//! `(seed, node)` and therefore persist across re-programming, which is
//! exactly what makes them unrepairable.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_exec::{fnv1a, FNV_OFFSET_BASIS};
use sttlock_netlist::{HybridOverlay, Node, NodeId, TruthTable, MAX_LUT_INPUTS};

use crate::model::{FaultKind, FaultModel, InjectedFault};

/// How a bitstream row reaches the device.
///
/// The repair loop writes through this abstraction so tests can use the
/// ideal [`PerfectChannel`] while campaigns write through the same
/// [`FaultInjector`] that corrupted the part in the first place.
pub trait ProgrammingChannel {
    /// Attempts to write `intended` into the LUT at `id`; returns the
    /// table that actually landed in the cells.
    fn write(&mut self, id: NodeId, intended: TruthTable) -> TruthTable;
}

/// The ideal channel: every write lands exactly as intended.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectChannel;

impl ProgrammingChannel for PerfectChannel {
    fn write(&mut self, _id: NodeId, intended: TruthTable) -> TruthTable {
        intended
    }
}

/// Salts separating the per-node random streams by fault mechanism.
const SALT_STUCK0: u64 = 1;
const SALT_STUCK1: u64 = 2;
const SALT_RETENTION: u64 = 3;
const SALT_CMOS: u64 = 4;
const SALT_WRITE: u64 = 0x100;

/// Deterministic fault source for one hybrid part.
///
/// One injector models one physical device: [`corrupt`] applies the
/// initial programming + storage faults, and the
/// [`ProgrammingChannel`] impl models every later re-program attempt
/// against the same (persistently stuck) cells.
///
/// [`corrupt`]: FaultInjector::corrupt
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    seed: u64,
    /// Write attempts per LUT so far — each attempt re-rolls the
    /// write-failure dice from a fresh per-(node, attempt) stream.
    writes: BTreeMap<NodeId, u64>,
}

impl FaultInjector {
    /// An injector for `model`, deterministic in `seed`.
    ///
    /// Probabilities are clamped into `[0, 1]` — a sweep that overshoots
    /// degrades to certainty instead of panicking.
    pub fn new(model: FaultModel, seed: u64) -> Self {
        let clamp = |p: f64| p.clamp(0.0, 1.0);
        FaultInjector {
            model: FaultModel {
                write_failure_p: clamp(model.write_failure_p),
                retention_flip_p: clamp(model.retention_flip_p),
                stuck_at_zero_p: clamp(model.stuck_at_zero_p),
                stuck_at_one_p: clamp(model.stuck_at_one_p),
                cmos_stuck_p: clamp(model.cmos_stuck_p),
            },
            seed,
            writes: BTreeMap::new(),
        }
    }

    /// The (clamped) model in force.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Corrupts a programmed hybrid in place, through the overlay.
    ///
    /// Every programmed LUT takes one modelled write (write failures)
    /// plus retention flips and permanently stuck rows; every CMOS gate
    /// may come out stuck at a constant (expressed as a constant LUT
    /// over the unchanged fan-in, so the overlay's wiring-preserving
    /// contract holds). Redacted LUTs are left alone — there is nothing
    /// programmed to corrupt.
    ///
    /// Returns the injected faults in arena order.
    pub fn corrupt(&mut self, hybrid: &mut HybridOverlay) -> Vec<InjectedFault> {
        let base = std::sync::Arc::clone(hybrid.base());
        let mut faults = Vec::new();
        for (id, _) in base.iter() {
            // Read each node through the overlay, not the base: a
            // flow-produced hybrid carries its programmed LUTs as
            // overlay edits over a pure-CMOS base, and those are
            // exactly the cells a fault model must corrupt.
            let node = hybrid.node(id).clone();
            match node {
                Node::Lut {
                    config: Some(intended),
                    ..
                } => {
                    self.corrupt_lut(hybrid, id, intended, &mut faults, base.node_name(id));
                }
                Node::Gate { fanin, .. } if fanin.len() <= MAX_LUT_INPUTS => {
                    self.maybe_stick_gate(hybrid, id, fanin.len(), &mut faults, base.node_name(id));
                }
                _ => {}
            }
        }
        faults
    }

    /// One modelled programming attempt followed by storage decay.
    fn corrupt_lut(
        &mut self,
        hybrid: &mut HybridOverlay,
        id: NodeId,
        intended: TruthTable,
        faults: &mut Vec<InjectedFault>,
        name: &str,
    ) {
        let rows = intended.rows();
        let written = self.write_raw(id, intended, Some((faults, name)));
        let retention = self.row_mask(id, SALT_RETENTION, rows, self.model.retention_flip_p);
        push_rows(faults, id, name, retention, |row| {
            FaultKind::RetentionFlip { row }
        });
        let (stuck0, stuck1) = self.stuck_masks(id, rows);
        push_rows(faults, id, name, stuck0, |row| FaultKind::StuckRow {
            row,
            value: false,
        });
        push_rows(faults, id, name, stuck1, |row| FaultKind::StuckRow {
            row,
            value: true,
        });
        let bits = ((written.bits() ^ retention) & !stuck0) | stuck1;
        let stored = TruthTable::new(intended.inputs(), bits);
        if stored != intended {
            hybrid.set_lut_config(id, stored);
        }
    }

    /// Possibly welds a CMOS gate's output to a constant.
    fn maybe_stick_gate(
        &mut self,
        hybrid: &mut HybridOverlay,
        id: NodeId,
        fanin: usize,
        faults: &mut Vec<InjectedFault>,
        name: &str,
    ) {
        if self.model.cmos_stuck_p == 0.0 {
            return;
        }
        let mut rng = self.stream(id, SALT_CMOS);
        if !rng.gen_bool(self.model.cmos_stuck_p) {
            return;
        }
        let value = rng.gen_bool(0.5);
        if hybrid.replace_gate_with_lut(id).is_err() {
            return; // wider than a LUT can express; leave the gate alone
        }
        let bits = if value { u64::MAX } else { 0 };
        hybrid.set_lut_config(id, TruthTable::new(fanin, bits));
        faults.push(InjectedFault {
            node: id,
            name: name.to_owned(),
            kind: FaultKind::CmosStuck { value },
        });
    }

    /// The modelled write: per-attempt stochastic flips plus the
    /// permanently stuck cells. `record` logs the flips as faults (used
    /// by [`corrupt`](FaultInjector::corrupt); channel writes from the
    /// repair loop are not themselves "injected faults").
    fn write_raw(
        &mut self,
        id: NodeId,
        intended: TruthTable,
        record: Option<(&mut Vec<InjectedFault>, &str)>,
    ) -> TruthTable {
        let rows = intended.rows();
        let attempt = self.writes.entry(id).or_insert(0);
        *attempt += 1;
        let salt = SALT_WRITE.wrapping_add(*attempt);
        let flips = self.row_mask(id, salt, rows, self.model.write_failure_p);
        if let Some((faults, name)) = record {
            push_rows(faults, id, name, flips, |row| FaultKind::WriteFailure {
                row,
            });
        }
        let (stuck0, stuck1) = self.stuck_masks(id, rows);
        TruthTable::new(
            intended.inputs(),
            ((intended.bits() ^ flips) & !stuck0) | stuck1,
        )
    }

    /// The permanently stuck rows of `id` — a pure function of
    /// `(seed, node)`, so they survive any number of writes.
    fn stuck_masks(&self, id: NodeId, rows: usize) -> (u64, u64) {
        let stuck0 = self.row_mask(id, SALT_STUCK0, rows, self.model.stuck_at_zero_p);
        let stuck1 = self.row_mask(id, SALT_STUCK1, rows, self.model.stuck_at_one_p) & !stuck0;
        (stuck0, stuck1)
    }

    /// Samples one bit per row from the node's `salt` stream.
    fn row_mask(&self, id: NodeId, salt: u64, rows: usize, p: f64) -> u64 {
        if p == 0.0 {
            return 0;
        }
        let mut rng = self.stream(id, salt);
        let mut mask = 0u64;
        for row in 0..rows {
            if rng.gen_bool(p) {
                mask |= 1 << row;
            }
        }
        mask
    }

    /// The per-(node, salt) random stream: FNV-1a over seed ‖ node ‖
    /// salt, the same mixing scheme as the campaign's `circuit_seed`.
    fn stream(&self, id: NodeId, salt: u64) -> StdRng {
        let h = fnv1a(FNV_OFFSET_BASIS, &self.seed.to_le_bytes());
        let h = fnv1a(h, &(id.index() as u64).to_le_bytes());
        StdRng::seed_from_u64(fnv1a(h, &salt.to_le_bytes()))
    }
}

impl ProgrammingChannel for FaultInjector {
    fn write(&mut self, id: NodeId, intended: TruthTable) -> TruthTable {
        self.write_raw(id, intended, None)
    }
}

fn push_rows(
    faults: &mut Vec<InjectedFault>,
    id: NodeId,
    name: &str,
    mask: u64,
    kind: impl Fn(usize) -> FaultKind,
) {
    for row in 0..64 {
        if (mask >> row) & 1 == 1 {
            faults.push(InjectedFault {
                node: id,
                name: name.to_owned(),
                kind: kind(row),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use sttlock_netlist::{GateKind, Netlist, NetlistBuilder};

    /// A small programmed hybrid: two LUTs, two plain gates, a register.
    fn hybrid() -> Arc<Netlist> {
        let mut b = NetlistBuilder::new("h");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Xor, &["g1", "c"]);
        b.gate("g3", GateKind::Or, &["g2", "a"]);
        b.dff("q", "g3");
        b.gate("g4", GateKind::And, &["q", "c"]);
        b.output("g4");
        let mut n = b.finish().unwrap();
        for name in ["g1", "g3"] {
            let id = n.find(name).unwrap();
            n.replace_gate_with_lut(id).unwrap();
        }
        Arc::new(n)
    }

    #[test]
    fn per_node_streams_are_pinned() {
        // Captured before the FNV-1a copies were folded into
        // `sttlock_exec::fnv1a`: every injected fault set depends on
        // these draws.
        let inj = FaultInjector::new(FaultModel::write_failures(0.5), 0xFA17_5EED);
        let a: u64 = inj.stream(NodeId::from_index(5), SALT_WRITE + 3).gen();
        let b: u64 = inj.stream(NodeId::from_index(0), SALT_STUCK1).gen();
        assert_eq!((a, b), (0xcb14a49b0bb4918a, 0x1597db0c9407c649));
    }

    #[test]
    fn noop_model_injects_nothing_and_writes_perfectly() {
        let base = hybrid();
        let mut overlay = HybridOverlay::new(Arc::clone(&base));
        let mut inj = FaultInjector::new(FaultModel::default(), 7);
        let faults = inj.corrupt(&mut overlay);
        assert!(faults.is_empty());
        assert_eq!(overlay.edit_count(), 0);
        assert_eq!(overlay.materialize(), *base);
        let g1 = base.find("g1").unwrap();
        let t = base.lut_config(g1).unwrap();
        assert_eq!(inj.write(g1, t), t);
    }

    #[test]
    fn luts_held_as_overlay_edits_are_corrupted_too() {
        // The flow never mutates the base: its hybrids are a pure-CMOS
        // base plus gate→LUT overlay edits. Injection must see those
        // LUTs through the overlay, not look for them in the base.
        let mut b = NetlistBuilder::new("cmos");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Xor, &["g1", "c"]);
        b.output("g2");
        let base = Arc::new(b.finish().unwrap());
        let g1 = base.find("g1").unwrap();
        let mut overlay = HybridOverlay::new(Arc::clone(&base));
        let intended = overlay.replace_gate_with_lut(g1).unwrap();

        let mut inj = FaultInjector::new(FaultModel::write_failures(1.0), 5);
        let faults = inj.corrupt(&mut overlay);
        assert!(
            faults
                .iter()
                .any(|f| f.node == g1 && matches!(f.kind, FaultKind::WriteFailure { .. })),
            "overlay-held LUT must take write failures"
        );
        assert_eq!(
            overlay.lut_config(g1).unwrap().bits(),
            intended.complement().bits()
        );
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let base = hybrid();
        let model = FaultModel {
            write_failure_p: 0.3,
            retention_flip_p: 0.2,
            stuck_at_zero_p: 0.1,
            stuck_at_one_p: 0.1,
            cmos_stuck_p: 0.2,
        };
        let run = |seed| {
            let mut overlay = HybridOverlay::new(Arc::clone(&base));
            let faults = FaultInjector::new(model, seed).corrupt(&mut overlay);
            (faults, overlay.materialize())
        };
        assert_eq!(run(11), run(11));
        // Different seeds almost surely differ at these probabilities.
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn certain_write_failure_flips_every_row() {
        let base = hybrid();
        let g1 = base.find("g1").unwrap();
        let intended = base.lut_config(g1).unwrap();
        let mut overlay = HybridOverlay::new(Arc::clone(&base));
        let mut inj = FaultInjector::new(FaultModel::write_failures(1.0), 3);
        let faults = inj.corrupt(&mut overlay);
        assert_eq!(
            overlay.lut_config(g1).unwrap().bits(),
            intended.complement().bits(),
            "p=1 write failure complements the stored table"
        );
        assert!(faults
            .iter()
            .any(|f| f.node == g1 && matches!(f.kind, FaultKind::WriteFailure { .. })));
    }

    #[test]
    fn stuck_rows_persist_across_reprogramming() {
        let base = hybrid();
        let g1 = base.find("g1").unwrap();
        let intended = base.lut_config(g1).unwrap();
        let model = FaultModel {
            stuck_at_one_p: 0.5,
            ..FaultModel::default()
        };
        let mut welded_somewhere = false;
        for seed in 0..16 {
            let mut inj = FaultInjector::new(model, seed);
            let first = inj.write(g1, intended);
            let second = inj.write(g1, intended);
            assert_eq!(first, second, "stuck cells are stable across writes");
            welded_somewhere |= first.bits() & !intended.bits() != 0;
        }
        assert!(welded_somewhere, "some seed welds a 0-row to 1 at p=0.5");
    }

    #[test]
    fn write_retries_reroll_the_failure_dice() {
        let base = hybrid();
        let g1 = base.find("g1").unwrap();
        let intended = base.lut_config(g1).unwrap();
        let mut inj = FaultInjector::new(FaultModel::write_failures(0.5), 9);
        // With per-attempt streams, some attempt lands clean.
        let clean = (0..64).any(|_| inj.write(g1, intended) == intended);
        assert!(clean, "independent retries must eventually succeed");
    }

    #[test]
    fn cmos_stuck_becomes_a_constant_lut_over_the_same_wiring() {
        let base = hybrid();
        let model = FaultModel {
            cmos_stuck_p: 1.0,
            ..FaultModel::default()
        };
        let mut overlay = HybridOverlay::new(Arc::clone(&base));
        let faults = FaultInjector::new(model, 2).corrupt(&mut overlay);
        let g2 = base.find("g2").unwrap();
        let fault = faults
            .iter()
            .find(|f| f.node == g2)
            .expect("every gate sticks at p=1");
        let FaultKind::CmosStuck { value } = fault.kind else {
            panic!("gate fault must be a CMOS stuck-at");
        };
        // Same fan-in, constant function.
        assert_eq!(
            overlay.node(g2).fanin(),
            base.node(g2).fanin(),
            "wiring preserved"
        );
        let table = overlay.lut_config(g2).unwrap();
        assert!(table.is_constant());
        assert_eq!(table.eval(0), value);
    }

    #[test]
    fn probabilities_are_clamped_not_panicking() {
        let inj = FaultInjector::new(FaultModel::write_failures(7.5), 1);
        assert_eq!(inj.model().write_failure_p, 1.0);
        let inj = FaultInjector::new(FaultModel::write_failures(-1.0), 1);
        assert_eq!(inj.model().write_failure_p, 0.0);
        assert!(inj.model().is_noop());
    }
}
