//! Property-based tests for the netlist substrate: truth-table algebra,
//! random-circuit structural invariants, and format round-trips.

use std::sync::Arc;

use proptest::prelude::*;

use sttlock_netlist::{
    bench_format, verilog, CircuitView, GateKind, HybridOverlay, NetlistBuilder, NetlistError,
    TruthTable,
};

fn arb_table(inputs: usize) -> impl Strategy<Value = TruthTable> {
    any::<u64>().prop_map(move |bits| TruthTable::new(inputs, bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn similarity_is_symmetric_and_bounded(a in arb_table(3), b in arb_table(3)) {
        let s = a.similarity(&b);
        prop_assert_eq!(s, b.similarity(&a));
        prop_assert!(s <= a.rows());
    }

    #[test]
    fn self_similarity_is_total(a in arb_table(4)) {
        prop_assert_eq!(a.similarity(&a), a.rows());
        prop_assert_eq!(a.similarity(&a.complement()), 0);
    }

    #[test]
    fn complement_partitions_similarity(a in arb_table(3), b in arb_table(3)) {
        // Agreements with b and with ¬b partition the rows.
        prop_assert_eq!(a.similarity(&b) + a.similarity(&b.complement()), a.rows());
    }

    #[test]
    fn eval_parallel_matches_eval(a in arb_table(3), lanes in any::<[u64; 3]>()) {
        let out = a.eval_parallel(&lanes);
        for lane in 0..64 {
            let mut row = 0usize;
            for (i, w) in lanes.iter().enumerate() {
                if (w >> lane) & 1 == 1 {
                    row |= 1 << i;
                }
            }
            prop_assert_eq!((out >> lane) & 1 == 1, a.eval(row));
        }
    }

    #[test]
    fn new_masks_out_of_range_bits(bits in any::<u64>()) {
        let t = TruthTable::new(2, bits);
        prop_assert_eq!(t.bits() & !0xF, 0);
    }
}

/// Strategy: a small random combinational-plus-registers circuit, built
/// by wiring each new gate to previously declared signals only (so the
/// result is valid by construction).
fn arb_circuit() -> impl Strategy<Value = sttlock_netlist::Netlist> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Not,
    ]);
    (
        2usize..5, // inputs
        prop::collection::vec((kinds, any::<u32>(), any::<u32>(), prop::bool::ANY), 1..40),
    )
        .prop_map(|(n_inputs, gates)| {
            let mut b = NetlistBuilder::new("prop");
            let mut signals: Vec<String> = Vec::new();
            for i in 0..n_inputs {
                let name = format!("i{i}");
                b.input(&name);
                signals.push(name);
            }
            for (g, (kind, f1, f2, make_ff)) in gates.into_iter().enumerate() {
                let name = format!("g{g}");
                let a = signals[f1 as usize % signals.len()].clone();
                if kind.is_unary() {
                    b.gate(&name, kind, &[&a]);
                } else {
                    let mut c = signals[f2 as usize % signals.len()].clone();
                    if c == a {
                        c = signals[(f2 as usize + 1) % signals.len()].clone();
                    }
                    if c == a {
                        b.gate(&name, GateKind::Not, &[&a]);
                    } else {
                        b.gate(&name, kind, &[&a, &c]);
                    }
                }
                signals.push(name.clone());
                if make_ff {
                    let ff = format!("f{g}");
                    b.dff(&ff, &name);
                    signals.push(ff);
                }
            }
            let last = signals.last().expect("nonempty").clone();
            b.output(&last);
            b.finish().expect("constructed circuits are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_circuits_validate_and_level(n in arb_circuit()) {
        prop_assert!(n.check_acyclic().is_ok());
        let view = CircuitView::new(&n);
        let order = view.topo_order();
        prop_assert_eq!(order.len(), n.gate_count());
        // Levels respect the topological order.
        let levels = view.levels();
        for &id in order {
            for &f in n.node(id).fanin() {
                if n.node(f).is_combinational() {
                    prop_assert!(levels[f.index()] < levels[id.index()]);
                }
            }
        }
    }

    #[test]
    fn bench_round_trip_preserves_structure(n in arb_circuit()) {
        let text = bench_format::write(&n);
        let back = bench_format::parse(&text, n.name()).expect("own output parses");
        prop_assert_eq!(back.gate_count(), n.gate_count());
        prop_assert_eq!(back.dff_count(), n.dff_count());
        prop_assert_eq!(back.inputs().len(), n.inputs().len());
        prop_assert_eq!(back.outputs().len(), n.outputs().len());
    }

    #[test]
    fn verilog_round_trip_preserves_structure(n in arb_circuit()) {
        let text = verilog::write(&n);
        let back = verilog::parse(&text).expect("own output parses");
        prop_assert_eq!(back.gate_count(), n.gate_count());
        prop_assert_eq!(back.dff_count(), n.dff_count());
        prop_assert_eq!(back.inputs().len(), n.inputs().len());
        prop_assert_eq!(back.outputs().len(), n.outputs().len());
    }

    #[test]
    fn bench_lut_masks_survive_round_trip(n in arb_circuit(), seed in any::<u64>()) {
        // Replace every other gate with a LUT and program each with an
        // arbitrary mask, so the round trip exercises `LUT 0x..` lines
        // beyond the gate-derived truth tables.
        let mut hybrid = n.clone();
        let gates: Vec<_> = hybrid
            .node_ids()
            .filter(|&id| hybrid.node(id).gate_kind().is_some())
            .step_by(2)
            .collect();
        let mut state = seed | 1;
        for &id in &gates {
            hybrid.replace_gate_with_lut(id).expect("narrow gates fit");
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = hybrid.node(id).fanin().len();
            hybrid.set_lut_config(id, TruthTable::new(k, state));
        }

        // Programmed view: every mask survives write -> parse, by name.
        let text = bench_format::write(&hybrid);
        let back = bench_format::parse(&text, hybrid.name()).expect("own output parses");
        prop_assert_eq!(back.lut_count(), gates.len());
        for &id in &gates {
            let name = hybrid.node_name(id);
            let bid = back.find(name).expect("LUT name survives");
            prop_assert_eq!(back.lut_config(bid), hybrid.lut_config(id));
        }

        // Redacted (foundry) view: `LUT ?` lines survive as unprogrammed
        // LUTs with the same fan-in.
        let (stripped, secret) = hybrid.redact();
        let text = bench_format::write(&stripped);
        prop_assert_eq!(text.matches("LUT ?").count(), secret.len());
        let back = bench_format::parse(&text, stripped.name()).expect("redacted output parses");
        for &id in &gates {
            let bid = back.find(hybrid.node_name(id)).expect("LUT name survives");
            prop_assert_eq!(back.lut_config(bid), None);
            prop_assert_eq!(
                back.node(bid).fanin().len(),
                hybrid.node(id).fanin().len()
            );
        }
    }

    #[test]
    fn malformed_lines_report_their_1_based_position(
        n in arb_circuit(),
        pick in any::<usize>(),
    ) {
        let text = bench_format::write(&n);
        let mut lines: Vec<&str> = text.lines().collect();
        let at = pick % (lines.len() + 1);
        lines.insert(at, "@@ not a bench statement @@");
        let bad = lines.join("\n");
        match bench_format::parse(&bad, "bad") {
            Err(NetlistError::Parse { line, .. }) => prop_assert_eq!(line, at + 1),
            other => prop_assert!(false, "expected a parse error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn lut_replacement_round_trips_through_redaction(n in arb_circuit()) {
        let mut hybrid = n.clone();
        let gates: Vec<_> = hybrid
            .node_ids()
            .filter(|&id| hybrid.node(id).gate_kind().is_some())
            .step_by(2)
            .collect();
        for id in gates {
            hybrid.replace_gate_with_lut(id).expect("narrow gates fit");
        }
        let (stripped, secret) = hybrid.redact();
        prop_assert_eq!(secret.len(), hybrid.lut_count());
        let mut restored = stripped;
        restored.program(&secret);
        prop_assert_eq!(restored, hybrid);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A copy-on-write overlay, driven by an arbitrary interleaving of
    /// gate→LUT swaps, reprogrammings and gate restorations, must
    /// materialize bit-for-bit into what the same script produces by
    /// cloning the netlist and mutating it in place — checked after
    /// every step, not just at the end.
    #[test]
    fn overlay_materialize_equals_clone_then_mutate(
        n in arb_circuit(),
        script in prop::collection::vec((0u8..3, any::<u32>(), any::<u64>()), 1..24),
    ) {
        let base = Arc::new(n);
        let gates: Vec<_> = base
            .node_ids()
            .filter(|&id| base.node(id).gate_kind().is_some())
            .collect();
        prop_assert!(!gates.is_empty());
        let mut overlay = HybridOverlay::new(Arc::clone(&base));
        let mut mutated = (*base).clone();
        for (op, pick, bits) in script {
            let id = gates[pick as usize % gates.len()];
            match op {
                0 => {
                    if overlay.node(id).gate_kind().is_some() {
                        let a = overlay.replace_gate_with_lut(id);
                        let b = mutated.replace_gate_with_lut(id);
                        prop_assert_eq!(a.ok(), b.ok());
                    }
                }
                1 => {
                    if overlay.node(id).is_lut() {
                        let k = overlay.node(id).fanin().len();
                        let t = TruthTable::new(k, bits);
                        overlay.set_lut_config(id, t);
                        mutated.set_lut_config(id, t);
                    }
                }
                _ => {
                    if overlay.node(id).is_lut() {
                        let kind = base.node(id).gate_kind().expect("was a gate");
                        overlay.restore_lut_to_gate(id, kind);
                        mutated.restore_lut_to_gate(id, kind);
                    }
                }
            }
            prop_assert_eq!(overlay.materialize(), mutated.clone());
        }
        // The base behind the overlay was never touched.
        let untouched = HybridOverlay::new(Arc::clone(&base)).materialize();
        prop_assert_eq!(untouched, (*base).clone());
    }

    /// After any run of overlay edits, a view over the materialized
    /// variant answers exactly like a second fresh view queried in the
    /// opposite order — and, because LUT swaps preserve wiring, exactly
    /// like the memoized view of the shared base.
    #[test]
    fn view_matches_fresh_recomputation_after_overlay_edits(
        n in arb_circuit(),
        picks in prop::collection::vec(any::<u32>(), 1..10),
    ) {
        let base = Arc::new(n);
        let gates: Vec<_> = base
            .node_ids()
            .filter(|&id| base.node(id).gate_kind().is_some())
            .collect();
        prop_assert!(!gates.is_empty());
        let base_view = CircuitView::new(&base);
        // Warm every memo before the edits start.
        let _ = (base_view.topo_order(), base_view.fanout(), base_view.levels());

        let mut overlay = HybridOverlay::new(Arc::clone(&base));
        for pick in picks {
            let id = gates[pick as usize % gates.len()];
            if overlay.node(id).gate_kind().is_some() {
                let _ = overlay.replace_gate_with_lut(id);
            }
            let mat = overlay.materialize();
            let view = CircuitView::new(&mat);
            let fresh = CircuitView::new(&mat);
            let roots = [gates[0]];
            let fresh_cone_out = fresh.fanout_cone(&roots, false);
            let fresh_cone_in = fresh.fanin_cone(&roots, true);
            let fresh_depth = fresh.comb_depth();
            prop_assert_eq!(view.topo_order(), fresh.topo_order());
            prop_assert_eq!(view.fanout(), fresh.fanout());
            prop_assert_eq!(view.levels(), fresh.levels());
            prop_assert_eq!(view.comb_depth(), fresh_depth);
            prop_assert_eq!(view.fanin_cone(&roots, true), fresh_cone_in);
            prop_assert_eq!(view.fanout_cone(&roots, false), fresh_cone_out);
            // LUT swaps never rewire fan-ins, so the *base* view's facts
            // remain valid for every materialized variant.
            prop_assert_eq!(base_view.topo_order(), view.topo_order());
            prop_assert_eq!(base_view.fanout(), view.fanout());
            prop_assert_eq!(base_view.levels(), view.levels());
        }
    }
}

/// Characters spliced into valid netlist text by the fuzz properties:
/// the format's own structure characters, plus multibyte UTF-8 — a
/// 2-byte char landing inside a keyword used to panic the fixed-length
/// keyword slice in the `.bench` reader.
const MANGLE_CHARS: &[char] = &[
    '(', ')', '=', ',', '#', '?', ';', ' ', '\n', 'x', '0', 'É', 'Ω', '€', '🜁',
];

/// Applies character-level replace/insert/delete edits to `text`.
/// Char-wise (not byte-wise) so the result stays valid UTF-8, which is
/// all a `&str` parser can ever receive.
fn mangle(text: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(pos, pick, op) in edits {
        if chars.is_empty() {
            break;
        }
        let at = pos % chars.len();
        let c = MANGLE_CHARS[pick as usize % MANGLE_CHARS.len()];
        match op % 3 {
            0 => chars[at] = c,
            1 => chars.insert(at, c),
            _ => {
                chars.remove(at);
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte-mangled `.bench` text must parse to Ok or a typed error —
    /// never a panic.
    #[test]
    fn mangled_bench_text_never_panics(
        n in arb_circuit(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..12),
    ) {
        let bad = mangle(&bench_format::write(&n), &edits);
        let _ = bench_format::parse(&bad, "fuzz");
    }

    /// Byte-mangled structural Verilog must parse to Ok or a typed
    /// error — never a panic.
    #[test]
    fn mangled_verilog_text_never_panics(
        n in arb_circuit(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..12),
    ) {
        let bad = mangle(&verilog::write(&n), &edits);
        let _ = verilog::parse(&bad);
    }
}
