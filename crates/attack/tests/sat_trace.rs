//! The SAT attacks report to the trace: DIPs and solver counters once
//! per attack, whichever way the attack ends, and each stage of the DIP
//! loop under a `sat_attack.*` span. One test in its own process, since
//! the collector is process-global.

use sttlock_attack::sat_attack::{self, SatAttackOutcome};
use sttlock_attack::{AttackError, AttackOutcome, MAX_DIPS};
use sttlock_exec::Budget;
use sttlock_netlist::{GateKind, Netlist, NetlistBuilder};
use sttlock_obs::TraceCollector;

/// A small sequential design with three dependent missing gates.
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
    let mut programmed = b.finish().expect("well-formed design");
    for name in ["g1", "g2", "g3"] {
        let id = programmed.find(name).expect("gate exists");
        programmed.replace_gate_with_lut(id).expect("gate converts");
    }
    let (redacted, _) = programmed.redact();
    (redacted, programmed)
}

#[test]
fn every_attack_exit_flushes_its_counters_once() {
    let (redacted, oracle) = locked();
    let unbounded = Budget::unbounded();
    let cancelled = Budget::unbounded();
    cancelled.cancel();

    let trace = TraceCollector::new();
    sttlock_obs::install(trace.clone());
    let broke = sat_attack::run(&redacted, &oracle, MAX_DIPS, &unbounded).expect("attack runs");
    let limited = sat_attack::run(&redacted, &oracle, 1, &unbounded).expect("attack runs");
    let unrolled = sat_attack::run_sequential(&redacted, &oracle, 3, MAX_DIPS, &unbounded)
        .expect("attack runs");
    let tripped = match sat_attack::run(&redacted, &oracle, MAX_DIPS, &cancelled) {
        Err(AttackError::Budget { partial, .. }) => match *partial {
            AttackOutcome::Sat(partial) => partial,
            other => panic!("expected a SAT partial, got {other:?}"),
        },
        other => panic!("expected a budget trip, got {other:?}"),
    };
    sttlock_obs::uninstall();

    assert!(broke.succeeded() && unrolled.succeeded());
    assert_eq!(limited.dips, 1);
    assert!(limited.bitstream.is_none(), "one DIP cannot pin three LUTs");
    let outcomes = [&broke, &limited, &unrolled, &tripped];
    let sum = |f: fn(&SatAttackOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
    assert_eq!(trace.counter_value("sat.dips"), sum(|o| o.dips as u64));
    assert_eq!(
        trace.counter_value("sat.conflicts"),
        sum(|o| o.solver_stats.conflicts)
    );
    assert_eq!(
        trace.counter_value("sat.decisions"),
        sum(|o| o.solver_stats.decisions)
    );
    assert_eq!(
        trace.counter_value("sat.propagations"),
        sum(|o| o.solver_stats.propagations)
    );

    // One solve per DIP plus, for an attack that breaks, the miter's
    // final UNSAT and the key extraction; one oracle query per DIP.
    let spans = trace.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let dips = (broke.dips + limited.dips + unrolled.dips) as usize;
    assert_eq!(count("sat_attack.solve"), dips + 2 + 2);
    assert_eq!(count("sat_attack.oracle"), dips);
    // The miter per attack that got past its budget check, and each
    // DIP's constraints.
    assert_eq!(count("sat_attack.encode"), 4 + dips);
}
