//! Ablation sweeps behind the design choices called out in DESIGN.md:
//!
//! 1. **LUT budget sweep** — independent selection with 1..=64 LUTs on a
//!    mid-size benchmark: overheads grow linearly, the Equation 1 attack
//!    effort only linearly too (why independent selection is weak).
//! 2. **Parametric path-count sweep** — more targeted paths buy
//!    exponentially more brute-force effort (Equation 3) at near-flat
//!    performance cost.
//! 3. **Hardening ablation** — decoy inputs and function absorption
//!    (Section IV-A.3) versus the plain hybrid: key-space bits per LUT.
//! 4. **Camouflaging comparison** — the CCS'13-style camouflaged cell
//!    (3 candidates per gate) versus the STT LUT (2^2^k candidates):
//!    hypothesis-space size and measured SAT-attack effort on the same
//!    circuit, quantifying the paper's Section IV-A.3 argument.
//!
//! Usage: `ablation [--max-gates N] [--seed N]` (sweeps run on the
//! largest profile within `--max-gates`, default s1488).

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::estimate::BigEffort;
use sttlock_bench::HarnessArgs;
use sttlock_campaign::{execute, CampaignSpec, CircuitSpec, SelectionOverrides};
use sttlock_core::harden::{harden, HardenConfig};
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_techlib::Library;

fn main() {
    let args = HarnessArgs::parse();
    let profile = args
        .profiles()
        .into_iter()
        .rfind(|p| p.gates <= args.max_gates.min(700))
        .expect("at least one profile in range");
    let netlist = args.generate(&profile);
    let lib = Library::predictive_90nm();

    println!(
        "Ablations on {} ({} gates), seed {}",
        profile.name,
        netlist.gate_count(),
        args.seed
    );

    // Sweeps 1–2 are campaign grids over the selection-override axis:
    // every sweep point is an isolated, parallel cell.
    let sweep = |algorithm: SelectionAlgorithm, overrides: Vec<SelectionOverrides>| {
        let spec = CampaignSpec {
            circuits: vec![CircuitSpec::Profile(profile.name.to_owned())],
            algorithms: vec![algorithm],
            seeds: vec![args.seed],
            overrides,
            ..CampaignSpec::default()
        };
        execute(&spec).records
    };

    // 1. LUT budget sweep (independent selection).
    println!();
    println!("1) Independent-selection LUT budget sweep");
    println!(
        "{:>6} | {:>8} | {:>8} | {:>10}",
        "#LUTs", "power%", "area%", "N_indep"
    );
    let budgets = [1usize, 2, 4, 8, 16, 32, 64];
    let records = sweep(
        SelectionAlgorithm::Independent,
        budgets
            .iter()
            .map(|&b| SelectionOverrides {
                independent_gates: Some(b),
                ..SelectionOverrides::default()
            })
            .collect(),
    );
    for (budget, r) in budgets.iter().zip(&records) {
        match r.flow {
            Some(m) => println!(
                "{:>6} | {:>8.2} | {:>8.2} | {:>10}",
                m.stt_count,
                m.power_pct,
                m.area_pct,
                BigEffort::from_log10(m.n_indep_log10)
            ),
            None => println!("{budget:>6} | ({})", r.status.tag()),
        }
    }

    // 2. Parametric path-count sweep.
    println!();
    println!("2) Parametric-aware targeted-path sweep");
    println!(
        "{:>6} | {:>6} | {:>8} | {:>8} | {:>12}",
        "paths", "#LUTs", "perf%", "power%", "N_bf"
    );
    let paths_sweep = [1usize, 2, 4, 8, 16];
    let records = sweep(
        SelectionAlgorithm::ParametricAware,
        paths_sweep
            .iter()
            .map(|&p| SelectionOverrides {
                parametric_paths: Some(p),
                ..SelectionOverrides::default()
            })
            .collect(),
    );
    for (paths, r) in paths_sweep.iter().zip(&records) {
        match r.flow {
            Some(m) => println!(
                "{:>6} | {:>6} | {:>8.2} | {:>8.2} | {:>12}",
                paths,
                m.stt_count,
                m.perf_pct,
                m.power_pct,
                BigEffort::from_log10(m.n_bf_log10)
            ),
            None => println!("{paths:>6} | ({})", r.status.tag()),
        }
    }

    // 3. Hardening ablation: key bits per LUT before/after.
    println!();
    println!("3) LUT hardening (Section IV-A.3 countermeasures)");
    let flow = Flow::new(lib);
    let out = flow
        .run(&netlist, SelectionAlgorithm::ParametricAware, args.seed)
        .expect("parametric flow");
    let plain_bits: usize = out
        .hybrid
        .node_ids()
        .filter(|&id| out.hybrid.node(id).is_lut())
        .map(|id| 1usize << out.hybrid.node(id).fanin().len())
        .sum();
    let mut hardened = out.hybrid.clone();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let report =
        harden(&mut hardened, &HardenConfig::default(), &mut rng).expect("programmed view");
    let hard_bits: usize = hardened
        .node_ids()
        .filter(|&id| hardened.node(id).is_lut())
        .map(|id| 1usize << hardened.node(id).fanin().len())
        .sum();
    println!("  LUTs: {}", out.report.stt_count);
    println!("  decoy inputs added: {}", report.decoys_added);
    println!("  gates absorbed into LUTs: {}", report.gates_absorbed);
    println!(
        "  key bits: {plain_bits} -> {hard_bits} ({:.1}x key-space exponent)",
        hard_bits as f64 / plain_bits as f64
    );

    // 4. Camouflaging (CCS'13, 3 candidates/gate) vs STT LUTs: same
    //    circuit, same gate positions, measured SAT-attack effort.
    println!();
    println!("4) Camouflaging (3 candidates/gate) vs STT LUTs (2^2^k candidates)");
    let small = sttlock_benchgen::Profile::custom("camo", 160, 8, 9, 7)
        .generate(&mut StdRng::seed_from_u64(args.seed));
    let mut flow = Flow::new(Library::predictive_90nm());
    flow.selection.independent_gates = 6;
    let locked = flow
        .run(&small, SelectionAlgorithm::Independent, args.seed)
        .expect("flow runs");
    let redacted = locked.foundry_view();
    let (camo_space, lut_space) =
        sttlock_attack::camouflage::search_space_log10(&redacted, |_| 3.0);
    println!("  hypothesis space (log10): camouflage {camo_space:.1} vs STT LUT {lut_space:.1}");
    let sat = sttlock_attack::sat_attack::run(
        &redacted,
        &locked.hybrid,
        sttlock_attack::MAX_DIPS,
        &sttlock_exec::Budget::unbounded(),
    )
    .expect("attack runs");
    println!(
        "  SAT attack vs unrestricted LUTs: {} DIPs, {} conflicts",
        sat.dips, sat.solver_stats.conflicts
    );
    println!("  (camouflage restriction shrinks the key space the attacker must search;");
    println!("   see attack::camouflage::restrict_keys for the executable encoding)");
}
