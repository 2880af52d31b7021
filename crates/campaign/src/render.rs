//! Table renderers: turn a campaign's record set back into the paper's
//! Table I / Table II / Figure 3 text, plus an attack-outcome table.
//!
//! `sttlock-cli campaign --table table1|table2|fig3|attacks|faults`
//! prints them, and EXPERIMENTS.md quotes this output.

use sttlock_attack::estimate::BigEffort;
use sttlock_core::SelectionAlgorithm;

use crate::record::{FlowMetrics, RunRecord};

/// Patterns per second for the paper's years-of-attack conversion.
const ATTACK_RATE: f64 = 1e9;

/// Per-circuit row: flow metrics per algorithm (Table I column order)
/// plus the circuit size.
struct Row<'a> {
    circuit: &'a str,
    gates: usize,
    by_alg: [Option<FlowMetrics>; 3],
}

/// Groups records into per-circuit rows, preserving first-seen circuit
/// order. The first record per (circuit, algorithm) with flow metrics
/// wins, so multi-seed campaigns tabulate their first seed.
fn rows(records: &[RunRecord]) -> Vec<Row<'_>> {
    let mut out: Vec<Row<'_>> = Vec::new();
    for r in records {
        let Some(flow) = r.flow else { continue };
        let Some(alg_idx) = SelectionAlgorithm::ALL
            .iter()
            .position(|a| a.to_string() == r.algorithm)
        else {
            continue;
        };
        let row = match out.iter_mut().find(|row| row.circuit == r.circuit) {
            Some(row) => row,
            None => {
                out.push(Row {
                    circuit: &r.circuit,
                    gates: r.gates,
                    by_alg: [None; 3],
                });
                out.last_mut().expect("just pushed")
            }
        };
        if row.by_alg[alg_idx].is_none() {
            row.by_alg[alg_idx] = Some(flow);
        }
    }
    out
}

/// Renders Table I — performance / power / area overheads and STT
/// counts per benchmark × selection algorithm.
pub fn render_table1(records: &[RunRecord], seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table I — overhead after introducing STT-based LUTs (seed {seed})\n"
    ));
    out.push_str(&format!(
        "{:<9} | {:>6} {:>6} {:>6} | {:>7} {:>7} {:>7} | {:>6} {:>6} {:>6} | {:>5} {:>5} {:>5} | {:>7}\n",
        "Circuit",
        "PerfI", "PerfD", "PerfP",
        "PwrI", "PwrD", "PwrP",
        "AreaI", "AreaD", "AreaP",
        "#I", "#D", "#P",
        "size"
    ));
    out.push_str(&format!("{}\n", "-".repeat(118)));

    let mut sums = [[0.0f64; 3]; 3]; // [metric][algorithm]
    let mut counts = [0.0f64; 3];
    let mut present = [0usize; 3]; // rows contributing to each algorithm
    let mut n_rows = 0usize;

    // A missing cell (errored, timed out, or not part of the grid at
    // all) renders as a blank column and is excluded from its
    // algorithm's average, instead of polluting both with zeros.
    let f2 = |v: Option<f64>, width: usize| match v {
        Some(x) => format!("{x:>width$.2}"),
        None => format!("{:>width$}", ""),
    };
    let fstt = |v: Option<usize>| match v {
        Some(n) => format!("{n:>5}"),
        None => format!("{:>5}", ""),
    };
    let favg1 = |v: Option<f64>| match v {
        Some(x) => format!("{x:>5.1}"),
        None => format!("{:>5}", ""),
    };

    for row in rows(records) {
        let m = |a: usize| row.by_alg[a];
        out.push_str(&format!(
            "{:<9} | {} {} {} | {} {} {} | {} {} {} | {} {} {} | {:>7}\n",
            row.circuit,
            f2(m(0).map(|m| m.perf_pct), 6),
            f2(m(1).map(|m| m.perf_pct), 6),
            f2(m(2).map(|m| m.perf_pct), 6),
            f2(m(0).map(|m| m.power_pct), 7),
            f2(m(1).map(|m| m.power_pct), 7),
            f2(m(2).map(|m| m.power_pct), 7),
            f2(m(0).map(|m| m.area_pct), 6),
            f2(m(1).map(|m| m.area_pct), 6),
            f2(m(2).map(|m| m.area_pct), 6),
            fstt(m(0).map(|m| m.stt_count)),
            fstt(m(1).map(|m| m.stt_count)),
            fstt(m(2).map(|m| m.stt_count)),
            row.gates,
        ));
        for a in 0..3 {
            if let Some(m) = row.by_alg[a] {
                sums[0][a] += m.perf_pct;
                sums[1][a] += m.power_pct;
                sums[2][a] += m.area_pct;
                counts[a] += m.stt_count as f64;
                present[a] += 1;
            }
        }
        n_rows += 1;
    }

    if n_rows > 0 {
        let n = |a: usize| (present[a] > 0).then(|| present[a] as f64);
        out.push_str(&format!("{}\n", "-".repeat(118)));
        out.push_str(&format!(
            "{:<9} | {} {} {} | {} {} {} | {} {} {} | {} {} {} |\n",
            "Average",
            f2(n(0).map(|n| sums[0][0] / n), 6),
            f2(n(1).map(|n| sums[0][1] / n), 6),
            f2(n(2).map(|n| sums[0][2] / n), 6),
            f2(n(0).map(|n| sums[1][0] / n), 7),
            f2(n(1).map(|n| sums[1][1] / n), 7),
            f2(n(2).map(|n| sums[1][2] / n), 7),
            f2(n(0).map(|n| sums[2][0] / n), 6),
            f2(n(1).map(|n| sums[2][1] / n), 6),
            f2(n(2).map(|n| sums[2][2] / n), 6),
            favg1(n(0).map(|n| counts[0] / n)),
            favg1(n(1).map(|n| counts[1] / n)),
            favg1(n(2).map(|n| counts[2] / n)),
        ));
        out.push('\n');
        out.push_str("Paper (Table I) averages for comparison:\n");
        out.push_str("  perf: 2.69 / 28.40 / 2.36 %   power: 6.12 / 24.96 / 7.23 %   area: 1.47 / 6.45 / 2.84 %   #STT: 5.0 / 60.7 / 48.7\n");
        out.push_str("Expected shape: dependent worst on performance/power; overheads shrink as circuits grow.\n");
    }
    out
}

/// Renders Table II — selection CPU time per benchmark × algorithm, in
/// milliseconds with one decimal: the selections take milliseconds, and
/// the paper's MM:SS.s would print nearly every cell as `00:00.0`.
pub fn render_table2(records: &[RunRecord], seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table II — CPU time (ms) for gate selection (seed {seed})\n"
    ));
    out.push_str(&format!(
        "{:<9} | {:>12} | {:>12} | {:>12}\n",
        "Circuit", "Independent", "Dependent", "Parametric"
    ));
    out.push_str(&format!("{}\n", "-".repeat(54)));

    for row in rows(records) {
        let cells: Vec<String> = row
            .by_alg
            .iter()
            .map(|f| match f {
                // Journals can be hand-edited or torn mid-float; a
                // negative, NaN or absurd selection time renders a
                // placeholder, not a number.
                Some(m) if m.selection_ms.is_finite() && (0.0..=1e15).contains(&m.selection_ms) => {
                    format!("{:.1}", m.selection_ms)
                }
                Some(_) => "(invalid)".to_owned(),
                None => "(failed)".to_owned(),
            })
            .collect();
        out.push_str(&format!(
            "{:<9} | {:>12} | {:>12} | {:>12}\n",
            row.circuit, cells[0], cells[1], cells[2]
        ));
    }
    out.push('\n');
    out.push_str(
        "Paper: all selections finish under ~91000 ms, s38584 parametric in 44000.0 ms.\n",
    );
    out
}

/// Renders Figure 3 — required test clocks per benchmark × algorithm,
/// with the paper's years-at-10⁹-patterns/s conversion for the
/// parametric column.
pub fn render_fig3(records: &[RunRecord], seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 3 — required test clocks to resolve the missing gates (seed {seed})\n"
    ));
    out.push_str(&format!(
        "{:<9} | {:>12} | {:>12} | {:>12} | {:>14}\n",
        "Circuit", "N_indep", "N_dep", "N_bf (para)", "para years@1e9/s"
    ));
    out.push_str(&format!("{}\n", "-".repeat(72)));

    for row in rows(records) {
        // Each algorithm column shows the estimate that algorithm
        // optimizes for, from that algorithm's own run.
        let cell = |i: usize, pick: fn(&FlowMetrics) -> f64| -> String {
            match &row.by_alg[i] {
                Some(m) => BigEffort::from_log10(pick(m)).to_string(),
                None => "(failed)".to_owned(),
            }
        };
        let n_indep = cell(0, |m| m.n_indep_log10);
        let n_dep = cell(1, |m| m.n_dep_log10);
        let n_bf = cell(2, |m| m.n_bf_log10);
        let para_years = match &row.by_alg[2] {
            Some(m) => {
                let years = BigEffort::from_log10(m.n_bf_log10).years_at(ATTACK_RATE);
                if years > 1e9 {
                    format!("{years:.2e}")
                } else {
                    format!("{years:.1}")
                }
            }
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<9} | {:>12} | {:>12} | {:>12} | {:>14}\n",
            row.circuit, n_indep, n_dep, n_bf, para_years
        ));
    }
    out.push('\n');
    out.push_str("Paper reference point: s38584 parametric-aware needs ~6.07E+219 test clocks\n");
    out.push_str("(> 1000 years at 1e9 patterns/s even for the small circuits).\n");
    out
}

/// Renders the attack-outcome table: one line per executed cell
/// (including failures — campaign rows never vanish silently).
pub fn render_attacks(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("Attack outcomes — one row per campaign cell\n");
    out.push_str(&format!(
        "{:<14} | {:<11} | {:>4} | {:>6} | {:>9} | {:>5} | {:>12} | {:>9} | {:>8}\n",
        "Circuit",
        "Algorithm",
        "Seed",
        "Attack",
        "Status",
        "Broke",
        "DIPs/Clocks",
        "Conflicts",
        "Time"
    ));
    out.push_str(&format!("{}\n", "-".repeat(96)));
    for r in records {
        let (broke, effort, conflicts) = match &r.attack_metrics {
            Some(m) => (
                if m.broke { "yes" } else { "no" },
                if m.test_clocks > 0 {
                    m.test_clocks
                } else {
                    m.dips
                }
                .to_string(),
                m.conflicts.to_string(),
            ),
            None => ("-", "-".to_owned(), "-".to_owned()),
        };
        out.push_str(&format!(
            "{:<14} | {:<11} | {:>4} | {:>6} | {:>9} | {:>5} | {:>12} | {:>9} | {:>7.1}s\n",
            r.circuit,
            short_alg(&r.algorithm),
            r.seed,
            r.attack,
            r.status.tag(),
            broke,
            effort,
            conflicts,
            r.wall_ms as f64 / 1e3,
        ));
    }
    out
}

/// Renders the fault-sweep recovery table: one row per (circuit, fault
/// model) group, aggregating repair verdicts across seeds and
/// algorithms. Fault-free cells are skipped — this table is about the
/// robustness axis only.
pub fn render_faults(records: &[RunRecord]) -> String {
    struct Group<'a> {
        circuit: &'a str,
        fault: &'a str,
        cells: usize,
        recovered: usize,
        degraded: usize,
        retries: u64,
        writes: u64,
        injected: u64,
    }
    let mut groups: Vec<Group<'_>> = Vec::new();
    for r in records {
        let Some(m) = &r.repair else { continue };
        let group = match groups
            .iter_mut()
            .find(|g| g.circuit == r.circuit && g.fault == r.fault)
        {
            Some(g) => g,
            None => {
                groups.push(Group {
                    circuit: &r.circuit,
                    fault: &r.fault,
                    cells: 0,
                    recovered: 0,
                    degraded: 0,
                    retries: 0,
                    writes: 0,
                    injected: 0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        group.cells += 1;
        group.recovered += usize::from(m.verdict == "recovered");
        group.degraded += usize::from(m.verdict == "degraded");
        group.retries += m.retries;
        group.writes += m.reprogram_attempts;
        group.injected += m.faults_injected;
    }

    let mut out = String::new();
    out.push_str("Fault sweep — verify-and-repair outcomes per circuit × fault model\n");
    out.push_str(&format!(
        "{:<14} | {:<18} | {:>5} | {:>6} | {:>9} | {:>8} | {:>8} | {:>7} | {:>7}\n",
        "Circuit",
        "Fault model",
        "Cells",
        "Recov",
        "Recov %",
        "Degraded",
        "Unrecov",
        "Retries",
        "Writes"
    ));
    out.push_str(&format!("{}\n", "-".repeat(104)));
    for g in &groups {
        let unrecoverable = g.cells - g.recovered - g.degraded;
        out.push_str(&format!(
            "{:<14} | {:<18} | {:>5} | {:>6} | {:>8.1}% | {:>8} | {:>8} | {:>7.2} | {:>7.2}\n",
            g.circuit,
            g.fault,
            g.cells,
            g.recovered,
            100.0 * g.recovered as f64 / g.cells as f64,
            g.degraded,
            unrecoverable,
            g.retries as f64 / g.cells as f64,
            g.writes as f64 / g.cells as f64,
        ));
    }
    if groups.is_empty() {
        out.push_str("(no fault-injected cells in this record set)\n");
    } else {
        out.push_str(
            "\nRetries/Writes are per-cell means; a recovered row within the retry\n\
             budget means the self-healing loop restored the intended bitstream.\n",
        );
    }
    out
}

fn short_alg(display_name: &str) -> &str {
    for alg in SelectionAlgorithm::ALL {
        if alg.to_string() == display_name {
            return match alg {
                SelectionAlgorithm::Independent => "independent",
                SelectionAlgorithm::Dependent => "dependent",
                SelectionAlgorithm::ParametricAware => "parametric",
            };
        }
    }
    display_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AttackMetrics, RunStatus};

    fn record(circuit: &str, alg: SelectionAlgorithm, stt: usize) -> RunRecord {
        RunRecord {
            circuit: circuit.into(),
            gates: 100,
            algorithm: alg.to_string(),
            seed: 42,
            attack: "none".into(),
            config: "default".into(),
            status: RunStatus::Ok,
            flow: Some(FlowMetrics {
                perf_pct: 1.5,
                power_pct: 2.5,
                leakage_pct: -0.25,
                area_pct: 0.75,
                stt_count: stt,
                selection_ms: 1500.0,
                n_indep_log10: 3.0,
                n_dep_log10: 40.0,
                n_bf_log10: 219.783,
            }),
            attack_metrics: None,
            fault: "none".into(),
            repair: None,
            wall_ms: 2100,
            cached: false,
        }
    }

    fn grid() -> Vec<RunRecord> {
        let mut v = Vec::new();
        for circuit in ["s27", "s298"] {
            for alg in SelectionAlgorithm::ALL {
                v.push(record(circuit, alg, 5));
            }
        }
        v
    }

    #[test]
    fn table1_has_rows_averages_and_the_paper_footer() {
        let text = render_table1(&grid(), 42);
        assert!(text.starts_with("Table I — overhead"));
        assert!(text.contains("(seed 42)"));
        assert!(text.contains("s27       |   1.50   1.50   1.50"));
        assert!(text.contains("Average   |"));
        assert!(text.contains("Paper (Table I) averages"));
    }

    #[test]
    fn table2_formats_selection_time_in_milliseconds() {
        let text = render_table2(&grid(), 42);
        assert!(text.contains("CPU time (ms)"), "{text}");
        assert!(
            text.contains("s27       |       1500.0 |       1500.0 |       1500.0"),
            "{text}"
        );
        assert!(text.contains("Paper: all selections finish"));
    }

    #[test]
    fn fig3_shows_scientific_efforts_and_years() {
        let text = render_fig3(&grid(), 42);
        assert!(text.contains("6.07E+219"), "{text}");
        // 10^219.783 clocks at 1e9/s is astronomically many years.
        assert!(text.contains("e203"), "{text}");
        assert!(text.contains("Paper reference point"));
    }

    #[test]
    fn missing_algorithms_render_as_failed_not_garbage() {
        // Only the independent run survived.
        let records = vec![record("s27", SelectionAlgorithm::Independent, 5)];
        let t2 = render_table2(&records, 1);
        assert!(t2.contains("(failed)"), "{t2}");
        let f3 = render_fig3(&records, 1);
        assert!(f3.contains("(failed)"), "{f3}");
    }

    #[test]
    fn attack_table_lists_failures_and_metrics() {
        let mut ok = record("s27", SelectionAlgorithm::Independent, 5);
        ok.attack = "sat".into();
        ok.attack_metrics = Some(AttackMetrics {
            broke: true,
            dips: 12,
            conflicts: 345,
            ..AttackMetrics::default()
        });
        let dead = RunRecord::failure(
            "inject-panic",
            "independent",
            1,
            "none",
            RunStatus::Panicked("injected panic cell".into()),
        );
        let text = render_attacks(&[ok, dead]);
        assert!(text.contains("yes"), "{text}");
        assert!(text.contains("345"), "{text}");
        assert!(text.contains("panicked"), "{text}");
    }

    #[test]
    fn fault_table_aggregates_recovery_rates_per_group() {
        use crate::record::RepairMetrics;
        let repaired = |verdict: &str, retries: u64| RepairMetrics {
            verdict: verdict.into(),
            faults_injected: 2,
            vectors_run: 576,
            retries,
            reprogram_attempts: retries * 2,
            initial_mismatches: 1,
            residual_mismatches: u64::from(verdict != "recovered"),
            repaired_luts: 1,
            failed_luts: 0,
            n_bf_faulted_log10: 12.0,
        };
        let mut a = record("s27", SelectionAlgorithm::Independent, 5);
        a.fault = "wf=0.01".into();
        a.repair = Some(repaired("recovered", 1));
        let mut b = a.clone();
        b.seed = 43;
        b.repair = Some(repaired("unrecoverable", 5));
        let text = render_faults(&[a, b, record("s27", SelectionAlgorithm::Independent, 5)]);
        assert!(text.contains("wf=0.01"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
        assert!(!text.contains("none"), "fault-free cells are skipped");

        let empty = render_faults(&[record("s27", SelectionAlgorithm::Independent, 5)]);
        assert!(empty.contains("no fault-injected cells"), "{empty}");
    }

    #[test]
    fn first_seed_wins_for_multi_seed_grids() {
        let mut second = record("s27", SelectionAlgorithm::Independent, 9);
        second.seed = 43;
        let records = vec![record("s27", SelectionAlgorithm::Independent, 5), second];
        let text = render_table1(&records, 42);
        assert!(text.contains("    5"), "first seed's count renders: {text}");
        assert!(!text.contains("    9"), "later seeds are ignored: {text}");
    }

    #[test]
    fn table1_blanks_missing_cells_and_averages_only_present_ones() {
        // s27 has all three algorithms; s298's dependent cell failed
        // (status row only, no flow metrics). Pre-fix, the missing cell
        // rendered default zeros and dragged the dependent averages to
        // half their true value.
        let mut records = grid();
        let dependent = SelectionAlgorithm::Dependent.to_string();
        records.retain(|r| !(r.circuit == "s298" && r.algorithm == dependent));
        records.push(RunRecord::failure(
            "s298",
            &dependent,
            42,
            "none",
            RunStatus::Failed("flow failed: injected".into()),
        ));
        let text = render_table1(&records, 42);
        assert!(
            !text.contains("0.00"),
            "missing cells must be blank, not zero: {text}"
        );
        // Every present cell carries identical metrics, so each average
        // must equal the cell value even with s298's dependent column
        // absent (pre-fix the dependent perf average read 0.75).
        assert!(text.contains("Average   |   1.50   1.50   1.50"), "{text}");
    }

    #[test]
    fn table1_with_zero_present_cells_for_an_algorithm_stays_blank() {
        // A single-algorithm grid: the other two columns have no cells
        // anywhere, so their averages must be blank, not 0/0 artifacts.
        let records = vec![
            record("s27", SelectionAlgorithm::Independent, 5),
            record("s298", SelectionAlgorithm::Independent, 7),
        ];
        let text = render_table1(&records, 1);
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("0.00"), "{text}");
        assert!(text.contains("Average   |   1.50  "), "{text}");
    }

    #[test]
    fn table2_renders_placeholders_for_corrupt_selection_times() {
        // Negative, NaN or absurd selection times replay verbatim from
        // hand-edited resume journals; each renders a placeholder.
        let mut neg = record("s27", SelectionAlgorithm::Independent, 5);
        neg.flow.as_mut().unwrap().selection_ms = -1500.0;
        let mut nan = record("s298", SelectionAlgorithm::Dependent, 5);
        nan.flow.as_mut().unwrap().selection_ms = f64::NAN;
        let mut huge = record("s344", SelectionAlgorithm::ParametricAware, 5);
        huge.flow.as_mut().unwrap().selection_ms = 1e300;
        let text = render_table2(&[neg, nan, huge], 1);
        assert_eq!(text.matches("(invalid)").count(), 3, "{text}");
        assert!(text.contains("(failed)"), "absent cells keep their tag");
    }
}
