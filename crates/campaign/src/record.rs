//! Per-run result records and their JSONL encoding.

pub use sttlock_attack::AttackMetrics;

use crate::json::Json;
use crate::Cell;

/// How a campaign cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The cell completed and produced metrics.
    Ok,
    /// A flow or attack step returned a typed error.
    Failed(String),
    /// The cell panicked; the payload is the panic message. The panic
    /// was contained by the runner — sibling cells kept going.
    Panicked(String),
    /// The cell exceeded the per-run wall-clock budget.
    TimedOut,
}

impl RunStatus {
    /// Stable status tag used in the JSONL output.
    pub fn tag(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Failed(_) => "failed",
            RunStatus::Panicked(_) => "panicked",
            RunStatus::TimedOut => "timed_out",
        }
    }

    /// Whether the cell produced usable metrics.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Ok)
    }
}

/// Flow metrics of one successful run — the Table I / Table II /
/// Figure 3 columns for one (circuit, algorithm, seed) cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowMetrics {
    /// Relative clock-period degradation, percent.
    pub perf_pct: f64,
    /// Relative total-power overhead, percent.
    pub power_pct: f64,
    /// Relative leakage change, percent.
    pub leakage_pct: f64,
    /// Relative area overhead, percent.
    pub area_pct: f64,
    /// STT LUTs inserted.
    pub stt_count: usize,
    /// Selection CPU time, milliseconds (Table II).
    pub selection_ms: f64,
    /// `log10` of the independent-selection effort estimate.
    pub n_indep_log10: f64,
    /// `log10` of the dependent-selection effort estimate.
    pub n_dep_log10: f64,
    /// `log10` of the brute-force effort estimate.
    pub n_bf_log10: f64,
}

/// Verify-and-repair metrics of one fault-injected run — the recovery
/// table's columns for one (circuit, algorithm, seed, fault) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairMetrics {
    /// Repair verdict tag (`recovered`, `degraded`, `unrecoverable`).
    pub verdict: String,
    /// Faults the injector actually placed in the device.
    pub faults_injected: u64,
    /// Individual test vectors evaluated by the repair loop.
    pub vectors_run: u64,
    /// Re-programming rounds executed.
    pub retries: u64,
    /// Individual LUT writes issued through the programming channel.
    pub reprogram_attempts: u64,
    /// Mismatching observation points before any repair.
    pub initial_mismatches: u64,
    /// Mismatching observation points left when the loop ended.
    pub residual_mismatches: u64,
    /// LUTs implicated at some point and clean at the end.
    pub repaired_luts: u64,
    /// LUTs still implicated when the loop gave up.
    pub failed_luts: u64,
    /// `log10` of the brute-force effort estimate under this fault
    /// model (key bits leak through faulted rows, Section VI).
    pub n_bf_faulted_log10: f64,
}

/// One executed campaign cell: descriptor, outcome, metrics, timing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Circuit name (profile name or custom/injected label).
    pub circuit: String,
    /// Combinational gate count of the generated circuit (0 when the
    /// cell failed before generation finished).
    pub gates: usize,
    /// Selection algorithm (display name, e.g. `independent`).
    pub algorithm: String,
    /// User-facing seed of the cell.
    pub seed: u64,
    /// Attack descriptor (`none`, `sens`, `sat`, `seq`).
    pub attack: String,
    /// Selection-override descriptor (`default` unless an ablation
    /// sweep changed the tunables).
    pub config: String,
    /// Outcome.
    pub status: RunStatus,
    /// Flow metrics, present when the flow step succeeded.
    pub flow: Option<FlowMetrics>,
    /// Attack metrics, present when an attack ran and succeeded.
    pub attack_metrics: Option<AttackMetrics>,
    /// Fault-model descriptor (`none` for fault-free cells).
    pub fault: String,
    /// Verify-and-repair metrics, present when a fault model ran.
    pub repair: Option<RepairMetrics>,
    /// Wall-clock time of the cell, milliseconds.
    pub wall_ms: u64,
    /// Whether the record was served from the result cache.
    pub cached: bool,
}

impl RunRecord {
    /// A failure record for a cell that produced no metrics.
    pub fn failure(
        circuit: &str,
        algorithm: &str,
        seed: u64,
        attack: &str,
        status: RunStatus,
    ) -> RunRecord {
        RunRecord {
            circuit: circuit.to_owned(),
            gates: 0,
            algorithm: algorithm.to_owned(),
            seed,
            attack: attack.to_owned(),
            config: "default".to_owned(),
            status,
            flow: None,
            attack_metrics: None,
            fault: "none".to_owned(),
            repair: None,
            wall_ms: 0,
            cached: false,
        }
    }

    /// The record skeleton of `cell` ending in `status`: every identity
    /// field set from the cell (config and fault descriptors included),
    /// no metrics, zero wall time. Failure rows and the `ok` row alike
    /// start from it, so a fault cell can never be recorded as its
    /// fault-free twin.
    pub fn for_cell(cell: &Cell, status: RunStatus) -> RunRecord {
        RunRecord {
            config: cell.overrides.descriptor(),
            fault: cell.fault.descriptor(),
            ..RunRecord::failure(
                cell.circuit.name(),
                &cell.algorithm.to_string(),
                cell.seed,
                cell.attack.tag(),
                status,
            )
        }
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    ///
    /// The `fault` and `repair` keys appear only on fault-injected
    /// cells, so fault-free campaign output stays byte-identical to the
    /// engine before the fault axis existed — the acceptance bar for
    /// the `p = 0` sweep.
    pub fn to_json(&self) -> Json {
        let error = match &self.status {
            RunStatus::Failed(m) | RunStatus::Panicked(m) => Json::Str(m.clone()),
            _ => Json::Null,
        };
        let mut pairs = vec![
            ("circuit", Json::from(self.circuit.as_str())),
            ("gates", Json::from(self.gates)),
            ("algorithm", Json::from(self.algorithm.as_str())),
            ("seed", Json::from(self.seed)),
            ("attack", Json::from(self.attack.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("status", Json::from(self.status.tag())),
            ("error", error),
            ("flow", self.flow.map_or(Json::Null, |m| flow_to_json(&m))),
            (
                "attack_metrics",
                self.attack_metrics
                    .map_or(Json::Null, |m| attack_to_json(&m)),
            ),
        ];
        if self.fault != "none" || self.repair.is_some() {
            pairs.push(("fault", Json::from(self.fault.as_str())));
            pairs.push((
                "repair",
                self.repair.as_ref().map_or(Json::Null, repair_to_json),
            ));
        }
        pairs.push(("wall_ms", Json::from(self.wall_ms)));
        pairs.push(("cached", Json::from(self.cached)));
        Json::obj(pairs)
    }

    /// Decodes a record from its JSON form.
    pub fn from_json(v: &Json) -> Option<RunRecord> {
        let status = match v.get("status")?.as_str()? {
            "ok" => RunStatus::Ok,
            "failed" => RunStatus::Failed(
                v.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            ),
            "panicked" => RunStatus::Panicked(
                v.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            ),
            "timed_out" => RunStatus::TimedOut,
            _ => return None,
        };
        Some(RunRecord {
            circuit: v.get("circuit")?.as_str()?.to_owned(),
            gates: v.get("gates")?.as_u64()? as usize,
            algorithm: v.get("algorithm")?.as_str()?.to_owned(),
            seed: v.get("seed")?.as_u64()?,
            attack: v.get("attack")?.as_str()?.to_owned(),
            config: v.get("config")?.as_str()?.to_owned(),
            status,
            flow: v.get("flow").and_then(flow_from_json),
            attack_metrics: v.get("attack_metrics").and_then(attack_from_json),
            fault: v
                .get("fault")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_owned(),
            repair: v.get("repair").and_then(repair_from_json),
            wall_ms: v.get("wall_ms")?.as_u64()?,
            cached: v.get("cached")?.as_bool()?,
        })
    }
}

fn flow_to_json(m: &FlowMetrics) -> Json {
    Json::obj([
        ("perf_pct", Json::from(m.perf_pct)),
        ("power_pct", Json::from(m.power_pct)),
        ("leakage_pct", Json::from(m.leakage_pct)),
        ("area_pct", Json::from(m.area_pct)),
        ("stt_count", Json::from(m.stt_count)),
        ("selection_ms", Json::from(m.selection_ms)),
        ("n_indep_log10", Json::from(m.n_indep_log10)),
        ("n_dep_log10", Json::from(m.n_dep_log10)),
        ("n_bf_log10", Json::from(m.n_bf_log10)),
    ])
}

fn flow_from_json(v: &Json) -> Option<FlowMetrics> {
    Some(FlowMetrics {
        perf_pct: v.get("perf_pct")?.as_f64()?,
        power_pct: v.get("power_pct")?.as_f64()?,
        leakage_pct: v.get("leakage_pct")?.as_f64()?,
        area_pct: v.get("area_pct")?.as_f64()?,
        stt_count: v.get("stt_count")?.as_u64()? as usize,
        selection_ms: v.get("selection_ms")?.as_f64()?,
        n_indep_log10: v.get("n_indep_log10")?.as_f64()?,
        n_dep_log10: v.get("n_dep_log10")?.as_f64()?,
        n_bf_log10: v.get("n_bf_log10")?.as_f64()?,
    })
}

fn attack_to_json(m: &AttackMetrics) -> Json {
    Json::obj([
        ("broke", Json::from(m.broke)),
        ("dips", Json::from(m.dips)),
        ("test_clocks", Json::from(m.test_clocks)),
        ("sat_queries", Json::from(m.sat_queries)),
        ("conflicts", Json::from(m.conflicts)),
        ("decisions", Json::from(m.decisions)),
        ("propagations", Json::from(m.propagations)),
        ("restarts", Json::from(m.restarts)),
        ("learnt_clauses", Json::from(m.learnt_clauses)),
        ("frames", Json::from(m.frames)),
    ])
}

fn repair_to_json(m: &RepairMetrics) -> Json {
    Json::obj([
        ("verdict", Json::from(m.verdict.as_str())),
        ("faults_injected", Json::from(m.faults_injected)),
        ("vectors_run", Json::from(m.vectors_run)),
        ("retries", Json::from(m.retries)),
        ("reprogram_attempts", Json::from(m.reprogram_attempts)),
        ("initial_mismatches", Json::from(m.initial_mismatches)),
        ("residual_mismatches", Json::from(m.residual_mismatches)),
        ("repaired_luts", Json::from(m.repaired_luts)),
        ("failed_luts", Json::from(m.failed_luts)),
        ("n_bf_faulted_log10", Json::from(m.n_bf_faulted_log10)),
    ])
}

fn repair_from_json(v: &Json) -> Option<RepairMetrics> {
    Some(RepairMetrics {
        verdict: v.get("verdict")?.as_str()?.to_owned(),
        faults_injected: v.get("faults_injected")?.as_u64()?,
        vectors_run: v.get("vectors_run")?.as_u64()?,
        retries: v.get("retries")?.as_u64()?,
        reprogram_attempts: v.get("reprogram_attempts")?.as_u64()?,
        initial_mismatches: v.get("initial_mismatches")?.as_u64()?,
        residual_mismatches: v.get("residual_mismatches")?.as_u64()?,
        repaired_luts: v.get("repaired_luts")?.as_u64()?,
        failed_luts: v.get("failed_luts")?.as_u64()?,
        n_bf_faulted_log10: v.get("n_bf_faulted_log10")?.as_f64()?,
    })
}

fn attack_from_json(v: &Json) -> Option<AttackMetrics> {
    Some(AttackMetrics {
        broke: v.get("broke")?.as_bool()?,
        dips: v.get("dips")?.as_u64()?,
        test_clocks: v.get("test_clocks")?.as_u64()?,
        sat_queries: v.get("sat_queries")?.as_u64()?,
        conflicts: v.get("conflicts")?.as_u64()?,
        decisions: v.get("decisions")?.as_u64()?,
        propagations: v.get("propagations")?.as_u64()?,
        restarts: v.get("restarts")?.as_u64()?,
        learnt_clauses: v.get("learnt_clauses")?.as_u64()?,
        frames: v.get("frames")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            circuit: "s27".into(),
            gates: 10,
            algorithm: "independent".into(),
            seed: 42,
            attack: "sat".into(),
            config: "default".into(),
            status: RunStatus::Ok,
            flow: Some(FlowMetrics {
                perf_pct: 1.25,
                power_pct: 4.5,
                leakage_pct: -0.5,
                area_pct: 2.0,
                stt_count: 5,
                selection_ms: 12.5,
                n_indep_log10: 3.0,
                n_dep_log10: 40.0,
                n_bf_log10: 219.5,
            }),
            attack_metrics: Some(AttackMetrics {
                broke: true,
                dips: 7,
                conflicts: 100,
                decisions: 50,
                propagations: 2000,
                restarts: 1,
                learnt_clauses: 80,
                ..AttackMetrics::default()
            }),
            fault: "none".into(),
            repair: None,
            wall_ms: 321,
            cached: false,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = sample();
        let text = r.to_json().to_string();
        let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn failure_records_round_trip_with_messages() {
        for status in [
            RunStatus::Failed("flow failed: selection produced no replaceable gate".into()),
            RunStatus::Panicked("injected panic".into()),
            RunStatus::TimedOut,
        ] {
            let r = RunRecord::failure("boom", "independent", 1, "none", status.clone());
            let text = r.to_json().to_string();
            let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.status, status);
            assert_eq!(back.flow, None);
        }
    }

    #[test]
    fn jsonl_lines_are_single_line_and_tagged() {
        let r = sample();
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"cached\":false"));
    }

    #[test]
    fn fault_free_records_omit_the_fault_keys_entirely() {
        let line = sample().to_json().to_string();
        assert!(
            !line.contains("\"fault\":") && !line.contains("\"repair\":"),
            "p=0 records must be byte-identical to the pre-fault format: {line}"
        );
    }

    #[test]
    fn faulted_records_round_trip_with_repair_metrics() {
        let mut r = sample();
        r.fault = "wf=0.01".into();
        r.repair = Some(RepairMetrics {
            verdict: "recovered".into(),
            faults_injected: 3,
            vectors_run: 1024,
            retries: 1,
            reprogram_attempts: 2,
            initial_mismatches: 4,
            residual_mismatches: 0,
            repaired_luts: 2,
            failed_luts: 0,
            n_bf_faulted_log10: 17.25,
        });
        let text = r.to_json().to_string();
        assert!(text.contains("\"fault\":\"wf=0.01\""));
        assert!(text.contains("\"verdict\":\"recovered\""));
        let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
