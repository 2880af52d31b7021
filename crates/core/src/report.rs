use std::time::Duration;

use sttlock_attack::estimate::SecurityEstimate;

/// The per-run report: everything the paper's Tables I–II and Figure 3
/// tabulate for one (benchmark, algorithm) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowReport {
    /// Relative clock-period degradation, percent (Table I).
    pub performance_degradation_pct: f64,
    /// Relative total-power overhead, percent (Table I).
    pub power_overhead_pct: f64,
    /// Relative leakage change, percent (negative = the LUTs' near-zero
    /// standby power reduced leakage).
    pub leakage_overhead_pct: f64,
    /// Relative area overhead, percent (Table I).
    pub area_overhead_pct: f64,
    /// Number of STT LUTs inserted (Table I "Number of STTs").
    pub stt_count: usize,
    /// Wall-clock time of the selection step (Table II), candidate-path
    /// sampling included. The runs over one [`Baseline`](crate::Baseline)
    /// share one path draw, so each adds that draw's measured time to
    /// its own: the figure stays this algorithm's whole selection cost.
    pub selection_time: Duration,
    /// Analytic attack-effort estimates (Figure 3).
    pub security: SecurityEstimate,
}

impl std::fmt::Display for FlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} LUTs | perf +{:.2}% | power +{:.2}% | area +{:.2}% | N_bf {} | selected in {:.1?}",
            self.stt_count,
            self.performance_degradation_pct,
            self.power_overhead_pct,
            self.area_overhead_pct,
            self.security.n_bf,
            self.selection_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_attack::estimate::BigEffort;

    #[test]
    fn display_shows_the_headline_numbers() {
        let r = FlowReport {
            performance_degradation_pct: 0.0,
            power_overhead_pct: 5.13,
            leakage_overhead_pct: -1.0,
            area_overhead_pct: 1.56,
            stt_count: 166,
            selection_time: Duration::from_millis(44_000),
            security: SecurityEstimate {
                n_indep: BigEffort::from_log10(3.0),
                n_dep: BigEffort::from_log10(40.0),
                n_bf: BigEffort::from_log10(219.783),
            },
        };
        let s = r.to_string();
        assert!(s.contains("166 LUTs"));
        assert!(s.contains("6.07E+219"));
    }
}
