//! The benchmark's metric catalogue: every name it prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, from untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("op_p50_ms", "ms", Lower),
    def("cells_per_s", "1/s", Higher),
    def("peak_rss_mib", "MiB", Lower),
];

/// Ops that failed as a share of ops attempted. Printed with the
/// end-to-end metrics but left out of `BENCHMARK.json`, whose metrics must
/// never read 0; the result line's `failed`/`attempted` carry it.
pub const OP_ERROR_RATE: MetricDef = def("op_error_rate", "ratio", Lower);

/// Per-layer metrics, from traced runs. Counts, byte totals and times are
/// per op: medians over the traced ops, except for events that depend on
/// timing or faults (steals, fetch failures, recomputations, evictions and
/// the health counts), which are means so that a rare one still shows.
pub const PER_LAYER: &[MetricDef] = &[
    def("scheduler.jobs", "count", Lower),
    def("scheduler.stages_run", "count", Lower),
    def("scheduler.stages_skipped", "count", Higher),
    def("scheduler.tasks_run", "count", Lower),
    def("scheduler.tasks_stolen", "count", Lower),
    def("scheduler.queue_wait_ms", "ms", Lower),
    def("scheduler.task_busy_ms", "ms", Lower),
    def("scheduler.idle_share", "ratio", Lower),
    def("scheduler.busy_skew", "ratio", Lower),
    def("scheduler.empty_job_us", "us", Lower),
    def("shuffle.write_bytes", "bytes", Lower),
    def("shuffle.read_bytes", "bytes", Lower),
    def("shuffle.records", "count", Lower),
    def("shuffle.fetch_failures", "count", Lower),
    def("shuffle.probe_mb_per_s", "MB/s", Higher),
    def("spill.blocks_spilled", "count", Lower),
    def("spill.blocks_rehydrated", "count", Lower),
    def("spill.write_mib", "MiB", Lower),
    def("spill.write_amplification", "ratio", Lower),
    def("spill.rehydrate_ratio", "ratio", Lower),
    def("spill.disk_peak_mib", "MiB", Lower),
    def("memory.highwater_mib", "MiB", Lower),
    def("memory.watermark_overshoot_mib", "MiB", Lower),
    def("cache.hits", "count", Higher),
    def("cache.misses", "count", Lower),
    def("cache.hit_ratio", "ratio", Higher),
    def("cache.recomputations", "count", Lower),
    def("cache.partitions_evicted", "count", Lower),
    def("cache.resident_mib", "MiB", Lower),
    def("plan.stages_fused", "count", Higher),
    def("plan.shuffles_elided", "count", Higher),
    def("plan.partitions_coalesced", "count", Higher),
    def("health.tasks_speculated", "count", Lower),
    def("health.speculation_wins", "count", Higher),
    def("health.speculation_win_ratio", "ratio", Higher),
    def("health.tasks_cancelled", "count", Lower),
    def("health.watchdog_trips", "count", Lower),
    def("health.heartbeats_missed", "count", Lower),
    def("health.backoff_ms", "ms", Lower),
    def("linalg.kernel_ms", "ms", Lower),
    def("linalg.kernel_share", "ratio", Higher),
    def("ml.pagerank_build_ms", "ms", Lower),
    def("ml.pagerank_iter_ms", "ms", Lower),
    def("core.q1_ms", "ms", Lower),
    def("core.q2_ms", "ms", Lower),
    def("core.q3_ms", "ms", Lower),
    def("core.q4_ms", "ms", Lower),
    def("core.q5_ms", "ms", Lower),
    def("bitmask.scan_mcells_per_s", "Mcells/s", Higher),
    def("trace.overhead_share", "ratio", Lower),
    def("scaling.efficiency", "ratio", Higher),
];

/// The per-layer counts that must repeat exactly between runs of the same
/// seed (spill counts vary by a few blocks and are left out).
pub const DETERMINISTIC: &[&str] = &[
    "shuffle.write_bytes",
    "shuffle.read_bytes",
    "shuffle.records",
    "scheduler.stages_run",
    "scheduler.tasks_run",
    "plan.stages_fused",
    "plan.shuffles_elided",
    "plan.partitions_coalesced",
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit, has at most 64 characters and uses only letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Looks a metric up in either catalogue.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(std::iter::once(&OP_ERROR_RATE))
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER).chain([&OP_ERROR_RATE]) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for name in DETERMINISTIC {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn name_validation_rejects_bad_characters() {
        assert!(valid_name("shuffle.write_bytes"));
        assert!(valid_name("gram-spill"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ops/s"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit("m s"));
    }
}
