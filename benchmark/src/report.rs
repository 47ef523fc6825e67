//! What a run prints: a human-readable table, a stamped record line that
//! `compare` reads back, and the one-object result line that ends stdout.

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::runner::{RunConfig, RunResult};
use crate::stats::{iqr_share, median};

/// Stamp keys two results must share before they may be compared. The
/// seed is recorded too but may differ: runs over several seeds are how
/// the benchmark measures spread.
pub const COMPARABLE_KEYS: &[&str] = &[
    "workload",
    "trace",
    "scale",
    "cores",
    "executors",
    "backend",
    "profile",
    "peak_rss_window",
];

/// Number of cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment stamp recorded with every result.
pub fn stamp(cfg: &RunConfig, result: &RunResult) -> Json {
    Json::obj([
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("scale", Json::str(cfg.scale.name)),
        ("cores", Json::Num(cores() as f64)),
        ("executors", Json::Num(cfg.executors as f64)),
        // Contexts are built with `BackendKind::InProc` explicitly.
        ("backend", Json::str("inproc")),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "peak_rss_window",
            Json::str(if result.peak_rss_reset {
                "ops"
            } else {
                "process"
            }),
        ),
    ])
}

fn metric_entry(def: &MetricDef, value: f64) -> (String, Json) {
    (
        def.name.to_string(),
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
    )
}

/// The metrics the result line carries: every end-to-end metric of an
/// untraced run, or every per-layer metric of a traced one.
fn contract_metrics(cfg: &RunConfig, result: &RunResult) -> Json {
    let wanted = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    Json::Obj(
        wanted
            .iter()
            .filter_map(|def| result.metric(def.name).map(|v| metric_entry(def, v)))
            .collect(),
    )
}

/// The stamped record line: stamp, every metric printed, the cache series
/// and the first errors.
pub fn record(cfg: &RunConfig, result: &RunResult) -> Json {
    Json::obj([
        ("stamp", stamp(cfg, result)),
        (
            "metrics",
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .map(|(def, v)| metric_entry(def, *v))
                    .collect(),
            ),
        ),
        (
            "cache_resident_mib_per_op",
            Json::Arr(
                result
                    .cache_resident_mib_per_op
                    .iter()
                    .map(|v| Json::Num(*v))
                    .collect(),
            ),
        ),
        (
            "op_ms",
            Json::Arr(result.op_ms.iter().map(|v| Json::Num(*v)).collect()),
        ),
        (
            "not_applicable",
            Json::Arr(
                result
                    .not_applicable
                    .iter()
                    .map(|n| Json::str(*n))
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(result.errors.iter().map(|e| Json::str(e.clone())).collect()),
        ),
    ])
}

/// The last line of stdout.
pub fn result_line(cfg: &RunConfig, result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", contract_metrics(cfg, result)),
    ])
}

/// Human-readable lines: one metric per line with its unit.
pub fn table(cfg: &RunConfig, result: &RunResult) -> String {
    let mut out = format!(
        "# workload {} seed {} ({} run, {} executors on {} cores)\n",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        cfg.executors,
        cores()
    );
    for (def, v) in &result.metrics {
        out.push_str(&format!("{:<34} {:>16.4} {}\n", def.name, v, def.unit));
    }
    if !result.not_applicable.is_empty() {
        out.push_str(&format!(
            "# not exercised by this workload (reported as 0): {}\n",
            result.not_applicable.join(", ")
        ));
    }
    let series = &result.cache_resident_mib_per_op;
    let shown: Vec<String> = series.iter().take(12).map(|v| format!("{v:.1}")).collect();
    out.push_str(&format!(
        "# cache.resident_mib after each op: [{}{}]\n",
        shown.join(", "),
        match series.last() {
            Some(last) if series.len() > 12 => format!(", ... {last:.1} (op {})", series.len()),
            _ => String::new(),
        }
    ));
    out.push_str(&format!(
        "# ops: {} attempted, {} failed\n",
        result.attempted, result.failed
    ));
    for e in &result.errors {
        out.push_str(&format!("# error: {e}\n"));
    }
    out
}

/// Record lines found in a run's saved stdout.
pub fn parse_records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| l.starts_with("{\"stamp\""))
        .map(Json::parse)
        .collect()
}

fn comparable_stamp(record: &Json) -> Result<Vec<(String, String)>, String> {
    let stamp = record.get("stamp").ok_or("record without a stamp")?;
    COMPARABLE_KEYS
        .iter()
        .map(|k| {
            stamp
                .get(k)
                .map(|v| (k.to_string(), v.render()))
                .ok_or_else(|| format!("stamp lacks '{k}'"))
        })
        .collect()
}

/// Compares two sets of records (each the saved stdout of one or more
/// runs): per metric, each side's median and quartile spread and the
/// change of the medians. Refuses when any stamp differs from another in
/// a [`COMPARABLE_KEYS`] key.
pub fn compare(a_text: &str, b_text: &str) -> Result<String, String> {
    let a = parse_records(a_text)?;
    let b = parse_records(b_text)?;
    if a.is_empty() || b.is_empty() {
        return Err("each side needs at least one record line".into());
    }
    let reference = comparable_stamp(&a[0])?;
    for record in a.iter().chain(&b) {
        let stamp = comparable_stamp(record)?;
        if let Some(((key, want), (_, got))) =
            reference.iter().zip(&stamp).find(|(want, got)| want != got)
        {
            return Err(format!(
                "refusing to compare: stamps differ in '{key}' ({want} vs {got})"
            ));
        }
    }
    let values = |records: &[Json], name: &str| -> Vec<f64> {
        records
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect()
    };
    let names: Vec<String> = a[0]
        .get("metrics")
        .and_then(Json::as_object)
        .map(|entries| entries.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    let mut out = format!(
        "{:<34} {:>14} {:>8} {:>14} {:>8} {:>9}\n",
        "metric", "A median", "A iqr", "B median", "B iqr", "change"
    );
    for name in names {
        let (va, vb) = (values(&a, &name), values(&b, &name));
        let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
            continue;
        };
        let spread =
            |xs: &[f64]| iqr_share(xs).map_or("-".into(), |s| format!("{:.1}%", s * 100.0));
        let change = if ma != 0.0 {
            format!("{:+.1}%", (mb - ma) / ma.abs() * 100.0)
        } else {
            "-".into()
        };
        out.push_str(&format!(
            "{:<34} {:>14.4} {:>8} {:>14.4} {:>8} {:>9}\n",
            name,
            ma,
            spread(&va),
            mb,
            spread(&vb),
            change
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_line(cores: u32, seed: u32, op_ms: f64) -> String {
        format!(
            r#"{{"stamp":{{"workload":"gram","seed":{seed},"trace":false,"scale":"full","cores":{cores},"executors":2,"backend":"inproc","profile":"release","peak_rss_window":"ops"}},"metrics":{{"op_p50_ms":{{"value":{op_ms},"unit":"ms"}}}}}}"#
        )
    }

    #[test]
    fn compare_reports_medians_across_seeds() {
        let a = [record_line(2, 1, 100.0), record_line(2, 2, 110.0)].join("\n");
        let b = [record_line(2, 3, 90.0), "noise".into()].join("\n");
        let out = compare(&a, &b).unwrap();
        assert!(out.contains("op_p50_ms"), "{out}");
        assert!(out.contains("-14.3%"), "{out}");
    }

    #[test]
    fn compare_refuses_differing_stamps() {
        let err = compare(&record_line(2, 1, 100.0), &record_line(8, 1, 100.0)).unwrap_err();
        assert!(err.contains("cores"), "{err}");
        assert!(compare("", &record_line(2, 1, 1.0)).is_err());
    }
}
