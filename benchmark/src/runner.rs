//! One benchmark run: reference, set-up, the timed op loop and the
//! metrics derived from it.
//!
//! An untraced run gives the end-to-end metrics. A traced run records
//! spans and reads the runtime's public counters around every traced op,
//! and gives the per-layer metrics; it alternates traced and untraced ops
//! so that the tracing overhead is measured in the same process.

use crate::metrics::{self, MetricDef};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, OpResult, Prepared, Reference, Scale, Workload};
use spangle_dataflow::MetricsSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Fewest ops an untraced run times, however long they take.
pub const MIN_OPS: usize = 3;
/// Fewest traced and untraced ops each in a traced run.
pub const MIN_TRACED_OPS: usize = 2;
/// Traced MtM ops on a spill context in a `gram` traced run.
pub const SPILL_PROBE_OPS: u64 = 3;
const MIB: f64 = (1u64 << 20) as f64;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Seed every generator derives from.
    pub seed: u64,
    /// How long the op loop measures.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Executors per context.
    pub executors: usize,
}

/// What a run measured.
pub struct RunResult {
    /// Ops attempted (timed ops plus the scaling op of a traced run).
    pub attempted: u64,
    /// Ops that returned `Err`, panicked or failed verification.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Metrics in catalogue order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// `cached_bytes()` after every op, in MiB.
    pub cache_resident_mib_per_op: Vec<f64>,
    /// Latency of every op that passed, in order, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Per-layer metrics this workload does not exercise (reported as 0).
    pub not_applicable: Vec<&'static str>,
    /// Spans of a traced run, as JSON lines.
    pub spans_jsonl: Option<String>,
    /// Whether peak RSS was reset after set-up, so that `peak_rss_mib`
    /// covers the timed ops only (Linux); otherwise it covers the process.
    pub peak_rss_reset: bool,
}

impl RunResult {
    /// The value of the metric named `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }
}

/// Counts attempts and failures across the ops of one context, and keeps
/// their results until the reference is there to check them.
#[derive(Default)]
struct Ops {
    executors: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    resident_mib: Vec<f64>,
    results: Vec<(u64, OpResult)>,
}

impl Ops {
    fn new(executors: usize) -> Self {
        Ops {
            executors,
            ..Ops::default()
        }
    }

    fn fail(&mut self, op: u64, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("op {op}: {error}"));
        }
    }

    /// Runs and times one op and keeps its result. Returns its latency in
    /// milliseconds, or `None` when it returned `Err` or panicked.
    fn run(&mut self, prepared: &Prepared, tracer: &Tracer, op: u64) -> Option<f64> {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| prepared.run_op(tracer, op)));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        self.resident_mib
            .push(prepared.ctx.cached_bytes() as f64 / MIB);
        match outcome {
            Ok(Ok(result)) => {
                self.results.push((op, result));
                Some(wall_ms)
            }
            Ok(Err(e)) => {
                self.fail(op, e);
                None
            }
            Err(panic) => {
                self.fail(op, format!("op panicked: {}", panic_message(&panic)));
                None
            }
        }
    }

    /// Checks every kept result against the reference.
    fn verify(&mut self, reference: &Reference) {
        for (op, result) in std::mem::take(&mut self.results) {
            if let Err(e) = reference.check(&result, self.executors) {
                self.fail(op, e);
            }
        }
    }

    /// Adds another context's attempts and failures to these.
    fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs one benchmark run. `Err` means the run could not measure at all:
/// the reference or the set-up failed.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &RunConfig) -> Result<RunResult, String> {
    let off = Tracer::disabled();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        let p = workloads::setup(cfg.workload, &cfg.scale, cfg.seed, cfg.executors, &off)
            .map_err(|e| format!("setup: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("SETUP_REPEATS is positive");
    // Peak memory covers the timed ops only: set-up is repeated, and the
    // allocator keeps what the discarded repetitions freed.
    let peak_rss_reset = reset_peak_rss();

    let mut ops = Ops::new(cfg.executors);
    let mut walls = Vec::new();
    let start = Instant::now();
    let mut op = 0;
    while (start.elapsed().as_secs_f64() < cfg.seconds || (op as usize) < MIN_OPS)
        && (op as usize) < cfg.workload.ops_per_run()
    {
        walls.extend(ops.run(&prepared, &off, op));
        op += 1;
    }
    // Read before the reference runs, which allocates on its own.
    let peak_rss_mib = peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
    let reference = workloads::reference(cfg.workload, &cfg.scale, cfg.seed, cfg.executors, &off)
        .map_err(|e| format!("reference: {e}"))?;
    ops.verify(&reference);

    let timed_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let cells = prepared.cells_per_op(&reference) as f64;
    let values = [
        ("setup_s", median(&setup_s).unwrap_or(0.0)),
        ("op_p50_ms", median(&walls).unwrap_or(0.0)),
        ("cells_per_s", ratio(cells * walls.len() as f64, timed_s)),
        ("peak_rss_mib", peak_rss_mib),
        (
            metrics::OP_ERROR_RATE.name,
            ops.failed as f64 / ops.attempted.max(1) as f64,
        ),
    ];
    Ok(RunResult {
        attempted: ops.attempted,
        failed: ops.failed,
        errors: ops.errors,
        metrics: values
            .iter()
            .map(|(name, v)| (metrics::find(name).expect("catalogued metric"), *v))
            .collect(),
        cache_resident_mib_per_op: ops.resident_mib,
        op_ms: walls,
        not_applicable: Vec::new(),
        spans_jsonl: None,
        peak_rss_reset,
    })
}

/// Runtime counters read around one traced op.
struct OpCounters {
    wall_ms: f64,
    delta: MetricsSnapshot,
    jobs: usize,
    queue_wait_ms: f64,
    busy_ns: Vec<u64>,
    /// PageRank's own build time and per-iteration times.
    pagerank: Option<(f64, Vec<f64>)>,
}

fn traced_op(ops: &mut Ops, prepared: &Prepared, tracer: &Tracer, op: u64) -> Option<OpCounters> {
    let ctx = &prepared.ctx;
    let first_job = ctx.job_reports().last().map_or(0, |r| r.job_id + 1);
    let before = ctx.metrics_snapshot();
    let busy_before = ctx.executor_busy_nanos();
    let wall_ms = ops.run(prepared, tracer, op)?;
    let delta = ctx.metrics_snapshot() - before;
    let busy_ns = ctx
        .executor_busy_nanos()
        .iter()
        .zip(&busy_before)
        .map(|(after, before)| after - before)
        .collect();
    let reports: Vec<_> = ctx
        .job_reports()
        .into_iter()
        .filter(|r| r.job_id >= first_job)
        .collect();
    let pagerank = match ops.results.last() {
        Some((
            _,
            OpResult::PageRank {
                build_ms, iter_ms, ..
            },
        )) => Some((*build_ms, iter_ms.clone())),
        _ => None,
    };
    Some(OpCounters {
        wall_ms,
        delta,
        jobs: reports.len(),
        queue_wait_ms: reports.iter().map(|r| r.queue_wait_nanos).sum::<u64>() as f64 / 1e6,
        busy_ns,
        pagerank,
    })
}

fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    let tracer = Tracer::enabled();
    let off = Tracer::disabled();
    let executors = cfg.executors;
    let prepared = tracer
        .span("setup", None, || {
            workloads::setup(cfg.workload, &cfg.scale, cfg.seed, executors, &tracer)
        })
        .map_err(|e| format!("setup: {e}"))?;

    // Scheduler and shuffle probes run on a context of their own so the
    // workload's counters see only its ops.
    let (empty_job_us, shuffle_mb_per_s) = {
        let probe_ctx = workloads::context(Workload::Gram, &cfg.scale, executors);
        (
            workloads::probe_empty_job_us(&probe_ctx, &tracer)?,
            workloads::probe_shuffle_mb_per_s(&probe_ctx, &tracer)?,
        )
    };
    let kernel_ms = prepared.probe_kernel_ms(&tracer)?;
    let scan_mcells = prepared.probe_bitmask_scan(&tracer)?;

    // Ops alternate traced and untraced in the order T U U T T U ..., so
    // that the two latencies give the tracing overhead under the same
    // conditions even when ops slow down as the run goes on.
    let mut ops = Ops::new(executors);
    let mut traced: Vec<OpCounters> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while (start.elapsed().as_secs_f64() < cfg.seconds
        || traced.len() < MIN_TRACED_OPS
        || untraced_ms.len() < MIN_TRACED_OPS)
        && (op as usize) < cfg.workload.ops_per_run()
    {
        if matches!(op % 4, 0 | 3) {
            traced.extend(traced_op(&mut ops, &prepared, &tracer, op));
        } else {
            untraced_ms.extend(ops.run(&prepared, &off, op));
        }
        op += 1;
        // The loop waits for successful ops; stop if none ever succeeds.
        if ops.failed >= 4 && ops.failed == ops.attempted {
            break;
        }
    }
    let final_snapshot = prepared.ctx.metrics_snapshot();
    let resident_after_last = prepared.ctx.cached_bytes() as f64 / MIB;
    drop(prepared);

    // On `gram`, a few traced ops of the same MtM on a context with
    // `gram-spill`'s watermark, so that a listed workload measures the
    // spill layer. They are checked as `gram` ops.
    let mut spill_probe = Ops::new(executors);
    let probe_counters = if cfg.workload == Workload::Gram {
        let spilling = tracer
            .span("probe.spill_setup", None, || {
                workloads::setup(Workload::GramSpill, &cfg.scale, cfg.seed, executors, &off)
            })
            .map_err(|e| format!("setup (spill probe): {e}"))?;
        let counters: Vec<OpCounters> = (op..op + SPILL_PROBE_OPS)
            .filter_map(|probe_op| traced_op(&mut spill_probe, &spilling, &tracer, probe_op))
            .collect();
        op += SPILL_PROBE_OPS;
        Some((counters, spilling.ctx.metrics_snapshot()))
    } else {
        None
    };

    // Serial baseline: the same op on a one-executor context.
    let mut serial = Ops::new(1);
    let t1_ms = {
        let single = workloads::setup(cfg.workload, &cfg.scale, cfg.seed, 1, &off)
            .map_err(|e| format!("setup (1 executor): {e}"))?;
        tracer.span("scaling.serial_op", None, || serial.run(&single, &off, op))
    };

    let reference = tracer
        .span("reference", None, || {
            workloads::reference(cfg.workload, &cfg.scale, cfg.seed, executors, &tracer)
        })
        .map_err(|e| format!("reference: {e}"))?;
    ops.verify(&reference);
    spill_probe.verify(&reference);
    serial.verify(&reference);

    let tn_ms = median(&untraced_ms).unwrap_or(0.0);
    let traced_ms: Vec<f64> = traced.iter().map(|c| c.wall_ms).collect();
    let layer = LayerInputs {
        cfg,
        traced: &traced,
        tracer: &tracer,
        final_snapshot,
        resident_after_last,
        tn_ms,
        traced_p50_ms: median(&traced_ms).unwrap_or(0.0),
        t1_ms,
        empty_job_us,
        shuffle_mb_per_s,
        kernel_ms,
        scan_mcells,
        // The spill tier's ops: `gram-spill`'s own, or `gram`'s probe.
        spill: match (&probe_counters, cfg.workload) {
            (Some((counters, snapshot)), _) => Some((counters.as_slice(), *snapshot)),
            (None, Workload::GramSpill) => Some((traced.as_slice(), final_snapshot)),
            _ => None,
        },
    };
    let (values, not_applicable) = layer.metrics();
    ops.absorb(spill_probe);
    ops.absorb(serial);
    Ok(RunResult {
        attempted: ops.attempted,
        failed: ops.failed,
        errors: ops.errors,
        metrics: values,
        cache_resident_mib_per_op: ops.resident_mib,
        op_ms: untraced_ms,
        not_applicable,
        spans_jsonl: Some(tracer.to_jsonl()),
        peak_rss_reset: false,
    })
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    cfg: &'a RunConfig,
    traced: &'a [OpCounters],
    tracer: &'a Tracer,
    final_snapshot: MetricsSnapshot,
    resident_after_last: f64,
    tn_ms: f64,
    traced_p50_ms: f64,
    t1_ms: Option<f64>,
    empty_job_us: f64,
    shuffle_mb_per_s: f64,
    kernel_ms: Option<f64>,
    scan_mcells: Option<f64>,
    /// Ops that ran under the spill watermark, and their context's
    /// counters after the last of them.
    spill: Option<(&'a [OpCounters], MetricsSnapshot)>,
}

impl LayerInputs<'_> {
    /// Mean over traced ops: for events that depend on timing or faults
    /// (steals, speculation, fetch failures, evictions), so that a rare one
    /// still shows.
    fn mean_of(&self, f: impl Fn(&OpCounters) -> f64) -> f64 {
        if self.traced.is_empty() {
            return 0.0;
        }
        self.traced.iter().map(f).sum::<f64>() / self.traced.len() as f64
    }

    /// Median over traced ops: for work counts and times. An op that ran a
    /// speculative duplicate does more work than its plan; the health
    /// counts report that, and the median keeps the plan's count.
    fn median_of(&self, f: impl Fn(&OpCounters) -> f64) -> f64 {
        median_over(self.traced, f)
    }

    fn total(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        total_over(self.traced, f)
    }

    /// Every per-layer metric, and the names that do not apply to this
    /// workload (reported as 0).
    fn metrics(&self) -> (Vec<(&'static MetricDef, f64)>, Vec<&'static str>) {
        let cfg = self.cfg;
        let n = cfg.executors as f64;
        let d = |f: fn(&MetricsSnapshot) -> u64| move |c: &OpCounters| f(&c.delta) as f64;
        let busy_total: f64 = self
            .traced
            .iter()
            .map(|c| c.busy_ns.iter().sum::<u64>() as f64 / 1e6)
            .sum();
        let wall_total: f64 = self.traced.iter().map(|c| c.wall_ms).sum();
        let spill_ops = self.spill.map(|(ops, _)| ops);
        let spill_snapshot = self.spill.map(|(_, snapshot)| snapshot);
        let highwater = self.final_snapshot.memory_highwater_bytes as f64;
        let pagerank_details: Vec<&(f64, Vec<f64>)> = self
            .traced
            .iter()
            .filter_map(|c| c.pagerank.as_ref())
            .collect();
        let build: Vec<f64> = pagerank_details.iter().map(|(b, _)| *b).collect();
        let iters: Vec<f64> = pagerank_details
            .iter()
            .flat_map(|(_, it)| it.iter().copied())
            .collect();
        let query = |q: &str| median(&self.tracer.op_durations_ms(q));
        let mut not_applicable = Vec::new();
        let mut na = |name: &'static str, v: Option<f64>| {
            v.unwrap_or_else(|| {
                not_applicable.push(name);
                0.0
            })
        };
        let kernel_ms = na("linalg.kernel_ms", self.kernel_ms);
        let kernel_share = na(
            "linalg.kernel_share",
            self.kernel_ms.map(|k| ratio(k, n * self.tn_ms)),
        );
        let values: Vec<(&str, f64)> = vec![
            ("scheduler.jobs", self.median_of(|c| c.jobs as f64)),
            ("scheduler.stages_run", self.median_of(d(|s| s.stages_run))),
            (
                "scheduler.stages_skipped",
                self.median_of(d(|s| s.stages_skipped)),
            ),
            ("scheduler.tasks_run", self.median_of(d(|s| s.tasks_run))),
            (
                "scheduler.tasks_stolen",
                self.mean_of(d(|s| s.tasks_stolen)),
            ),
            (
                "scheduler.queue_wait_ms",
                self.median_of(|c| c.queue_wait_ms),
            ),
            (
                "scheduler.task_busy_ms",
                self.median_of(|c| c.busy_ns.iter().sum::<u64>() as f64 / 1e6),
            ),
            (
                "scheduler.idle_share",
                1.0 - ratio(busy_total, n * wall_total),
            ),
            (
                "scheduler.busy_skew",
                self.median_of(|c| busy_skew(&c.busy_ns)),
            ),
            ("scheduler.empty_job_us", self.empty_job_us),
            (
                "shuffle.write_bytes",
                self.median_of(d(|s| s.shuffle_write_bytes)),
            ),
            (
                "shuffle.read_bytes",
                self.median_of(d(|s| s.shuffle_read_bytes)),
            ),
            ("shuffle.records", self.median_of(d(|s| s.shuffle_records))),
            (
                "shuffle.fetch_failures",
                self.mean_of(d(|s| s.fetch_failures)),
            ),
            ("shuffle.probe_mb_per_s", self.shuffle_mb_per_s),
            (
                "spill.blocks_spilled",
                na(
                    "spill.blocks_spilled",
                    spill_ops.map(|o| median_over(o, d(|s| s.blocks_spilled))),
                ),
            ),
            (
                "spill.blocks_rehydrated",
                na(
                    "spill.blocks_rehydrated",
                    spill_ops.map(|o| median_over(o, d(|s| s.blocks_rehydrated))),
                ),
            ),
            (
                "spill.write_mib",
                na(
                    "spill.write_mib",
                    spill_ops.map(|o| median_over(o, d(|s| s.spill_bytes)) / MIB),
                ),
            ),
            (
                "spill.write_amplification",
                na(
                    "spill.write_amplification",
                    spill_ops.map(|o| {
                        ratio(
                            total_over(o, |s| s.spill_bytes),
                            total_over(o, |s| s.shuffle_write_bytes),
                        )
                    }),
                ),
            ),
            (
                "spill.rehydrate_ratio",
                na(
                    "spill.rehydrate_ratio",
                    spill_ops.map(|o| {
                        ratio(
                            total_over(o, |s| s.blocks_rehydrated),
                            total_over(o, |s| s.blocks_spilled),
                        )
                    }),
                ),
            ),
            (
                "spill.disk_peak_mib",
                na(
                    "spill.disk_peak_mib",
                    spill_snapshot.map(|s| s.disk_resident_bytes as f64 / MIB),
                ),
            ),
            ("memory.highwater_mib", highwater / MIB),
            (
                "memory.watermark_overshoot_mib",
                na(
                    "memory.watermark_overshoot_mib",
                    spill_snapshot.map(|s| {
                        let over = s.memory_highwater_bytes as f64
                            - cfg.scale.spill_watermark_bytes as f64;
                        over.max(0.0) / MIB
                    }),
                ),
            ),
            ("cache.hits", self.median_of(d(|s| s.cache_hits))),
            ("cache.misses", self.median_of(d(|s| s.cache_misses))),
            (
                "cache.hit_ratio",
                ratio(
                    self.total(|s| s.cache_hits),
                    self.total(|s| s.cache_hits + s.cache_misses),
                ),
            ),
            (
                "cache.recomputations",
                self.mean_of(d(|s| s.recomputations)),
            ),
            (
                "cache.partitions_evicted",
                self.mean_of(d(|s| s.partitions_evicted)),
            ),
            ("cache.resident_mib", self.resident_after_last),
            ("plan.stages_fused", self.median_of(d(|s| s.stages_fused))),
            (
                "plan.shuffles_elided",
                self.median_of(d(|s| s.shuffles_elided)),
            ),
            (
                "plan.partitions_coalesced",
                self.median_of(d(|s| s.partitions_coalesced)),
            ),
            (
                "health.tasks_speculated",
                self.mean_of(d(|s| s.tasks_speculated)),
            ),
            (
                "health.speculation_wins",
                self.mean_of(d(|s| s.speculation_wins)),
            ),
            (
                "health.speculation_win_ratio",
                ratio(
                    self.total(|s| s.speculation_wins),
                    self.total(|s| s.tasks_speculated),
                ),
            ),
            (
                "health.tasks_cancelled",
                self.mean_of(d(|s| s.tasks_cancelled)),
            ),
            (
                "health.watchdog_trips",
                self.mean_of(d(|s| s.watchdog_trips)),
            ),
            (
                "health.heartbeats_missed",
                self.mean_of(d(|s| s.heartbeats_missed)),
            ),
            (
                "health.backoff_ms",
                self.mean_of(d(|s| s.backoff_nanos)) / 1e6,
            ),
            ("linalg.kernel_ms", kernel_ms),
            ("linalg.kernel_share", kernel_share),
            (
                "ml.pagerank_build_ms",
                na("ml.pagerank_build_ms", median(&build)),
            ),
            (
                "ml.pagerank_iter_ms",
                na("ml.pagerank_iter_ms", median(&iters)),
            ),
            ("core.q1_ms", na("core.q1_ms", query("core.q1"))),
            ("core.q2_ms", na("core.q2_ms", query("core.q2"))),
            ("core.q3_ms", na("core.q3_ms", query("core.q3"))),
            ("core.q4_ms", na("core.q4_ms", query("core.q4"))),
            ("core.q5_ms", na("core.q5_ms", query("core.q5"))),
            (
                "bitmask.scan_mcells_per_s",
                na("bitmask.scan_mcells_per_s", self.scan_mcells),
            ),
            (
                "trace.overhead_share",
                ratio(self.traced_p50_ms, self.tn_ms) - 1.0,
            ),
            (
                "scaling.efficiency",
                self.t1_ms.map_or(0.0, |t1| ratio(t1, n * self.tn_ms)),
            ),
        ];
        let metrics = values
            .into_iter()
            .map(|(name, v)| (metrics::find(name).expect("catalogued metric"), v))
            .collect();
        (metrics, not_applicable)
    }
}

/// Median over `ops`, or 0 when there are none.
fn median_over(ops: &[OpCounters], f: impl Fn(&OpCounters) -> f64) -> f64 {
    let xs: Vec<f64> = ops.iter().map(f).collect();
    median(&xs).unwrap_or(0.0)
}

/// Sum of a counter's per-op deltas over `ops`.
fn total_over(ops: &[OpCounters], f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
    ops.iter().map(|c| f(&c.delta)).sum::<u64>() as f64
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Max over mean of per-executor busy time (1 = even); 0 for no work.
fn busy_skew(busy_ns: &[u64]) -> f64 {
    let total: u64 = busy_ns.iter().sum();
    match busy_ns.iter().max() {
        Some(&max) if total > 0 => max as f64 * busy_ns.len() as f64 / total as f64,
        _ => 0.0,
    }
}

/// Returns memory the allocator holds but no longer uses to the kernel,
/// then resets the process's peak-RSS mark to its current RSS. Returns
/// whether the reset worked (Linux only).
fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time; it only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_skew_is_max_over_mean() {
        assert_eq!(busy_skew(&[]), 0.0);
        assert_eq!(busy_skew(&[0, 0]), 0.0);
        assert_eq!(busy_skew(&[5, 5]), 1.0);
        assert_eq!(busy_skew(&[3, 1]), 1.5);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
    }
}
