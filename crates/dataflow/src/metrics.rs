//! Cumulative runtime metrics and per-job stage reports.
//!
//! Two views exist side by side. The *cumulative counters* are per
//! context; experiments take a [`MetricsSnapshot`] before and after a job
//! and subtract. The *job reports* are scoped: the DAG scheduler records
//! one [`JobReport`] per finished job — its stages, per-stage task time,
//! and the peak number of concurrently running stages — which the
//! experiment binaries print to show how the event-driven scheduler
//! overlapped sibling stages.
//!
//! Every counter is declared once, as one row of the `counter_table!`
//! invocation below. A row names the counter's variant and field name,
//! its kind (summed, or a high-water mark), its scope (context-wide only,
//! or also per stage) and its documentation. The table generates the
//! context's storage, [`MetricsSnapshot`] with its subtraction and its
//! [`MetricsSnapshot::fields`] listing, the per-stage [`StageCounters`],
//! and the [`JobReport`] accessors that sum them.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of recent job reports kept per context (iterative
/// workloads run hundreds of jobs; older reports are dropped
/// oldest-first). Override via `SpangleContext::builder()`.
pub(crate) const DEFAULT_JOB_REPORT_HISTORY: usize = 256;

/// How a counter accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Bumped with [`Metrics::add`]; a snapshot difference is the amount
    /// added in between.
    Sum,
    /// A high-water mark raised with [`Metrics::raise`] (`fetch_max`). It
    /// stays monotone, so a snapshot difference is how far the peak rose.
    Max,
}

/// Whether a counter is also kept per stage, in [`StageCounters`] (whose
/// docs give the rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Context-wide only.
    Context,
    /// Also counted per stage run, into the stage and the context together.
    Stage,
    /// Reported per stage as the context-wide activity observed while the
    /// stage's run was in flight.
    Window,
}

/// Generates every counter view from one table: [`MetricField`] (with
/// `ALL`, `name`, `kind` and `scope`), the [`Metrics`] storage and
/// snapshot, [`MetricsSnapshot`] with `Sub` and `fields`, [`StageCounters`]
/// and the summing [`JobReport`] accessors. A row reads
/// `Variant field: Kind, Scope;`, and a stage-scoped row gives the type
/// its stage counter and job accessor use: `Stage(usize)`.
macro_rules! counter_table {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident $field:ident: $kind:ident, $scope:ident $(($sty:ty))?;
    )*) => {
        /// Names of the runtime counters, one per row of the counter table.
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum MetricField {
            $($variant,)*
        }

        impl MetricField {
            /// Every counter, in table order.
            pub(crate) const ALL: &'static [MetricField] = &[$(MetricField::$variant,)*];

            /// The counter's field name in [`MetricsSnapshot`].
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(MetricField::$variant => stringify!($field),)*
                }
            }

            pub(crate) fn kind(self) -> Kind {
                match self {
                    $(MetricField::$variant => Kind::$kind,)*
                }
            }

            pub(crate) fn scope(self) -> Scope {
                match self {
                    $(MetricField::$variant => Scope::$scope,)*
                }
            }
        }

        /// A point-in-time copy of all counters. Subtract two snapshots to
        /// get the cost of one job.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        impl MetricsSnapshot {
            pub(crate) fn get(&self, field: MetricField) -> u64 {
                match field {
                    $(MetricField::$variant => self.$field,)*
                }
            }
        }

        impl std::ops::Sub for MetricsSnapshot {
            type Output = MetricsSnapshot;

            fn sub(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field - rhs.$field,)*
                }
            }
        }

        impl Metrics {
            /// Copies the current counter values.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.counter(MetricField::$variant).load(Ordering::Relaxed),)*
                }
            }
        }

        /// One stage run's share of the stage-scoped counters. Each field
        /// is documented on the [`MetricsSnapshot`] field of the same name.
        ///
        /// Most are counted by the scheduler into the stage and the
        /// context together. Every run of a stage starts from zero — a map
        /// stage's recovery run too, which counts into its stage report
        /// and the snapshot alike, as `stages_run` counts the run itself —
        /// and a skipped stage counts nothing, so a job's [`JobReport`]
        /// sums equal the job's snapshot delta. The spill counters
        /// (`blocks_spilled`, `blocks_rehydrated`, `spill_bytes`) are the
        /// exception: they are the context-wide activity observed while
        /// the run was in flight (the counter when the stage is reported
        /// minus its value when the run started). The block store bumps
        /// them, not the stage, so concurrent stages may both observe the
        /// same spill: the attribution is "activity during the stage", not
        /// strict causality.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StageCounters {
            $($(
                #[doc = concat!("This stage's [`MetricsSnapshot::", stringify!($field), "`].")]
                pub $field: $sty,
            )?)*
        }

        impl StageCounters {
            /// Counts `amount` of a stage-scoped counter.
            pub(crate) fn add(&mut self, field: MetricField, amount: u64) {
                debug_assert_eq!(field.scope(), Scope::Stage, "{}", field.name());
                match field {
                    $($(MetricField::$variant => self.$field += amount as $sty,)?)*
                    _ => unreachable!("{} is not a stage-scoped counter", field.name()),
                }
            }

            /// These counters with the window-scoped ones filled in from
            /// the context's counters `now` and at the run's start.
            pub(crate) fn with_window(
                mut self,
                now: &MetricsSnapshot,
                start: &MetricsSnapshot,
            ) -> Self {
                $($(
                    if MetricField::$variant.scope() == Scope::Window {
                        self.$field = (now.$field - start.$field) as $sty;
                    }
                )?)*
                self
            }

            /// Every stage-scoped counter as `(name, value)`, in table
            /// order; the names are [`MetricsSnapshot`] field names.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$($({
                    let value: $sty = self.$field;
                    (stringify!($field), value as u64)
                },)?)*]
                .into_iter()
            }
        }

        impl JobReport {
            $($(
                #[doc = concat!(
                    "[`StageCounters::", stringify!($field), "`] summed over this job's stages."
                )]
                pub fn $field(&self) -> $sty {
                    self.stages.iter().map(|s| s.counters.$field).sum()
                }
            )?)*
        }
    };
}

counter_table! {
    /// Stages whose tasks actually ran. A map stage's recovery run counts
    /// again.
    StagesRun stages_run: Sum, Context;
    /// Map stages skipped because their shuffle output already existed.
    StagesSkipped stages_skipped: Sum, Context;
    /// Task attempts started (including retries).
    TasksRun tasks_run: Sum, Context;
    /// Task attempts that ran on an executor other than the one their
    /// partition was placed on (work stealing; charged as "remote"). The
    /// context counts an attempt when it starts, its stage when the
    /// driver receives its completion event.
    TasksStolen tasks_stolen: Sum, Stage(usize);
    /// Task attempts re-submitted after a failure.
    TaskRetries task_retries: Sum, Context;
    /// Deep bytes written to the shuffle service.
    ShuffleWriteBytes shuffle_write_bytes: Sum, Context;
    /// Deep bytes fetched from the shuffle service.
    ShuffleReadBytes shuffle_read_bytes: Sum, Context;
    /// Records written to the shuffle service.
    ShuffleRecords shuffle_records: Sum, Context;
    /// Persisted partitions served from the block store.
    CacheHits cache_hits: Sum, Context;
    /// Persisted partitions that had to be (re)computed.
    CacheMisses cache_misses: Sum, Context;
    /// Partitions recomputed due to task retries.
    Recomputations recomputations: Sum, Context;
    /// Bytes replicated to executors by broadcasts.
    BroadcastBytes broadcast_bytes: Sum, Context;
    /// Executors killed (each loss discards the incarnation's shuffle
    /// blocks and cached partitions and seats a replacement).
    ExecutorsLost executors_lost: Sum, Context;
    /// Reduce-side fetches that found a shuffle block lost with its
    /// executor (`TaskError::FetchFailed`); each parked its attempt until
    /// the map output was rebuilt.
    FetchFailures fetch_failures: Sum, Stage(usize);
    /// Map partitions recomputed from lineage to rebuild lost shuffle
    /// output (only the missing partitions re-run, never whole stages).
    /// Per stage, only a recovery run counts them.
    MapPartitionsRecomputed map_partitions_recomputed: Sum, Stage(usize);
    /// Jobs shed by the admission controller (outcome
    /// [`JobOutcome::Rejected`]); nothing of a rejected job ever ran.
    JobsRejected jobs_rejected: Sum, Context;
    /// Jobs whose `run_with_deadline` budget elapsed (outcome
    /// [`JobOutcome::Deadlined`]).
    JobsDeadlined jobs_deadlined: Sum, Context;
    /// Total nanoseconds jobs spent queued for admission before running.
    AdmissionQueueWaitNanos admission_queue_wait_nanos: Sum, Context;
    /// High-water mark of the admission queue length (jobs waiting for
    /// capacity at once).
    AdmissionQueuePeak admission_queue_peak: Max, Context;
    /// Cached partitions dropped by manual eviction
    /// (`evict_cached_partition`, `Rdd::unpersist`).
    PartitionsEvicted partitions_evicted: Sum, Context;
    /// High-water mark of resident cached-partition bytes.
    CacheHighwaterBytes cache_highwater_bytes: Max, Context;
    /// High-water mark of total resident memory (cached partitions plus
    /// shuffle blocks) — the figure the admission controller's
    /// `memory_high_watermark_bytes` bound is compared against.
    MemoryHighwaterBytes memory_highwater_bytes: Max, Context;
    /// Narrow operator chains the planner collapsed into fused streaming
    /// execution (each spans ≥ 2 operators that no longer materialise
    /// intermediate partitions). Every run of a stage counts its chains,
    /// a recovery run too.
    StagesFused stages_fused: Sum, Stage(usize);
    /// Shuffle edges rewritten to narrow pass-throughs because the
    /// map-side parent already carried the target partitioner signature.
    /// Every run of the stage that executes them counts them, a recovery
    /// run too.
    ShufflesElided shuffles_elided: Sum, Stage(usize);
    /// Reduce buckets merged into shared executor tasks at stage launch
    /// because their shuffle bytes fell below the coalescing target
    /// (`num_tasks` minus the task groups scheduled). A recovery run
    /// resubmits single partitions, so it counts none.
    PartitionsCoalesced partitions_coalesced: Sum, Stage(usize);
    /// Speculative duplicate attempts the driver launched: one for each
    /// tail task that ran past its stage's duration-median multiple, and
    /// one for each no-progress watchdog trip (also counted in
    /// `watchdog_trips`).
    TasksSpeculated tasks_speculated: Sum, Stage(usize);
    /// Speculative attempts that finished before the original they
    /// duplicated (the duplicate's result won first-write-wins).
    SpeculationWins speculation_wins: Sum, Stage(usize);
    /// Running task bodies asked to stop early through their
    /// `CancelToken` (speculation losers, job aborts, expired deadlines).
    TasksCancelled tasks_cancelled: Sum, Stage(usize);
    /// Blocks demoted from memory to the on-disk spill tier under memory
    /// pressure (resident cache+shuffle bytes crossed the admission
    /// watermark). Per stage, like the other two spill counters, it is the
    /// context-wide activity while the stage's run was in flight.
    BlocksSpilled blocks_spilled: Sum, Window(usize);
    /// Spilled blocks read back from disk and reinstated in memory on
    /// demand (a reduce fetch or cache read touched cold data). Per stage:
    /// activity during the stage's run.
    BlocksRehydrated blocks_rehydrated: Sum, Window(usize);
    /// Cumulative encoded bytes written to the spill tier (framing
    /// included). Per stage: activity during the stage's run.
    SpillBytes spill_bytes: Sum, Window(u64);
    /// High-water mark of bytes resident in the on-disk spill tier (the
    /// live gauge is `SpangleContext::disk_resident_bytes`).
    DiskResidentBytes disk_resident_bytes: Max, Context;
    /// Heartbeat intervals found missed when the monitor declared a busy
    /// executor lost (each detection adds the full interval count that
    /// crossed the loss threshold).
    HeartbeatsMissed heartbeats_missed: Sum, Context;
    /// Running tasks the no-progress watchdog declared wedged (executor
    /// heartbeating, progress counter frozen) and duplicated through the
    /// speculation path.
    WatchdogTrips watchdog_trips: Sum, Stage(usize);
    /// Executors drained by the failure-rate quarantine (re-quarantines
    /// after a failed canary count again).
    ExecutorsQuarantined executors_quarantined: Sum, Context;
    /// Cumulative nanoseconds of seeded retry backoff scheduled before
    /// re-submitted task attempts (retries and recovery resubmissions).
    BackoffNanos backoff_nanos: Sum, Stage(u64);
}

/// Cumulative counters maintained by the runtime.
#[derive(Debug)]
pub struct Metrics {
    /// One cell per [`MetricField`], indexed by the field.
    counters: [AtomicU64; MetricField::ALL.len()],
    /// Per-job reports, newest last.
    job_reports: Mutex<VecDeque<JobReport>>,
    /// Retained-report cap (oldest dropped beyond it).
    job_report_history: usize,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::with_history(DEFAULT_JOB_REPORT_HISTORY)
    }
}

impl Metrics {
    /// Creates zeroed counters retaining at most `job_report_history` job
    /// reports (oldest dropped first).
    pub(crate) fn with_history(job_report_history: usize) -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            job_reports: Mutex::new(VecDeque::new()),
            job_report_history: job_report_history.max(1),
        }
    }

    pub(crate) fn add(&self, field: MetricField, amount: u64) {
        debug_assert_eq!(field.kind(), Kind::Sum, "{}", field.name());
        self.counter(field).fetch_add(amount, Ordering::Relaxed);
    }

    /// Raises a high-water-mark field to `value` if it is higher than
    /// everything observed so far (the field stays monotone, so snapshot
    /// subtraction is well defined).
    pub(crate) fn raise(&self, field: MetricField, value: u64) {
        debug_assert_eq!(field.kind(), Kind::Max, "{}", field.name());
        self.counter(field).fetch_max(value, Ordering::Relaxed);
    }

    fn counter(&self, field: MetricField) -> &AtomicU64 {
        &self.counters[field as usize]
    }

    /// Records a finished job's report.
    pub(crate) fn record_job(&self, report: JobReport) {
        let mut reports = self.job_reports.lock();
        while reports.len() >= self.job_report_history {
            reports.pop_front();
        }
        reports.push_back(report);
    }

    /// All retained job reports, oldest first.
    pub fn job_reports(&self) -> Vec<JobReport> {
        self.job_reports.lock().iter().cloned().collect()
    }

    /// The most recent job report, if any job finished yet.
    pub fn last_job_report(&self) -> Option<JobReport> {
        self.job_reports.lock().back().cloned()
    }
}

impl MetricsSnapshot {
    /// Every counter as `(name, value)`, in table order; each name is the
    /// field's name. The experiment binaries print and export these.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        MetricField::ALL.iter().map(|&f| (f.name(), self.get(f)))
    }
}

/// How one stage of a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage's tasks ran in this job.
    Ran,
    /// The stage's shuffle output already existed (or another concurrent
    /// job produced it); nothing ran here.
    Skipped,
    /// The stage was still in flight when its job aborted: some of its
    /// tasks may have run (their time is accounted), but the stage never
    /// completed.
    Aborted,
}

/// How a whole job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every stage completed and the action's results were returned.
    Succeeded,
    /// Some task exhausted its attempts (or the cluster shut down) and the
    /// job returned a `JobError`. Stages in flight at that moment appear
    /// in the report as [`StageOutcome::Aborted`].
    Aborted,
    /// The admission controller shed the job: the system was saturated
    /// (concurrency bound or memory high-water mark) and the job's
    /// priority was below the shed threshold, or its tasks did not fit the
    /// per-priority queue bound. Nothing of the job ever ran.
    Rejected,
    /// The job's `run_with_deadline` budget elapsed before it finished.
    /// If it was already running it was aborted through the normal abort
    /// path (partial shuffle output abandoned); if it was still queued for
    /// admission it never ran at all.
    Deadlined,
}

/// Per-stage accounting of one job.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Context-wide stage id (allocated when the stage was scheduled).
    pub stage_id: usize,
    /// The shuffle this map stage feeds, `None` for the result stage.
    pub shuffle_id: Option<usize>,
    /// Number of tasks the stage owns.
    pub num_tasks: usize,
    /// Whether the stage ran or was skipped.
    pub outcome: StageOutcome,
    /// Total CPU time spent in this stage's task bodies, summed over
    /// attempts, in nanoseconds.
    pub task_nanos: u64,
    /// Wall-clock time from first submission to last task completion, in
    /// nanoseconds. Zero for skipped stages.
    pub wall_nanos: u64,
    /// The stage-scoped counters of the stage's last run (all zero for a
    /// skipped stage).
    pub counters: StageCounters,
}

/// Scheduler-level accounting of one finished job.
///
/// Recorded for *every* job that left the scheduler — succeeded or
/// aborted — so `last_job_report()` after a failed action describes that
/// failed job (outcome [`JobOutcome::Aborted`], in-flight stages
/// [`StageOutcome::Aborted`]) rather than silently showing the previous
/// job's report.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Context-wide job id.
    pub job_id: usize,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Priority the job was submitted with (higher runs first; the
    /// default FIFO pool is 0).
    pub priority: i32,
    /// One entry per stage the job touched, in completion order.
    pub stages: Vec<StageReport>,
    /// Peak number of stages whose tasks were in flight simultaneously.
    pub max_concurrent_stages: usize,
    /// Nanoseconds each executor spent running this job's task bodies,
    /// indexed by executor id (built from task completion events, so it is
    /// exact per job even when jobs run concurrently).
    pub executor_busy_nanos: Vec<u64>,
    /// Nanoseconds this job's task attempts spent queued on executors
    /// before starting, summed over attempts. Under a shared scheduler
    /// this is where priority fairness shows: a high-priority job's queue
    /// wait stays bounded while lower-priority traffic absorbs the
    /// backlog.
    pub queue_wait_nanos: u64,
    /// Nanoseconds the job waited in the scheduler's admission queue
    /// before it was admitted (zero when capacity was free at submission,
    /// or when the job was shed without ever being queued).
    pub admission_wait_nanos: u64,
    /// End-to-end wall-clock time of the job, in nanoseconds.
    pub wall_nanos: u64,
}

impl JobReport {
    /// Stages that actually ran (not skipped).
    pub fn stages_run(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.outcome == StageOutcome::Ran)
            .count()
    }

    /// Stages satisfied from existing shuffle output.
    pub fn stages_skipped(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.outcome == StageOutcome::Skipped)
            .count()
    }

    /// Stages still in flight when the job aborted.
    pub fn stages_aborted(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.outcome == StageOutcome::Aborted)
            .count()
    }

    /// Busy-time imbalance across executors: max/mean of
    /// `executor_busy_nanos` (1.0 = perfectly even, higher = more skew).
    /// `None` when the job did no executor work.
    pub fn busy_skew(&self) -> Option<f64> {
        let max = *self.executor_busy_nanos.iter().max()?;
        let total: u64 = self.executor_busy_nanos.iter().sum();
        if total == 0 {
            return None;
        }
        let mean = total as f64 / self.executor_busy_nanos.len() as f64;
        Some(max as f64 / mean)
    }
}

impl std::fmt::Display for JobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {}{}: {} stages ({} run, {} skipped{}), max {} concurrent, {} stolen, queue wait {:.2} ms, {:.2} ms wall{}",
            self.job_id,
            if self.priority != 0 {
                format!(" (prio {})", self.priority)
            } else {
                String::new()
            },
            self.stages.len(),
            self.stages_run(),
            self.stages_skipped(),
            if self.stages_aborted() != 0 {
                format!(", {} aborted", self.stages_aborted())
            } else {
                String::new()
            },
            self.max_concurrent_stages,
            self.tasks_stolen(),
            self.queue_wait_nanos as f64 / 1e6,
            self.wall_nanos as f64 / 1e6,
            match self.outcome {
                JobOutcome::Succeeded => "",
                JobOutcome::Aborted => " [ABORTED]",
                JobOutcome::Rejected => " [REJECTED]",
                JobOutcome::Deadlined => " [DEADLINED]",
            },
        )?;
        if self.admission_wait_nanos != 0 {
            write!(
                f,
                "\n  admission wait {:.2} ms",
                self.admission_wait_nanos as f64 / 1e6
            )?;
        }
        if self.stages_fused() != 0
            || self.shuffles_elided() != 0
            || self.partitions_coalesced() != 0
        {
            write!(
                f,
                "\n  planner: {} chains fused, {} shuffles elided, {} partitions coalesced",
                self.stages_fused(),
                self.shuffles_elided(),
                self.partitions_coalesced(),
            )?;
        }
        if self.tasks_speculated() != 0 || self.tasks_cancelled() != 0 {
            write!(
                f,
                "\n  speculation: {} launched, {} won, {} tasks cancelled",
                self.tasks_speculated(),
                self.speculation_wins(),
                self.tasks_cancelled(),
            )?;
        }
        if self.blocks_spilled() != 0 || self.blocks_rehydrated() != 0 {
            write!(
                f,
                "\n  spill: {} blocks out, {} back, {:.1} KiB written",
                self.blocks_spilled(),
                self.blocks_rehydrated(),
                self.spill_bytes() as f64 / 1024.0,
            )?;
        }
        if self.fetch_failures() != 0 || self.map_partitions_recomputed() != 0 {
            write!(
                f,
                "\n  recovery: {} fetch failures, {} map partitions recomputed",
                self.fetch_failures(),
                self.map_partitions_recomputed(),
            )?;
        }
        if self.watchdog_trips() != 0 || self.backoff_nanos() != 0 {
            write!(
                f,
                "\n  health: {} watchdog trips, {:.2} ms backoff",
                self.watchdog_trips(),
                self.backoff_nanos() as f64 / 1e6,
            )?;
        }
        for s in &self.stages {
            let kind = match s.shuffle_id {
                Some(id) => format!("map(shuffle {id})"),
                None => "result".to_string(),
            };
            match s.outcome {
                StageOutcome::Ran => {
                    write!(
                        f,
                        "\n  stage {:>3} {kind:<16} {:>3} tasks ({:>2} stolen)  task {:>8.2} ms  wall {:>8.2} ms",
                        s.stage_id,
                        s.num_tasks,
                        s.counters.tasks_stolen,
                        s.task_nanos as f64 / 1e6,
                        s.wall_nanos as f64 / 1e6,
                    )?;
                    if s.counters.map_partitions_recomputed != 0 {
                        write!(
                            f,
                            "  [recovered {} maps]",
                            s.counters.map_partitions_recomputed
                        )?;
                    }
                    if s.counters.fetch_failures != 0 {
                        write!(f, "  [{} fetch failures]", s.counters.fetch_failures)?;
                    }
                }
                StageOutcome::Skipped => {
                    write!(f, "\n  stage {:>3} {kind:<16} skipped", s.stage_id)?
                }
                StageOutcome::Aborted => write!(
                    f,
                    "\n  stage {:>3} {kind:<16} aborted after {:>8.2} ms task time",
                    s.stage_id,
                    s.task_nanos as f64 / 1e6,
                )?,
            }
        }
        if let Some(skew) = self.busy_skew() {
            let busy: Vec<String> = self
                .executor_busy_nanos
                .iter()
                .map(|n| format!("{:.2}", *n as f64 / 1e6))
                .collect();
            write!(
                f,
                "\n  executor busy ms: [{}]  skew {skew:.2}",
                busy.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_isolates_one_job() {
        let m = Metrics::default();
        m.add(MetricField::TasksRun, 3);
        let before = m.snapshot();
        m.add(MetricField::TasksRun, 5);
        m.add(MetricField::ShuffleWriteBytes, 1024);
        let delta = m.snapshot() - before;
        assert_eq!(delta.tasks_run, 5);
        assert_eq!(delta.shuffle_write_bytes, 1024);
        assert_eq!(delta.stages_run, 0);

        // Every counter maps to its own cell and its own snapshot field:
        // give field `i` the value `i + 1` and read each back by name.
        let m = Metrics::default();
        for (i, &field) in MetricField::ALL.iter().enumerate() {
            match field.kind() {
                Kind::Sum => m.add(field, i as u64 + 1),
                Kind::Max => m.raise(field, i as u64 + 1),
            }
        }
        let snap = m.snapshot();
        let fields: Vec<(&str, u64)> = snap.fields().collect();
        let expected: Vec<(&str, u64)> = MetricField::ALL
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name(), i as u64 + 1))
            .collect();
        assert_eq!(fields, expected);
        let names: std::collections::HashSet<&str> = fields.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), MetricField::ALL.len(), "names are unique");
        // The names are the snapshot's own field names, in order: its
        // derived Debug output prints each field as `name: value`.
        let listed: Vec<String> = fields.iter().map(|(n, v)| format!("{n}: {v}")).collect();
        assert_eq!(
            format!("{snap:?}"),
            format!("MetricsSnapshot {{ {} }}", listed.join(", "))
        );

        // The stage-scoped rows are exactly the fields of StageCounters.
        let mut stage = StageCounters::default();
        for &field in MetricField::ALL {
            if field.scope() == Scope::Stage {
                stage.add(field, snap.get(field));
            }
        }
        let stage = stage.with_window(&snap, &MetricsSnapshot::default());
        let stage_fields: Vec<(&str, u64)> = stage.fields().collect();
        let expected: Vec<(&str, u64)> = fields
            .iter()
            .zip(MetricField::ALL)
            .filter(|(_, f)| f.scope() != Scope::Context)
            .map(|(&pair, _)| pair)
            .collect();
        assert_eq!(stage_fields, expected);
    }

    fn empty_report(job_id: usize) -> JobReport {
        JobReport {
            job_id,
            outcome: JobOutcome::Succeeded,
            priority: 0,
            stages: Vec::new(),
            max_concurrent_stages: 1,
            executor_busy_nanos: Vec::new(),
            queue_wait_nanos: 0,
            admission_wait_nanos: 0,
            wall_nanos: 0,
        }
    }

    #[test]
    fn job_reports_are_capped_and_ordered() {
        let m = Metrics::default();
        for id in 0..(DEFAULT_JOB_REPORT_HISTORY + 10) {
            m.record_job(empty_report(id));
        }
        let reports = m.job_reports();
        assert_eq!(reports.len(), DEFAULT_JOB_REPORT_HISTORY);
        assert_eq!(reports.first().unwrap().job_id, 10);
        assert_eq!(
            m.last_job_report().unwrap().job_id,
            DEFAULT_JOB_REPORT_HISTORY + 9
        );
    }

    #[test]
    fn history_depth_is_configurable() {
        let m = Metrics::with_history(3);
        for id in 0..10 {
            m.record_job(empty_report(id));
        }
        let reports = m.job_reports();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports.first().unwrap().job_id, 7);
        assert_eq!(m.last_job_report().unwrap().job_id, 9);
    }

    #[test]
    fn report_counts_run_and_skipped_stages() {
        let stage = |outcome| StageReport {
            stage_id: 0,
            shuffle_id: None,
            num_tasks: 2,
            outcome,
            task_nanos: 0,
            wall_nanos: 0,
            counters: StageCounters {
                tasks_stolen: 1,
                ..StageCounters::default()
            },
        };
        let report = JobReport {
            job_id: 1,
            outcome: JobOutcome::Succeeded,
            priority: 0,
            stages: vec![
                stage(StageOutcome::Ran),
                stage(StageOutcome::Skipped),
                stage(StageOutcome::Ran),
            ],
            max_concurrent_stages: 2,
            executor_busy_nanos: vec![3_000_000, 1_000_000],
            queue_wait_nanos: 0,
            admission_wait_nanos: 0,
            wall_nanos: 0,
        };
        assert_eq!(report.stages_run(), 2);
        assert_eq!(report.stages_skipped(), 1);
        assert_eq!(report.stages_aborted(), 0);
        assert_eq!(report.tasks_stolen(), 3);
        let skew = report.busy_skew().unwrap();
        assert!((skew - 1.5).abs() < 1e-9, "3M vs mean 2M, skew was {skew}");
        let rendered = format!("{report}");
        assert!(rendered.contains("max 2 concurrent"));
        assert!(rendered.contains("3 stolen"));
        assert!(rendered.contains("executor busy ms"));
        assert!(!rendered.contains("ABORTED"));
    }

    #[test]
    fn aborted_stages_count_separately_from_skipped() {
        let stage = |outcome| StageReport {
            stage_id: 0,
            shuffle_id: Some(1),
            num_tasks: 4,
            outcome,
            task_nanos: 5_000_000,
            wall_nanos: 0,
            counters: StageCounters {
                stages_fused: 1,
                tasks_speculated: 1,
                speculation_wins: 1,
                tasks_cancelled: 1,
                blocks_spilled: 2,
                blocks_rehydrated: 1,
                spill_bytes: 4096,
                watchdog_trips: 1,
                backoff_nanos: 2_000_000,
                ..StageCounters::default()
            },
        };
        let report = JobReport {
            job_id: 2,
            outcome: JobOutcome::Aborted,
            priority: 3,
            stages: vec![stage(StageOutcome::Ran), stage(StageOutcome::Aborted)],
            max_concurrent_stages: 1,
            executor_busy_nanos: vec![10_000_000],
            queue_wait_nanos: 2_000_000,
            admission_wait_nanos: 0,
            wall_nanos: 0,
        };
        assert_eq!(report.stages_run(), 1);
        assert_eq!(report.stages_skipped(), 0, "aborted is not skipped");
        assert_eq!(report.stages_aborted(), 1);
        let rendered = format!("{report}");
        assert!(rendered.contains("ABORTED"));
        assert!(rendered.contains("1 aborted"));
        assert!(rendered.contains("prio 3"));
        assert!(rendered.contains("aborted after"));
        assert_eq!(report.stages_fused(), 2);
        assert!(rendered.contains("planner: 2 chains fused"));
        assert_eq!(report.tasks_speculated(), 2);
        assert_eq!(report.speculation_wins(), 2);
        assert_eq!(report.tasks_cancelled(), 2);
        assert!(rendered.contains("speculation: 2 launched, 2 won, 2 tasks cancelled"));
        assert_eq!(report.watchdog_trips(), 2);
        assert_eq!(report.backoff_nanos(), 4_000_000);
        assert!(rendered.contains("health: 2 watchdog trips, 4.00 ms backoff"));
    }

    #[test]
    fn raise_keeps_high_water_marks_monotone() {
        let m = Metrics::default();
        m.raise(MetricField::CacheHighwaterBytes, 100);
        m.raise(MetricField::CacheHighwaterBytes, 40);
        m.raise(MetricField::MemoryHighwaterBytes, 250);
        m.raise(MetricField::AdmissionQueuePeak, 3);
        m.raise(MetricField::AdmissionQueuePeak, 2);
        let snap = m.snapshot();
        assert_eq!(
            snap.cache_highwater_bytes, 100,
            "lower values never regress"
        );
        assert_eq!(snap.memory_highwater_bytes, 250);
        assert_eq!(snap.admission_queue_peak, 3);
    }

    #[test]
    fn rejected_and_deadlined_reports_render_their_markers() {
        let rejected = JobReport {
            outcome: JobOutcome::Rejected,
            ..empty_report(4)
        };
        assert!(format!("{rejected}").contains("[REJECTED]"));
        let deadlined = JobReport {
            outcome: JobOutcome::Deadlined,
            admission_wait_nanos: 3_000_000,
            ..empty_report(5)
        };
        let rendered = format!("{deadlined}");
        assert!(rendered.contains("[DEADLINED]"));
        assert!(rendered.contains("admission wait 3.00 ms"));
    }

    #[test]
    fn busy_skew_is_none_for_idle_jobs() {
        let report = JobReport {
            executor_busy_nanos: vec![0, 0],
            ..empty_report(0)
        };
        assert_eq!(report.busy_skew(), None);
    }
}
