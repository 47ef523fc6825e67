//! Cumulative runtime metrics and per-job stage reports.
//!
//! Two views exist side by side. The *cumulative counters* are per
//! context; experiments take a [`MetricsSnapshot`] before and after a job
//! and subtract. The *job reports* are scoped: the DAG scheduler records
//! one [`JobReport`] per finished job — its stages, per-stage task time,
//! and the peak number of concurrently running stages — which the
//! experiment binaries print to show how the event-driven scheduler
//! overlapped sibling stages.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of recent job reports kept per context (iterative
/// workloads run hundreds of jobs; older reports are dropped
/// oldest-first). Override via `SpangleContext::builder()`.
pub(crate) const DEFAULT_JOB_REPORT_HISTORY: usize = 256;

/// Cumulative counters maintained by the runtime.
#[derive(Debug)]
pub struct Metrics {
    pub(crate) stages_run: AtomicU64,
    pub(crate) stages_skipped: AtomicU64,
    pub(crate) tasks_run: AtomicU64,
    pub(crate) tasks_stolen: AtomicU64,
    pub(crate) task_retries: AtomicU64,
    pub(crate) shuffle_write_bytes: AtomicU64,
    pub(crate) shuffle_read_bytes: AtomicU64,
    pub(crate) shuffle_records: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) recomputations: AtomicU64,
    pub(crate) broadcast_bytes: AtomicU64,
    pub(crate) executors_lost: AtomicU64,
    pub(crate) fetch_failures: AtomicU64,
    pub(crate) map_partitions_recomputed: AtomicU64,
    pub(crate) jobs_rejected: AtomicU64,
    pub(crate) jobs_deadlined: AtomicU64,
    pub(crate) admission_queue_wait_nanos: AtomicU64,
    pub(crate) admission_queue_peak: AtomicU64,
    pub(crate) partitions_evicted: AtomicU64,
    pub(crate) cache_highwater_bytes: AtomicU64,
    pub(crate) memory_highwater_bytes: AtomicU64,
    pub(crate) stages_fused: AtomicU64,
    pub(crate) shuffles_elided: AtomicU64,
    pub(crate) partitions_coalesced: AtomicU64,
    pub(crate) tasks_speculated: AtomicU64,
    pub(crate) speculation_wins: AtomicU64,
    pub(crate) tasks_cancelled: AtomicU64,
    pub(crate) blocks_spilled: AtomicU64,
    pub(crate) blocks_rehydrated: AtomicU64,
    pub(crate) spill_bytes: AtomicU64,
    pub(crate) disk_resident_bytes: AtomicU64,
    pub(crate) heartbeats_missed: AtomicU64,
    pub(crate) watchdog_trips: AtomicU64,
    pub(crate) executors_quarantined: AtomicU64,
    pub(crate) backoff_nanos: AtomicU64,
    /// Highest number of stages ever running concurrently in one job.
    max_concurrent_stages: AtomicU64,
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
            stages_run: AtomicU64::new(0),
            stages_skipped: AtomicU64::new(0),
            tasks_run: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            task_retries: AtomicU64::new(0),
            shuffle_write_bytes: AtomicU64::new(0),
            shuffle_read_bytes: AtomicU64::new(0),
            shuffle_records: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            recomputations: AtomicU64::new(0),
            broadcast_bytes: AtomicU64::new(0),
            executors_lost: AtomicU64::new(0),
            fetch_failures: AtomicU64::new(0),
            map_partitions_recomputed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_deadlined: AtomicU64::new(0),
            admission_queue_wait_nanos: AtomicU64::new(0),
            admission_queue_peak: AtomicU64::new(0),
            partitions_evicted: AtomicU64::new(0),
            cache_highwater_bytes: AtomicU64::new(0),
            memory_highwater_bytes: AtomicU64::new(0),
            stages_fused: AtomicU64::new(0),
            shuffles_elided: AtomicU64::new(0),
            partitions_coalesced: AtomicU64::new(0),
            tasks_speculated: AtomicU64::new(0),
            speculation_wins: AtomicU64::new(0),
            tasks_cancelled: AtomicU64::new(0),
            blocks_spilled: AtomicU64::new(0),
            blocks_rehydrated: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            disk_resident_bytes: AtomicU64::new(0),
            heartbeats_missed: AtomicU64::new(0),
            watchdog_trips: AtomicU64::new(0),
            executors_quarantined: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
            max_concurrent_stages: AtomicU64::new(0),
            job_reports: Mutex::new(VecDeque::new()),
            job_report_history: job_report_history.max(1),
        }
    }

    pub(crate) fn add(&self, field: MetricField, amount: u64) {
        self.counter(field).fetch_add(amount, Ordering::Relaxed);
    }

    /// Raises a high-water-mark field to `value` if it is higher than
    /// everything observed so far (the field stays monotone, so snapshot
    /// subtraction is well defined).
    pub(crate) fn raise(&self, field: MetricField, value: u64) {
        self.counter(field).fetch_max(value, Ordering::Relaxed);
    }

    fn counter(&self, field: MetricField) -> &AtomicU64 {
        match field {
            MetricField::StagesRun => &self.stages_run,
            MetricField::StagesSkipped => &self.stages_skipped,
            MetricField::TasksRun => &self.tasks_run,
            MetricField::TasksStolen => &self.tasks_stolen,
            MetricField::TaskRetries => &self.task_retries,
            MetricField::ShuffleWriteBytes => &self.shuffle_write_bytes,
            MetricField::ShuffleReadBytes => &self.shuffle_read_bytes,
            MetricField::ShuffleRecords => &self.shuffle_records,
            MetricField::CacheHits => &self.cache_hits,
            MetricField::CacheMisses => &self.cache_misses,
            MetricField::Recomputations => &self.recomputations,
            MetricField::BroadcastBytes => &self.broadcast_bytes,
            MetricField::ExecutorsLost => &self.executors_lost,
            MetricField::FetchFailures => &self.fetch_failures,
            MetricField::MapPartitionsRecomputed => &self.map_partitions_recomputed,
            MetricField::JobsRejected => &self.jobs_rejected,
            MetricField::JobsDeadlined => &self.jobs_deadlined,
            MetricField::AdmissionQueueWaitNanos => &self.admission_queue_wait_nanos,
            MetricField::AdmissionQueuePeak => &self.admission_queue_peak,
            MetricField::PartitionsEvicted => &self.partitions_evicted,
            MetricField::CacheHighwaterBytes => &self.cache_highwater_bytes,
            MetricField::MemoryHighwaterBytes => &self.memory_highwater_bytes,
            MetricField::StagesFused => &self.stages_fused,
            MetricField::ShufflesElided => &self.shuffles_elided,
            MetricField::PartitionsCoalesced => &self.partitions_coalesced,
            MetricField::TasksSpeculated => &self.tasks_speculated,
            MetricField::SpeculationWins => &self.speculation_wins,
            MetricField::TasksCancelled => &self.tasks_cancelled,
            MetricField::BlocksSpilled => &self.blocks_spilled,
            MetricField::BlocksRehydrated => &self.blocks_rehydrated,
            MetricField::SpillBytes => &self.spill_bytes,
            MetricField::DiskResidentBytes => &self.disk_resident_bytes,
            MetricField::HeartbeatsMissed => &self.heartbeats_missed,
            MetricField::WatchdogTrips => &self.watchdog_trips,
            MetricField::ExecutorsQuarantined => &self.executors_quarantined,
            MetricField::BackoffNanos => &self.backoff_nanos,
        }
    }

    /// Records a finished job's report, raising the context-wide
    /// concurrent-stage high-water mark.
    pub(crate) fn record_job(&self, report: JobReport) {
        self.max_concurrent_stages
            .fetch_max(report.max_concurrent_stages as u64, Ordering::Relaxed);
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

    /// Copies the current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages_run: self.stages_run.load(Ordering::Relaxed),
            stages_skipped: self.stages_skipped.load(Ordering::Relaxed),
            tasks_run: self.tasks_run.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            task_retries: self.task_retries.load(Ordering::Relaxed),
            shuffle_write_bytes: self.shuffle_write_bytes.load(Ordering::Relaxed),
            shuffle_read_bytes: self.shuffle_read_bytes.load(Ordering::Relaxed),
            shuffle_records: self.shuffle_records.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            recomputations: self.recomputations.load(Ordering::Relaxed),
            broadcast_bytes: self.broadcast_bytes.load(Ordering::Relaxed),
            executors_lost: self.executors_lost.load(Ordering::Relaxed),
            fetch_failures: self.fetch_failures.load(Ordering::Relaxed),
            map_partitions_recomputed: self.map_partitions_recomputed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_deadlined: self.jobs_deadlined.load(Ordering::Relaxed),
            admission_queue_wait_nanos: self.admission_queue_wait_nanos.load(Ordering::Relaxed),
            admission_queue_peak: self.admission_queue_peak.load(Ordering::Relaxed),
            partitions_evicted: self.partitions_evicted.load(Ordering::Relaxed),
            cache_highwater_bytes: self.cache_highwater_bytes.load(Ordering::Relaxed),
            memory_highwater_bytes: self.memory_highwater_bytes.load(Ordering::Relaxed),
            stages_fused: self.stages_fused.load(Ordering::Relaxed),
            shuffles_elided: self.shuffles_elided.load(Ordering::Relaxed),
            partitions_coalesced: self.partitions_coalesced.load(Ordering::Relaxed),
            tasks_speculated: self.tasks_speculated.load(Ordering::Relaxed),
            speculation_wins: self.speculation_wins.load(Ordering::Relaxed),
            tasks_cancelled: self.tasks_cancelled.load(Ordering::Relaxed),
            blocks_spilled: self.blocks_spilled.load(Ordering::Relaxed),
            blocks_rehydrated: self.blocks_rehydrated.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            disk_resident_bytes: self.disk_resident_bytes.load(Ordering::Relaxed),
            heartbeats_missed: self.heartbeats_missed.load(Ordering::Relaxed),
            watchdog_trips: self.watchdog_trips.load(Ordering::Relaxed),
            executors_quarantined: self.executors_quarantined.load(Ordering::Relaxed),
            backoff_nanos: self.backoff_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Counter names used internally when bumping [`Metrics`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum MetricField {
    StagesRun,
    StagesSkipped,
    TasksRun,
    TasksStolen,
    TaskRetries,
    ShuffleWriteBytes,
    ShuffleReadBytes,
    ShuffleRecords,
    CacheHits,
    CacheMisses,
    Recomputations,
    BroadcastBytes,
    ExecutorsLost,
    FetchFailures,
    MapPartitionsRecomputed,
    JobsRejected,
    JobsDeadlined,
    AdmissionQueueWaitNanos,
    AdmissionQueuePeak,
    PartitionsEvicted,
    CacheHighwaterBytes,
    MemoryHighwaterBytes,
    StagesFused,
    ShufflesElided,
    PartitionsCoalesced,
    TasksSpeculated,
    SpeculationWins,
    TasksCancelled,
    BlocksSpilled,
    BlocksRehydrated,
    SpillBytes,
    DiskResidentBytes,
    HeartbeatsMissed,
    WatchdogTrips,
    ExecutorsQuarantined,
    BackoffNanos,
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
    /// Task attempts of this stage that ran on an executor other than the
    /// one their partition was placed on (stolen, i.e. charged as
    /// "remote"). Zero when locality held for every attempt.
    pub tasks_stolen: usize,
    /// Whether the stage ran or was skipped.
    pub outcome: StageOutcome,
    /// Total CPU time spent in this stage's task bodies, summed over
    /// attempts, in nanoseconds.
    pub task_nanos: u64,
    /// Wall-clock time from first submission to last task completion, in
    /// nanoseconds. Zero for skipped stages.
    pub wall_nanos: u64,
    /// `TaskError::FetchFailed` observations by this stage's tasks: each is
    /// a reduce-side attempt that found a parent shuffle block lost with
    /// its executor and was parked until the map output was rebuilt.
    pub fetch_failures: usize,
    /// Map partitions of this stage recomputed from lineage during a
    /// recovery run (zero on the stage's first, full run: the counter
    /// marks re-runs triggered by fetch failures downstream).
    pub map_partitions_recomputed: usize,
    /// Narrow operator chains the planner collapsed into fused streaming
    /// execution inside this stage's task bodies (each chain spans ≥ 2
    /// operators that no longer materialise intermediate partitions).
    pub stages_fused: usize,
    /// Shuffle edges the planner rewrote to narrow pass-throughs that
    /// this stage executes locally (the map-side parent already carried
    /// the target partitioner signature).
    pub shuffles_elided: usize,
    /// Reduce buckets this stage merged into shared tasks at launch
    /// because their recorded shuffle bytes fell below the coalescing
    /// target: `num_tasks` minus the task groups actually scheduled.
    pub partitions_coalesced: usize,
    /// Speculative duplicate attempts launched for this stage's tail
    /// tasks (originals that ran past the stage's duration-median
    /// multiple).
    pub tasks_speculated: usize,
    /// Speculative attempts of this stage that completed before the
    /// original they duplicated.
    pub speculation_wins: usize,
    /// Task attempts of this stage asked to stop early through their
    /// `CancelToken` (speculation losers, aborts, expired deadlines).
    pub tasks_cancelled: usize,
    /// Blocks the tiered store demoted to the on-disk spill tier while
    /// this stage ran. Spilling is context-wide, so concurrent stages may
    /// both observe the same pressure; the attribution is "activity during
    /// the stage", not strict causality.
    pub blocks_spilled: usize,
    /// Spilled blocks promoted back to memory while this stage ran
    /// (reduce fetches or cache reads touching cold data).
    pub blocks_rehydrated: usize,
    /// Encoded bytes written to the spill tier while this stage ran.
    pub spill_bytes: u64,
    /// No-progress watchdog trips against this stage's running attempts:
    /// each launched a speculation-style duplicate of a task whose
    /// executor still heartbeated but whose progress counter was frozen.
    pub watchdog_trips: usize,
    /// Nanoseconds of seeded retry backoff scheduled before this stage's
    /// re-submitted attempts (retries and recovery resubmissions).
    pub backoff_nanos: u64,
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

    /// Task attempts of this job that ran away from their placed executor.
    pub fn tasks_stolen(&self) -> usize {
        self.stages.iter().map(|s| s.tasks_stolen).sum()
    }

    /// Reduce-side attempts of this job that observed a lost shuffle block
    /// (`TaskError::FetchFailed`) and waited out a map recovery.
    pub fn fetch_failures(&self) -> usize {
        self.stages.iter().map(|s| s.fetch_failures).sum()
    }

    /// Map partitions this job recomputed from lineage to replace shuffle
    /// output lost with a dead executor.
    pub fn map_partitions_recomputed(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.map_partitions_recomputed)
            .sum()
    }

    /// Narrow operator chains the planner fused across this job's stages.
    pub fn stages_fused(&self) -> usize {
        self.stages.iter().map(|s| s.stages_fused).sum()
    }

    /// Shuffle edges the planner elided across this job's stages.
    pub fn shuffles_elided(&self) -> usize {
        self.stages.iter().map(|s| s.shuffles_elided).sum()
    }

    /// Reduce buckets merged into shared tasks across this job's stages.
    pub fn partitions_coalesced(&self) -> usize {
        self.stages.iter().map(|s| s.partitions_coalesced).sum()
    }

    /// Speculative duplicate attempts launched across this job's stages.
    pub fn tasks_speculated(&self) -> usize {
        self.stages.iter().map(|s| s.tasks_speculated).sum()
    }

    /// Speculative attempts that beat the original across this job's
    /// stages.
    pub fn speculation_wins(&self) -> usize {
        self.stages.iter().map(|s| s.speculation_wins).sum()
    }

    /// Task attempts of this job cancelled through their token.
    pub fn tasks_cancelled(&self) -> usize {
        self.stages.iter().map(|s| s.tasks_cancelled).sum()
    }

    /// Blocks demoted to the on-disk spill tier while this job's stages
    /// ran (see [`StageReport::blocks_spilled`] for attribution caveats).
    pub fn blocks_spilled(&self) -> usize {
        self.stages.iter().map(|s| s.blocks_spilled).sum()
    }

    /// Spilled blocks promoted back to memory while this job's stages ran.
    pub fn blocks_rehydrated(&self) -> usize {
        self.stages.iter().map(|s| s.blocks_rehydrated).sum()
    }

    /// Encoded bytes written to the spill tier while this job's stages ran.
    pub fn spill_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.spill_bytes).sum()
    }

    /// No-progress watchdog trips across this job's stages (each
    /// duplicated a wedged-looking task through the speculation path).
    pub fn watchdog_trips(&self) -> usize {
        self.stages.iter().map(|s| s.watchdog_trips).sum()
    }

    /// Nanoseconds of seeded retry backoff scheduled across this job's
    /// re-submitted attempts.
    pub fn backoff_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.backoff_nanos).sum()
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
                        s.tasks_stolen,
                        s.task_nanos as f64 / 1e6,
                        s.wall_nanos as f64 / 1e6,
                    )?;
                    if s.map_partitions_recomputed != 0 {
                        write!(f, "  [recovered {} maps]", s.map_partitions_recomputed)?;
                    }
                    if s.fetch_failures != 0 {
                        write!(f, "  [{} fetch failures]", s.fetch_failures)?;
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

/// A point-in-time copy of all counters. Subtract two snapshots to get the
/// cost of one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Stages whose tasks actually ran.
    pub stages_run: u64,
    /// Map stages skipped because their shuffle output already existed.
    pub stages_skipped: u64,
    /// Task attempts started (including retries).
    pub tasks_run: u64,
    /// Task attempts that ran on an executor other than the one their
    /// partition was placed on (work stealing).
    pub tasks_stolen: u64,
    /// Task attempts re-submitted after a failure.
    pub task_retries: u64,
    /// Deep bytes written to the shuffle service.
    pub shuffle_write_bytes: u64,
    /// Deep bytes fetched from the shuffle service.
    pub shuffle_read_bytes: u64,
    /// Records written to the shuffle service.
    pub shuffle_records: u64,
    /// Persisted partitions served from the block store.
    pub cache_hits: u64,
    /// Persisted partitions that had to be (re)computed.
    pub cache_misses: u64,
    /// Partitions recomputed due to task retries.
    pub recomputations: u64,
    /// Bytes replicated to executors by broadcasts.
    pub broadcast_bytes: u64,
    /// Executors killed (each loss discards the incarnation's shuffle
    /// blocks and cached partitions and seats a replacement).
    pub executors_lost: u64,
    /// Reduce-side fetches that found a shuffle block lost with its
    /// executor (`TaskError::FetchFailed`).
    pub fetch_failures: u64,
    /// Map partitions recomputed from lineage to rebuild lost shuffle
    /// output (only the missing partitions re-run, never whole stages).
    pub map_partitions_recomputed: u64,
    /// Jobs shed by the admission controller (outcome
    /// [`JobOutcome::Rejected`]); nothing of a rejected job ever ran.
    pub jobs_rejected: u64,
    /// Jobs whose `run_with_deadline` budget elapsed (outcome
    /// [`JobOutcome::Deadlined`]).
    pub jobs_deadlined: u64,
    /// Total nanoseconds jobs spent queued for admission before running.
    pub admission_queue_wait_nanos: u64,
    /// High-water mark of the admission queue length (jobs waiting for
    /// capacity at once).
    pub admission_queue_peak: u64,
    /// Cached partitions dropped by manual eviction (`evict_cached_partition`,
    /// `Rdd::unpersist`).
    pub partitions_evicted: u64,
    /// High-water mark of resident cached-partition bytes.
    pub cache_highwater_bytes: u64,
    /// High-water mark of total resident memory (cached partitions plus
    /// shuffle blocks) — the figure the admission controller's
    /// `memory_high_watermark_bytes` bound is compared against.
    pub memory_highwater_bytes: u64,
    /// Narrow operator chains the planner collapsed into fused streaming
    /// execution (no intermediate partition materialisation).
    pub stages_fused: u64,
    /// Shuffle edges rewritten to narrow pass-throughs because the
    /// map-side parent already carried the target partitioner signature.
    pub shuffles_elided: u64,
    /// Reduce buckets merged into shared executor tasks at stage launch
    /// because their shuffle bytes fell below the coalescing target.
    pub partitions_coalesced: u64,
    /// Speculative duplicate attempts the driver launched for tail tasks
    /// that ran past the stage's duration-median multiple.
    pub tasks_speculated: u64,
    /// Speculative attempts that finished before the original they
    /// duplicated (the duplicate's result won first-write-wins).
    pub speculation_wins: u64,
    /// Running task bodies asked to stop early through their
    /// `CancelToken` (speculation losers, job aborts, expired deadlines).
    pub tasks_cancelled: u64,
    /// Blocks demoted from memory to the on-disk spill tier under memory
    /// pressure (resident cache+shuffle bytes crossed the admission
    /// watermark).
    pub blocks_spilled: u64,
    /// Spilled blocks read back from disk and reinstated in memory on
    /// demand (a reduce fetch or cache read touched cold data).
    pub blocks_rehydrated: u64,
    /// Cumulative encoded bytes written to the spill tier (framing
    /// included).
    pub spill_bytes: u64,
    /// High-water mark of bytes resident in the on-disk spill tier (kept
    /// monotone like the other high-water fields so snapshot subtraction
    /// stays well defined; the live gauge is
    /// `SpangleContext::disk_resident_bytes`).
    pub disk_resident_bytes: u64,
    /// Heartbeat intervals found missed when the monitor declared a busy
    /// executor lost (each detection adds the full interval count that
    /// crossed the loss threshold).
    pub heartbeats_missed: u64,
    /// Running tasks the no-progress watchdog declared wedged and
    /// duplicated through the speculation path.
    pub watchdog_trips: u64,
    /// Executors drained by the failure-rate quarantine (re-quarantines
    /// after a failed canary count again).
    pub executors_quarantined: u64,
    /// Cumulative nanoseconds of seeded retry backoff scheduled before
    /// re-submitted task attempts.
    pub backoff_nanos: u64,
}

impl std::ops::Sub for MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn sub(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            stages_run: self.stages_run - rhs.stages_run,
            stages_skipped: self.stages_skipped - rhs.stages_skipped,
            tasks_run: self.tasks_run - rhs.tasks_run,
            tasks_stolen: self.tasks_stolen - rhs.tasks_stolen,
            task_retries: self.task_retries - rhs.task_retries,
            shuffle_write_bytes: self.shuffle_write_bytes - rhs.shuffle_write_bytes,
            shuffle_read_bytes: self.shuffle_read_bytes - rhs.shuffle_read_bytes,
            shuffle_records: self.shuffle_records - rhs.shuffle_records,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
            recomputations: self.recomputations - rhs.recomputations,
            broadcast_bytes: self.broadcast_bytes - rhs.broadcast_bytes,
            executors_lost: self.executors_lost - rhs.executors_lost,
            fetch_failures: self.fetch_failures - rhs.fetch_failures,
            map_partitions_recomputed: self.map_partitions_recomputed
                - rhs.map_partitions_recomputed,
            jobs_rejected: self.jobs_rejected - rhs.jobs_rejected,
            jobs_deadlined: self.jobs_deadlined - rhs.jobs_deadlined,
            admission_queue_wait_nanos: self.admission_queue_wait_nanos
                - rhs.admission_queue_wait_nanos,
            admission_queue_peak: self.admission_queue_peak - rhs.admission_queue_peak,
            partitions_evicted: self.partitions_evicted - rhs.partitions_evicted,
            cache_highwater_bytes: self.cache_highwater_bytes - rhs.cache_highwater_bytes,
            memory_highwater_bytes: self.memory_highwater_bytes - rhs.memory_highwater_bytes,
            stages_fused: self.stages_fused - rhs.stages_fused,
            shuffles_elided: self.shuffles_elided - rhs.shuffles_elided,
            partitions_coalesced: self.partitions_coalesced - rhs.partitions_coalesced,
            tasks_speculated: self.tasks_speculated - rhs.tasks_speculated,
            speculation_wins: self.speculation_wins - rhs.speculation_wins,
            tasks_cancelled: self.tasks_cancelled - rhs.tasks_cancelled,
            blocks_spilled: self.blocks_spilled - rhs.blocks_spilled,
            blocks_rehydrated: self.blocks_rehydrated - rhs.blocks_rehydrated,
            spill_bytes: self.spill_bytes - rhs.spill_bytes,
            disk_resident_bytes: self.disk_resident_bytes - rhs.disk_resident_bytes,
            heartbeats_missed: self.heartbeats_missed - rhs.heartbeats_missed,
            watchdog_trips: self.watchdog_trips - rhs.watchdog_trips,
            executors_quarantined: self.executors_quarantined - rhs.executors_quarantined,
            backoff_nanos: self.backoff_nanos - rhs.backoff_nanos,
        }
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
            tasks_stolen: 1,
            outcome,
            task_nanos: 0,
            wall_nanos: 0,
            fetch_failures: 0,
            map_partitions_recomputed: 0,
            stages_fused: 0,
            shuffles_elided: 0,
            partitions_coalesced: 0,
            tasks_speculated: 0,
            speculation_wins: 0,
            tasks_cancelled: 0,
            blocks_spilled: 0,
            blocks_rehydrated: 0,
            spill_bytes: 0,
            watchdog_trips: 0,
            backoff_nanos: 0,
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
            tasks_stolen: 0,
            outcome,
            task_nanos: 5_000_000,
            wall_nanos: 0,
            fetch_failures: 0,
            map_partitions_recomputed: 0,
            stages_fused: 1,
            shuffles_elided: 0,
            partitions_coalesced: 0,
            tasks_speculated: 1,
            speculation_wins: 1,
            tasks_cancelled: 1,
            blocks_spilled: 2,
            blocks_rehydrated: 1,
            spill_bytes: 4096,
            watchdog_trips: 1,
            backoff_nanos: 2_000_000,
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
