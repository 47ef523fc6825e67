//! The event-driven DAG scheduler: one shared driver service per context.
//!
//! An action builds an explicit stage graph from the lineage of its target
//! RDD: one *map stage* per shuffle dependency plus one *result stage*,
//! with parent/child edges wherever a stage reads a shuffle's output. The
//! job is then handed to the context's `SchedulerService` — a single
//! long-lived driver loop that multiplexes events from *all* concurrent
//! jobs over one tagged channel ([`crate::sync::channel::MuxSender`]),
//! keeping per-job state in a `HashMap<job_id, JobRun>`. The caller blocks
//! on a `JobHandle` until the service resolves the job, so the public
//! [`run_job`] API (and every action lowered onto it) is unchanged from
//! the per-job-loop days while the driver side now scales to many jobs
//! without one event-loop thread per action.
//!
//! Jobs carry a *priority* (see `SpangleContext::run_with_priority`;
//! the default pool is FIFO at priority 0): ready tasks are submitted to
//! the executors tagged with their job's priority, and each executor
//! serves its queue highest-priority-first, so a high-priority job's tasks
//! overtake queued lower-priority work instead of waiting out the
//! submission interleaving. Every [`JobReport`] records the job's summed
//! task queue-wait time, which is where that fairness is observable.
//!
//! In front of the running-job map sits an *admission controller*
//! (`SpangleContextBuilder::max_concurrent_jobs` and friends): a job that
//! arrives while the scheduler is saturated — job slots full, with
//! capacity scaled down while replacement executors warm up after a kill,
//! or resident cache + shuffle memory at the configured high watermark —
//! is *queued* (FIFO within its priority, released as capacity frees),
//! or *shed* with [`JobOutcome::Rejected`] when its priority falls below
//! the shed threshold or its tasks overflow the per-priority queue bound.
//! Jobs submitted under `SpangleContext::run_with_deadline` carry an
//! absolute deadline; the driver wakes on a timer and resolves an expired
//! job as [`JobOutcome::Deadlined`] — never admitting a queued one,
//! aborting a running one through the normal abandon path. [`submit_job`]
//! exposes the non-blocking half of this: it returns a [`JobHandle`]
//! immediately, so callers can poll (`try_wait`, `wait_timeout`) instead
//! of blocking while their job waits out the queue. Every decision is
//! observable: `jobs_rejected`, `jobs_deadlined`, admission queue wait
//! and peak-depth counters, and memory high-water marks all land in the
//! context metrics and each [`JobReport`].
//!
//! Stage activation is demand-driven and race-free: a map stage first
//! [`ShuffleService::try_claim`]s its shuffle. Exactly one job becomes the
//! owner and runs the stage; a job that finds the shuffle `Completed`
//! skips the stage (Spark's skipped-stage reuse, without even visiting its
//! ancestors), and a job that finds it `InFlight` treats the stage as
//! *external*, registering a completion callback on the shuffle service
//! ([`ShuffleService::subscribe`]) that posts an event into the shared
//! loop tagged with the waiting job's id. No thread is ever parked on an
//! awaited shuffle — stage readiness is event-driven end to end, and an
//! aborting owner wakes its externals immediately instead of leaking
//! parked waiters.
//!
//! Tasks are *placed* on the executor owning their partition but may be
//! stolen by an idle sibling (see [`crate::executor`]); stolen attempts
//! are charged as remote in the job's [`StageCounters::tasks_stolen`] and
//! the per-executor busy times recorded in each [`JobReport`].
//!
//! Failure semantics: failed task attempts retry up to the context's limit
//! with lineage recomputation, and an exhausted task aborts the whole job.
//! Whole-executor loss is a separate, budgeted path: an attempt that died
//! with its executor ([`TaskError::ExecutorLost`]) replays on the
//! replacement without charging its attempt budget, and a reduce attempt
//! that finds a parent shuffle block gone ([`TaskError::FetchFailed`]) is
//! *parked* while the scheduler claims the shuffle's recovery
//! ([`ShuffleService::claim_recovery`]) and re-runs exactly the missing
//! map partitions from lineage — surviving map output is reused, never
//! recomputed. Both paths draw on one per-job resubmission budget
//! (`SpangleContextBuilder::max_resubmissions`) so a permanently poisoned
//! shuffle aborts cleanly instead of looping.
//! On abort every shuffle the job still owns is abandoned (dropping its
//! partial map output) so concurrent or subsequent jobs can re-claim it —
//! an abort never wedges the cluster — and the aborted job still records a
//! [`JobReport`] with [`JobOutcome::Aborted`], its in-flight stages marked
//! [`StageOutcome::Aborted`], so no busy/steal accounting is lost.
//!
//! Tasks must never trigger nested actions: all actions run on driver
//! (user) threads, tasks run on executor threads, and the service loop
//! runs only scheduler state transitions (never user code).
//!
//! [`ShuffleService::try_claim`]: crate::shuffle::ShuffleService::try_claim
//! [`ShuffleService::subscribe`]: crate::shuffle::ShuffleService::subscribe
//! [`ShuffleService::claim_recovery`]: crate::shuffle::ShuffleService::claim_recovery
//! [`JobOutcome::Aborted`]: crate::metrics::JobOutcome::Aborted
//! [`JobOutcome::Rejected`]: crate::metrics::JobOutcome::Rejected
//! [`JobOutcome::Deadlined`]: crate::metrics::JobOutcome::Deadlined
//! [`StageOutcome::Aborted`]: crate::metrics::StageOutcome::Aborted

use crate::context::SpangleContext;
use crate::executor::{
    cancellation_point, is_task_cancelled, stamp_heartbeat_only, BlockOrigin, CancelToken,
    CancelledError, TaskInfo, TaskTag,
};
use crate::failure::TaskSite;
use crate::health::{jittered_backoff, splitmix64, HealthBoard, STATE_HEALTHY};
use crate::metrics::{
    JobOutcome, JobReport, MetricField, MetricsSnapshot, StageCounters, StageOutcome, StageReport,
};
use crate::plan;
use crate::rdd::pair::ShuffleDepDyn;
use crate::rdd::{Dependency, LineageNode, Rdd};
use crate::shuffle::{ClaimId, FetchFailedError, RecoveryClaim, ShuffleClaim};
use crate::sync::channel::{
    unbounded, MuxSender, Receiver, RecvTimeoutError, Sender, Tagged, TryRecvError,
};
use crate::sync::{Mutex, PriorityFifo};
use crate::Data;
use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Information available to a running task.
#[derive(Clone, Copy, Debug)]
pub struct TaskContext {
    /// Job the task belongs to.
    pub job_id: usize,
    /// Stage the task belongs to.
    pub stage_id: usize,
    /// Partition the task computes.
    pub partition: usize,
    /// Zero-based attempt number (>0 on retries).
    pub attempt: usize,
    /// Executor the attempt is running on (known only once the attempt
    /// starts, so the context is built on the executor, not at
    /// submission).
    pub executor: usize,
    /// Incarnation of that executor (see [`crate::executor::BlockOrigin`]):
    /// blocks the task deposits are attributed to this incarnation and die
    /// with it.
    pub epoch: u64,
    /// The shuffle claim a map task runs under (`None` for result
    /// stages): its commit is refused once the claim was abandoned.
    pub(crate) claim: Option<ClaimId>,
}

impl TaskContext {
    /// The block origin for everything this attempt produces.
    pub(crate) fn origin(&self) -> BlockOrigin {
        BlockOrigin::executor(self.executor, self.epoch)
    }
}

/// When the driver launches speculative duplicates for tail tasks; built
/// by `SpangleContext::builder().speculation(..)` and immutable for the
/// context's lifetime.
///
/// While a stage runs, the driver keeps the durations of its completed
/// task attempts. A still-running original attempt whose elapsed time
/// exceeds `multiplier` × the stage's median completed duration (and the
/// `min_runtime` floor) gets a duplicate attempt on the least-loaded
/// *other* executor. The first completion wins the partition — its output
/// lands atomically in the shuffle registry — and the slower twin is
/// cancelled through its [`CancelToken`]; neither side charges the
/// per-task attempt budget.
#[derive(Clone, Copy, Debug)]
pub struct SpeculationConfig {
    /// Whether speculative duplicates are launched at all.
    pub enabled: bool,
    /// A running attempt becomes a candidate once its elapsed time exceeds
    /// this multiple of the stage's median completed-task duration.
    pub multiplier: f64,
    /// Elapsed-time floor below which no attempt is duplicated, whatever
    /// the median says — very short stages must not breed duplicates over
    /// scheduling noise.
    pub min_runtime: Duration,
}

impl Default for SpeculationConfig {
    /// Speculation on, at 4× the stage median with a 10 ms floor. Setting
    /// the `SPANGLE_DISABLE_SPECULATION` environment variable (to anything
    /// but `0`) flips `enabled` off — the lever the CI matrix uses to keep
    /// the non-speculative path tested. Explicit builder calls always win
    /// over the environment.
    fn default() -> Self {
        let disabled = std::env::var_os("SPANGLE_DISABLE_SPECULATION").is_some_and(|v| v != "0");
        SpeculationConfig {
            enabled: !disabled,
            multiplier: 4.0,
            min_runtime: Duration::from_millis(10),
        }
    }
}

/// Why one task attempt failed.
#[derive(Clone, Debug)]
pub enum TaskError {
    /// The failure injector killed this attempt.
    Injected,
    /// User code panicked.
    Panicked(String),
    /// The executor the attempt ran on was killed before the attempt
    /// finished; the attempt's output was discarded with the executor and
    /// the task is replayed without charging its attempt budget.
    ExecutorLost {
        /// Slot of the lost executor.
        executor: usize,
    },
    /// A reduce-side fetch found a parent shuffle block that was lost with
    /// its executor. The scheduler re-runs the missing map partitions from
    /// lineage and then replays this attempt, again without charging its
    /// attempt budget.
    FetchFailed {
        /// Shuffle whose map output is gone.
        shuffle_id: usize,
        /// Map partition whose output is missing.
        map_id: usize,
    },
    /// The attempt was interrupted at a cancellation point: the driver
    /// cancelled its [`CancelToken`] (a lost speculation race, a job
    /// abort, or an expired deadline) or its executor was killed while the
    /// body ran. Never charges the per-task attempt budget — the
    /// interruption was the scheduler's own doing.
    Cancelled,
    /// The executor pool shut down while the job was running.
    ExecutorShutdown,
    /// Admission control shed the job before any of its tasks ran: the
    /// scheduler was saturated and the job's priority fell below the shed
    /// threshold (or its tasks did not fit the per-priority queue bound).
    Rejected,
    /// The job's deadline (`SpangleContext::run_with_deadline`) elapsed
    /// before it finished; it was aborted (or never admitted).
    DeadlineExceeded,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Injected => write!(f, "injected failure"),
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            TaskError::ExecutorLost { executor } => {
                write!(f, "executor {executor} was lost mid-attempt")
            }
            TaskError::FetchFailed { shuffle_id, map_id } => write!(
                f,
                "fetch failed: map output {map_id} of shuffle {shuffle_id} was lost"
            ),
            TaskError::Cancelled => write!(f, "attempt cancelled at a cancellation point"),
            TaskError::ExecutorShutdown => write!(f, "executor pool shut down"),
            TaskError::Rejected => write!(f, "shed by admission control (scheduler saturated)"),
            TaskError::DeadlineExceeded => write!(f, "job deadline exceeded"),
        }
    }
}

/// A job failed: some task exhausted its attempts (or the cluster went
/// away underneath it).
#[derive(Clone, Debug)]
pub struct JobError {
    /// Job that aborted.
    pub job_id: usize,
    /// Stage of the failing task.
    pub stage_id: usize,
    /// Partition of the failing task.
    pub partition: usize,
    /// Attempts made.
    pub attempts: usize,
    /// The final attempt's error.
    pub last_error: TaskError,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} aborted: stage {} partition {} failed after {} attempts: {}",
            self.job_id, self.stage_id, self.partition, self.attempts, self.last_error
        )
    }
}

impl std::error::Error for JobError {}

/// Lifecycle of one stage inside one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StageState {
    /// Not reached by activation yet.
    Idle,
    /// This job owns the stage and is waiting on `waiting_on` parents.
    Waiting,
    /// Another job is running the stage; a completion callback will post
    /// back into the shared loop when it resolves.
    External,
    /// Tasks submitted, `remaining` still outstanding.
    Running,
    /// All tasks done (and the shuffle, if any, marked complete).
    Finished,
    /// Satisfied without running: the shuffle output already existed.
    Skipped,
}

/// A partition result in type-erased form. The shared service drives every
/// job through one channel, so result values cross it untyped and
/// [`run_job`] downcasts them back on the caller's side.
type ErasedResult = Box<dyn Any + Send>;

/// Task body of a stage: map stages write shuffle blocks and yield `None`,
/// the result stage yields `Some` type-erased partition result.
type StageWork = Arc<dyn Fn(&TaskContext) -> Option<ErasedResult> + Send + Sync>;

/// One live task attempt of a running stage, tracked for speculation and
/// cancellation. A partition has at most two: the original and one
/// speculative duplicate racing it.
struct Attempt {
    /// Attempt number shared by both sides of a speculation race.
    attempt: usize,
    /// Whether this is the duplicate side of the race.
    speculative: bool,
    /// Whether the attempt was submitted as a singleton executor task.
    /// Coalesced groups share one body (and one token) across partitions,
    /// so duplicating a single partition out of one is not possible —
    /// only singletons are speculation candidates.
    singleton: bool,
    /// Cancels the attempt's body at its next cancellation point.
    /// Doubles as the attempt's identity against the pool's running
    /// slots: the speculation scan locates where (and since when) the
    /// attempt's body has actually been executing by this token, so
    /// queue time never counts toward the straggler threshold.
    token: CancelToken,
}

/// One node of the job's stage graph.
struct Stage {
    /// The shuffle this map stage feeds; `None` for the result stage.
    shuffle_id: Option<usize>,
    /// The claim this job holds on that shuffle for its current run, if
    /// it owns the stage; the stage's map tasks commit under it.
    claim: Option<ClaimId>,
    work: StageWork,
    /// Stage indices this stage reads shuffle output from.
    parents: Vec<usize>,
    /// Stage indices that read this stage's shuffle output.
    children: Vec<usize>,
    num_tasks: usize,
    /// RDD id used as the failure-injection site for this stage's tasks.
    site_rdd: usize,
    state: StageState,
    /// Context-wide stage id, allocated when the stage is scheduled.
    stage_id: usize,
    /// Unsatisfied parents (only meaningful in `Waiting`).
    waiting_on: usize,
    /// Outstanding tasks (only meaningful in `Running`).
    remaining: usize,
    /// Summed task CPU time over all attempts.
    task_nanos: u64,
    started: Option<Instant>,
    /// Attempts parked on a fetch failure as `(partition, attempt,
    /// parent_shuffle_id)`: still counted in `remaining`, replayed (same
    /// attempt number) once the parent shuffle's lost maps are rebuilt.
    pending_retry: Vec<(usize, usize, usize)>,
    /// The planner's rewrites inside this stage's task bodies (see
    /// [`plan::analyze_stages`]); every run counts them.
    plan: plan::StagePlan,
    /// Live attempts of this stage's current run, keyed by partition.
    inflight: HashMap<usize, Vec<Attempt>>,
    /// Completed-attempt durations (nanoseconds) of the current run; the
    /// speculation scan compares stragglers against their median.
    durations: Vec<u64>,
    /// Partitions already settled by their first completion. Later sibling
    /// events (the cancelled half of a speculation race) are losers: their
    /// time is accounted, nothing else.
    finished: HashSet<usize>,
    /// The stage-scoped counters of the current run.
    counters: StageCounters,
    /// Context-wide counters captured when the current run started; the
    /// report's spill counters are the activity observed since.
    spill_baseline: MetricsSnapshot,
}

/// Everything that flows into the shared driver loop. Each message arrives
/// wrapped in [`Tagged`] with the job id it belongs to, so one channel
/// serves every concurrent job.
enum ServiceEvent {
    /// A new job entering the loop (tag = its job id).
    Submit(Box<JobRun>),
    /// A task attempt finished (successfully or not).
    Task {
        stage_idx: usize,
        partition: usize,
        attempt: usize,
        /// Task-body CPU time.
        nanos: u64,
        /// Time the attempt spent queued on the executor before starting.
        wait_nanos: u64,
        /// Executor the attempt actually ran on.
        ran_on: usize,
        /// Whether the attempt was stolen from its placed executor.
        stolen: bool,
        /// Whether this was the duplicate side of a speculation race.
        speculative: bool,
        outcome: Result<Option<ErasedResult>, TaskError>,
    },
    /// An external (other-job) map stage finished: `completed` says
    /// whether its owner completed it or abandoned it.
    External { stage_idx: usize, completed: bool },
    /// Context teardown: exit the loop after failing any stragglers.
    Shutdown,
}

thread_local! {
    /// Priority stamped on jobs submitted from this driver thread; scoped
    /// by [`with_job_priority`] (`SpangleContext::run_with_priority`).
    static JOB_PRIORITY: Cell<i32> = const { Cell::new(0) };
    /// Deadline stamped on jobs submitted from this driver thread; scoped
    /// by [`with_job_deadline`] (`SpangleContext::run_with_deadline`).
    static JOB_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs `f` with every job submitted from this thread carrying `priority`
/// (higher is served first; the default pool is 0). The previous priority
/// is restored on exit, panic included, so nested scopes compose.
pub(crate) fn with_job_priority<O>(priority: i32, f: impl FnOnce() -> O) -> O {
    struct Restore(i32);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOB_PRIORITY.set(self.0);
        }
    }
    let _restore = Restore(JOB_PRIORITY.replace(priority));
    f()
}

/// Runs `f` with every job submitted from this thread carrying a deadline
/// of now + `budget`. A job whose deadline elapses before it completes is
/// resolved as [`JobOutcome::Deadlined`]: if it was still queued for
/// admission it never runs at all, and if it was running it is aborted
/// through the normal abandon path (owned shuffles released, stragglers'
/// deposits reclaimed by lineage GC). The previous deadline is restored on
/// exit, panic included, so nested scopes compose (the inner, tighter
/// budget wins while it is in scope).
pub(crate) fn with_job_deadline<O>(budget: Duration, f: impl FnOnce() -> O) -> O {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOB_DEADLINE.set(self.0);
        }
    }
    let _restore = Restore(JOB_DEADLINE.replace(Some(Instant::now() + budget)));
    f()
}

/// Runs `func` over every partition of `rdd`, returning one result per
/// partition in partition order. This is the single entry point every
/// action lowers to: it plans the stage graph, hands the job to the
/// context's shared `SchedulerService` via [`submit_job`], and blocks on
/// the returned [`JobHandle`] until the service resolves it.
pub fn run_job<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    func: impl Fn(usize, Arc<Vec<T>>) -> R + Send + Sync + 'static,
) -> Result<Vec<R>, JobError> {
    submit_job(rdd, func).wait()
}

/// Submits a job without blocking: plans the stage graph, stamps the
/// calling thread's priority and deadline scopes on it, and hands it to
/// the shared service's admission controller. The returned [`JobHandle`]
/// resolves when the service finishes, aborts, sheds, or deadlines the
/// job — poll it with [`JobHandle::try_wait`] / [`JobHandle::wait_timeout`]
/// or block on [`JobHandle::wait`].
pub fn submit_job<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    func: impl Fn(usize, Arc<Vec<T>>) -> R + Send + Sync + 'static,
) -> JobHandle<R> {
    let ctx = rdd.context().clone();
    let job_id = ctx.new_job_id();
    let priority = JOB_PRIORITY.get();
    let deadline = JOB_DEADLINE.get();

    let stages = build_stages(rdd, func);
    let result_idx = stages.len() - 1;
    let num_results = stages[result_idx].num_tasks;

    let (handle, done) = JobHandle::new(job_id);
    let num_executors = ctx.num_executors();
    let tx = ctx.inner.scheduler.sender(job_id);
    let run = Box::new(JobRun {
        ctx: ctx.clone(),
        job_id,
        priority,
        deadline,
        stages,
        result_idx,
        tx,
        owned: HashSet::new(),
        running: 0,
        max_concurrent: 0,
        executor_busy: vec![0; num_executors],
        queue_wait_nanos: 0,
        admission_queued_at: None,
        admission_wait_nanos: 0,
        resubmissions_left: ctx.inner.max_resubmissions,
        delayed: Vec::new(),
        backoff_strikes: HashMap::new(),
        reports: Vec::new(),
        results: std::iter::repeat_with(|| None).take(num_results).collect(),
        done,
        started: Instant::now(),
    });
    if let Err(run) = ctx.inner.scheduler.submit(run) {
        // The context is tearing down around this call; resolve the handle
        // like a job that lost its cluster (this also records its report).
        let err = JobError {
            job_id,
            stage_id: 0,
            partition: 0,
            attempts: 0,
            last_error: TaskError::ExecutorShutdown,
        };
        run.fail(err);
    }
    handle
}

/// The caller-side half of one submitted job: resolves exactly once, when
/// the shared service finishes, aborts, sheds, or deadlines the job. The
/// job's [`JobReport`] is recorded *before* the handle resolves, so
/// `last_job_report()` observed after a wait always covers this job —
/// aborted, rejected, and deadlined ones included.
pub struct JobHandle<R> {
    job_id: usize,
    done: Receiver<Result<Vec<ErasedResult>, JobError>>,
    resolved: bool,
    _result: std::marker::PhantomData<fn() -> R>,
}

impl<R: Send + 'static> JobHandle<R> {
    fn new(job_id: usize) -> (Self, Sender<Result<Vec<ErasedResult>, JobError>>) {
        let (tx, rx) = unbounded();
        (
            JobHandle {
                job_id,
                done: rx,
                resolved: false,
                _result: std::marker::PhantomData,
            },
            tx,
        )
    }

    /// Id of the submitted job.
    pub fn job_id(&self) -> usize {
        self.job_id
    }

    fn decode(&mut self, outcome: Result<Vec<ErasedResult>, JobError>) -> Result<Vec<R>, JobError> {
        self.resolved = true;
        outcome.map(|results| {
            results
                .into_iter()
                .map(|r| {
                    *r.downcast::<R>()
                        .expect("job result stage produced a foreign result type")
                })
                .collect()
        })
    }

    fn service_gone(&mut self) -> JobError {
        self.resolved = true;
        JobError {
            job_id: self.job_id,
            stage_id: 0,
            partition: 0,
            attempts: 0,
            last_error: TaskError::ExecutorShutdown,
        }
    }

    /// Blocks until the service resolves the job. Consumes the handle; a
    /// handle whose result was already taken by `try_wait`/`wait_timeout`
    /// resolves as [`TaskError::ExecutorShutdown`].
    pub fn wait(mut self) -> Result<Vec<R>, JobError> {
        match self.done.recv() {
            Ok(outcome) => self.decode(outcome),
            Err(_) => Err(self.service_gone()),
        }
    }

    /// Non-blocking poll: `None` while the job is still queued or running
    /// (or after the result was already taken), `Some` exactly once when
    /// it resolves.
    pub fn try_wait(&mut self) -> Option<Result<Vec<R>, JobError>> {
        if self.resolved {
            return None;
        }
        match self.done.try_recv() {
            Ok(outcome) => Some(self.decode(outcome)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(self.service_gone())),
        }
    }

    /// Blocks up to `timeout` for the job to resolve; `None` on timeout
    /// (the job keeps running — this does *not* impose a deadline, see
    /// `SpangleContext::run_with_deadline` for that).
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Vec<R>, JobError>> {
        if self.resolved {
            return None;
        }
        match self.done.recv_timeout(timeout) {
            Ok(outcome) => Some(self.decode(outcome)),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(self.service_gone())),
        }
    }
}

/// The shared driver service: one long-lived `spangle-driver` thread
/// multiplexing every concurrent job of a context over a single tagged
/// event channel, with per-job [`JobRun`] state keyed by job id.
///
/// Owned by the context; dropping the context shuts the loop down and
/// joins the thread. Events for a job that already left the map (an
/// aborted job's straggler tasks, a completion callback that lost a race)
/// are dropped exactly as the old per-job loops dropped them on a closed
/// channel.
pub(crate) struct SchedulerService {
    tx: Sender<Tagged<ServiceEvent>>,
    driver: Mutex<Option<JoinHandle<()>>>,
}

impl SchedulerService {
    /// Spawns the driver loop.
    pub(crate) fn new() -> Self {
        let (tx, rx) = unbounded();
        let driver = std::thread::Builder::new()
            .name("spangle-driver".to_string())
            .spawn(move || drive_loop(rx))
            .expect("failed to spawn the scheduler driver thread");
        SchedulerService {
            tx,
            driver: Mutex::new(Some(driver)),
        }
    }

    /// A sender that stamps `job_id` on every event: handed to the job's
    /// tasks and shuffle subscriptions so they post into the shared loop.
    fn sender(&self, job_id: usize) -> MuxSender<ServiceEvent> {
        MuxSender::new(self.tx.clone(), job_id)
    }

    /// Hands a job to the driver loop. Fails only when the loop is gone
    /// (context teardown racing the submission), returning the job so the
    /// caller can resolve its handle.
    fn submit(&self, job: Box<JobRun>) -> Result<(), Box<JobRun>> {
        let tag = job.job_id;
        self.tx
            .send(Tagged {
                tag,
                msg: ServiceEvent::Submit(job),
            })
            .map_err(|rejected| match rejected.0.msg {
                ServiceEvent::Submit(job) => job,
                _ => unreachable!("submit sends only Submit events"),
            })
    }

    /// Stops the driver loop and joins its thread. Idempotent.
    ///
    /// The driver itself can end up here: a finished [`JobRun`] holds a
    /// context clone, and if the caller drops its context the instant its
    /// handle resolves, the driver's clone is the last one — dropping it
    /// (inside the loop) tears the service down from the driver thread.
    /// Joining yourself deadlocks, so that path detaches instead: the
    /// loop is already draining toward the `Shutdown` event just sent and
    /// exits on its own.
    pub(crate) fn shutdown(&self) {
        let _ = self.tx.send(Tagged {
            tag: usize::MAX,
            msg: ServiceEvent::Shutdown,
        });
        if let Some(handle) = self.driver.lock().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for SchedulerService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How often the driver polls while jobs wait in the admission queue.
/// Two admission inputs change without generating a driver event: memory
/// freed by out-of-loop RDD drops/evictions, and a warming replacement
/// executor completing its first task. The poll picks those up.
const ADMISSION_POLL: Duration = Duration::from_millis(5);

/// Gatekeeper in front of the driver's running-job map: holds jobs the
/// context's [`crate::context::AdmissionConfig`] bounds keep out, in FIFO
/// order within each priority, and releases them as capacity frees.
struct AdmissionController {
    queue: PriorityFifo<Box<JobRun>>,
}

impl AdmissionController {
    fn new() -> Self {
        AdmissionController {
            queue: PriorityFifo::new(),
        }
    }

    /// The job-slot capacity right now: the configured bound scaled down
    /// by the fraction of executors still warming up after a kill (PR 4's
    /// replacement epochs), floored at one so a fully-degraded pool cannot
    /// wedge admission.
    fn effective_capacity(ctx: &SpangleContext) -> usize {
        let total = ctx.num_executors();
        let warming = ctx.inner.pool.warming_replacements().min(total);
        let bound = ctx.inner.admission.max_concurrent_jobs;
        (bound.saturating_mul(total - warming) / total).max(1)
    }

    /// Whether the scheduler is saturated for new admissions: job slots
    /// full, or resident memory (cache + shuffle) still at the high
    /// watermark *after* the block store's sweep demoted cold blocks to
    /// disk. Spilling comes before shedding: memory saturation only queues
    /// or sheds work when the disk tier could not (or was not allowed to)
    /// bring resident bytes back under the watermark.
    fn saturated(ctx: &SpangleContext, running: usize) -> bool {
        running >= Self::effective_capacity(ctx) || ctx.inner.blocks.saturated()
    }

    /// Planned tasks currently queued at `priority` (the unit of the
    /// per-priority backpressure bound).
    fn queued_tasks_at(&self, priority: i32) -> usize {
        self.queue
            .iter()
            .filter(|j| j.priority == priority)
            .map(|j| j.planned_tasks())
            .sum()
    }

    /// Routes a newly submitted job: admit directly when there is room,
    /// otherwise queue it — or shed it when its priority falls below the
    /// shed threshold or its tasks do not fit the per-priority queue bound.
    fn submit(&mut self, mut job: Box<JobRun>, jobs: &mut HashMap<usize, Box<JobRun>>) {
        let ctx = job.ctx.clone();
        if self.queue.is_empty() && !Self::saturated(&ctx, jobs.len()) {
            admit(job, jobs);
            return;
        }
        // The job would have to wait. (The queue is only ever non-empty
        // while the scheduler is saturated: drain() empties it otherwise.)
        let cfg = &ctx.inner.admission;
        let shed = cfg.shed_below_priority.is_some_and(|t| job.priority < t)
            || self.queued_tasks_at(job.priority) + job.planned_tasks()
                > cfg.max_queued_tasks_per_priority;
        if shed {
            ctx.metrics().add(MetricField::JobsRejected, 1);
            job.resolve_unadmitted(JobOutcome::Rejected, TaskError::Rejected);
            return;
        }
        job.admission_queued_at = Some(Instant::now());
        self.queue.push(job.priority, job);
        ctx.metrics()
            .raise(MetricField::AdmissionQueuePeak, self.queue.len() as u64);
    }

    /// Releases queued jobs (highest priority first, FIFO within one)
    /// while the scheduler has capacity for them.
    fn drain(&mut self, jobs: &mut HashMap<usize, Box<JobRun>>) {
        while let Some(front) = self.queue.front() {
            let ctx = front.ctx.clone();
            if Self::saturated(&ctx, jobs.len()) {
                break;
            }
            let mut job = self.queue.pop_front().expect("front observed above");
            let waited = job
                .admission_queued_at
                .take()
                .map_or(0, |t| t.elapsed().as_nanos() as u64);
            job.admission_wait_nanos = waited;
            ctx.metrics()
                .add(MetricField::AdmissionQueueWaitNanos, waited);
            admit(job, jobs);
        }
    }

    /// Resolves every job (queued or running) whose deadline has passed:
    /// queued ones never run at all; running ones abort through the normal
    /// abandon path so their owned shuffles are released.
    fn expire_deadlines(&mut self, jobs: &mut HashMap<usize, Box<JobRun>>) {
        let now = Instant::now();
        for job in self.queue.extract(|j| j.deadline.is_some_and(|d| d <= now)) {
            job.ctx.metrics().add(MetricField::JobsDeadlined, 1);
            job.resolve_unadmitted(JobOutcome::Deadlined, TaskError::DeadlineExceeded);
        }
        let expired: Vec<usize> = jobs
            .iter()
            .filter(|(_, j)| j.deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let mut job = jobs.remove(&id).expect("expired job vanished");
            job.ctx.metrics().add(MetricField::JobsDeadlined, 1);
            let err = job.abort(job.result_idx, 0, 0, TaskError::DeadlineExceeded);
            job.fail_with(JobOutcome::Deadlined, err);
        }
    }

    /// The driver's receive timeout: the nearest timed obligation among
    /// queued and running jobs — a deadline, or a backoff-delayed retry
    /// coming due — clamped to the admission poll while jobs are queued
    /// (their admission inputs can change without an event), a running
    /// job could grow a speculation candidate (stragglers ripen without
    /// generating events), or the health monitor is watching in-flight
    /// attempts (heartbeats go silent without generating events). `None`
    /// means block indefinitely — nothing is waiting on time.
    fn receive_timeout(&self, jobs: &HashMap<usize, Box<JobRun>>) -> Option<Duration> {
        let now = Instant::now();
        let nearest = jobs
            .values()
            .filter_map(|j| j.deadline)
            .chain(self.queue.iter().filter_map(|j| j.deadline))
            .chain(jobs.values().filter_map(|j| j.nearest_backoff_due()))
            .min()
            .map(|d| d.saturating_duration_since(now));
        let polling = jobs
            .values()
            .any(|j| j.wants_speculation_poll() || j.wants_health_poll());
        if self.queue.is_empty() && !polling {
            nearest
        } else {
            Some(nearest.map_or(ADMISSION_POLL, |t| t.min(ADMISSION_POLL)))
        }
    }
}

/// Runs the speculation scan over every running job, launching duplicate
/// attempts for ripe stragglers. A job whose duplicate cannot be submitted
/// (the pool shut down underneath it) fails through the normal abort path.
fn run_speculation(jobs: &mut HashMap<usize, Box<JobRun>>) {
    let ids: Vec<usize> = jobs.keys().copied().collect();
    for id in ids {
        let Some(job) = jobs.get_mut(&id) else {
            continue;
        };
        if let Err(err) = job.check_speculation() {
            let job = jobs.remove(&id).expect("job vanished mid-speculation");
            job.fail(err);
        }
    }
}

/// One watched attempt of the no-progress watchdog: the executor progress
/// count last observed for it, when that observation was made, and whether
/// the watchdog already tripped for it (one duplicate per frozen attempt).
struct ProgressObs {
    progress: u64,
    since: Instant,
    tripped: bool,
}

/// Driver-local state of the health monitor: per-attempt progress
/// observations for the watchdog, and per-executor recent-outcome windows
/// plus quarantine strike counts. The shared [`HealthBoard`] carries only
/// what workers must see (heartbeats, the placement mask); everything that
/// only the driver reasons about lives here, unsynchronized.
struct HealthMonitor {
    /// Keyed by `(job_id, stage_idx, partition)`.
    observed: HashMap<(usize, usize, usize), ProgressObs>,
    /// Recent task outcomes per executor (`true` = success), bounded by
    /// the configured quarantine window.
    outcomes: Vec<VecDeque<bool>>,
    /// Times each executor has been quarantined; doubles (with jitter) its
    /// probation on every failed canary.
    strikes: Vec<usize>,
}

impl HealthMonitor {
    fn new() -> Self {
        HealthMonitor {
            observed: HashMap::new(),
            outcomes: Vec::new(),
            strikes: Vec::new(),
        }
    }

    fn ensure_executors(&mut self, n: usize) {
        while self.outcomes.len() < n {
            self.outcomes.push(VecDeque::new());
            self.strikes.push(0);
        }
    }

    /// Probation duration for `executor`'s next quarantine: the configured
    /// base doubled per prior strike, jittered deterministically from the
    /// backoff seed.
    fn probation_for(&self, ctx: &SpangleContext, executor: usize) -> Duration {
        let cfg = &ctx.inner.health;
        jittered_backoff(
            cfg.probation,
            cfg.probation.saturating_mul(64),
            self.strikes[executor],
            ctx.inner.backoff.seed ^ splitmix64(executor as u64),
        )
    }

    /// Benches `executor`: drains placement to it, bans it from stealing,
    /// and counts the quarantine.
    fn quarantine(&mut self, ctx: &SpangleContext, board: &HealthBoard, executor: usize) {
        let probation = self.probation_for(ctx, executor);
        board.quarantine(executor, probation);
        ctx.inner.pool.set_steal_ban(executor, true);
        self.strikes[executor] += 1;
        self.outcomes[executor].clear();
        ctx.metrics().add(MetricField::ExecutorsQuarantined, 1);
    }

    /// Feeds one task outcome into the quarantine state machine: resolves
    /// an in-flight canary, or updates the executor's failure window and
    /// benches it when the recent rate crosses the threshold. Only genuine
    /// task faults (injected failures, panics) count against an executor —
    /// cancellations, kills, and fetch failures are the scheduler's (or a
    /// parent's) doing, and counting them would quarantine executors the
    /// driver itself disrupted.
    fn observe_task(
        &mut self,
        ctx: &SpangleContext,
        executor: usize,
        outcome: &Result<Option<ErasedResult>, TaskError>,
    ) {
        let cfg = &ctx.inner.health;
        if !cfg.enabled {
            return;
        }
        self.ensure_executors(ctx.num_executors());
        let board = ctx.inner.pool.health_board();
        let fault = matches!(
            outcome,
            Err(TaskError::Injected) | Err(TaskError::Panicked(_))
        );
        if board.is_canary(executor) {
            match outcome {
                Ok(_) => {
                    // The canary came back clean: full re-admission.
                    board.mark_healthy(executor);
                    ctx.inner.pool.set_steal_ban(executor, false);
                    self.outcomes[executor].clear();
                }
                Err(_) if fault => self.quarantine(ctx, &board, executor),
                Err(_) => board.reopen_probation(executor),
            }
            return;
        }
        if !fault && outcome.is_err() {
            return;
        }
        let window = &mut self.outcomes[executor];
        window.push_back(outcome.is_ok());
        while window.len() > cfg.quarantine_window {
            window.pop_front();
        }
        if !fault || board.state(executor) != STATE_HEALTHY {
            return;
        }
        let samples = window.len();
        if samples < cfg.quarantine_min_samples {
            return;
        }
        let failures = window.iter().filter(|&&ok| !ok).count();
        if failures as f64 / samples as f64 >= cfg.quarantine_threshold {
            self.quarantine(ctx, &board, executor);
        }
    }
}

/// The driver's per-iteration health pass: drains due backoff retries for
/// every job, then (with health monitoring enabled) runs missed-heartbeat
/// loss detection and the no-progress watchdog. A job whose resubmission
/// fails underneath it aborts through the normal path.
fn run_health(jobs: &mut HashMap<usize, Box<JobRun>>, monitor: &mut HealthMonitor) {
    let ids: Vec<usize> = jobs.keys().copied().collect();
    for id in ids {
        let Some(job) = jobs.get_mut(&id) else {
            continue;
        };
        if let Err(err) = job.health_tick(monitor) {
            let job = jobs.remove(&id).expect("job vanished mid-health-check");
            job.fail(err);
        }
    }
    monitor.observed.retain(|key, _| jobs.contains_key(&key.0));
}

/// Starts an admitted job and parks it in the running map unless it
/// resolved instantly (zero-stage result, or a failure to even start).
fn admit(mut job: Box<JobRun>, jobs: &mut HashMap<usize, Box<JobRun>>) {
    match job.start() {
        Err(err) => job.fail(err),
        Ok(()) if job.is_finished() => job.finish(),
        Ok(()) => {
            jobs.insert(job.job_id, job);
        }
    }
}

/// The service's event loop: demultiplexes messages by job tag, advances
/// the owning job's state machine, and finalises jobs that finish or
/// abort. New jobs pass through the [`AdmissionController`] first, and the
/// loop wakes on a timer (instead of blocking forever on the channel)
/// whenever a deadline is pending or jobs are queued for admission. Runs
/// no user code — task bodies run on executors, actions block on their
/// handles.
fn drive_loop(rx: Receiver<Tagged<ServiceEvent>>) {
    let mut jobs: HashMap<usize, Box<JobRun>> = HashMap::new();
    let mut admission = AdmissionController::new();
    let mut monitor = HealthMonitor::new();
    loop {
        admission.expire_deadlines(&mut jobs);
        run_health(&mut jobs, &mut monitor);
        run_speculation(&mut jobs);
        admission.drain(&mut jobs);
        let received = match admission.receive_timeout(&jobs) {
            None => rx.recv().map_err(|_| ()),
            Some(timeout) => match rx.recv_timeout(timeout) {
                Ok(msg) => Ok(msg),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => Err(()),
            },
        };
        let Ok(Tagged { tag, msg }) = received else {
            break;
        };
        match msg {
            ServiceEvent::Shutdown => break,
            ServiceEvent::Submit(job) => {
                debug_assert_eq!(tag, job.job_id, "submit tag must be the job id");
                admission.submit(job, &mut jobs);
            }
            event => {
                // Task outcomes feed the quarantine monitor before the
                // owning job consumes them (stale-tag events included —
                // a straggler of an aborted job still ran on a real
                // executor, but without its job there is no config to
                // judge it by, so only live jobs' events are counted).
                if let ServiceEvent::Task {
                    ran_on,
                    ref outcome,
                    ..
                } = event
                {
                    if let Some(job) = jobs.get(&tag) {
                        monitor.observe_task(&job.ctx, ran_on, outcome);
                    }
                }
                // Stale tags (events of a job that already finished or
                // aborted) are dropped here.
                let step = match jobs.get_mut(&tag) {
                    Some(job) => job.on_event(event),
                    None => continue,
                };
                match step {
                    Err(err) => {
                        let job = jobs.remove(&tag).expect("job vanished mid-event");
                        job.fail(err);
                    }
                    Ok(()) => {
                        if jobs.get(&tag).is_some_and(|job| job.is_finished()) {
                            let job = jobs.remove(&tag).expect("job vanished mid-event");
                            job.finish();
                        }
                    }
                }
            }
        }
    }
    // Teardown (or every sender dropped) with jobs still live or queued:
    // fail them so no caller blocks forever on its handle.
    for job in admission.queue.drain() {
        job.resolve_unadmitted(JobOutcome::Aborted, TaskError::ExecutorShutdown);
    }
    for (_, job) in jobs.drain() {
        let err = JobError {
            job_id: job.job_id,
            stage_id: 0,
            partition: 0,
            attempts: 0,
            last_error: TaskError::ExecutorShutdown,
        };
        job.fail(err);
    }
}

/// Builds the job's stage graph: one map stage per reachable shuffle
/// (parents before children, so indices are topological) plus the result
/// stage at the end.
fn build_stages<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    func: impl Fn(usize, Arc<Vec<T>>) -> R + Send + Sync + 'static,
) -> Vec<Stage> {
    let deps = topo_shuffle_deps(rdd.lineage());
    let mut by_shuffle: HashMap<usize, usize> = HashMap::new();
    let mut stages: Vec<Stage> = Vec::with_capacity(deps.len() + 1);

    // One plan territory per stage, in stage order: each shuffle's map-side
    // parent lineage, then the result lineage. The planner attributes fused
    // chains and elided shuffle edges to the stage that executes them.
    let territories: Vec<Arc<dyn LineageNode>> = deps
        .iter()
        .map(|dep| dep.parent_lineage())
        .chain(std::iter::once(rdd.lineage()))
        .collect();
    let plans = plan::analyze_stages(&territories, rdd.context().planner());

    for (idx, dep) in deps.iter().enumerate() {
        by_shuffle.insert(dep.shuffle_id(), stages.len());
        let work: StageWork = {
            let dep = Arc::clone(dep);
            Arc::new(move |tc: &TaskContext| {
                dep.run_map_task(tc.partition, tc);
                None
            })
        };
        stages.push(Stage {
            shuffle_id: Some(dep.shuffle_id()),
            claim: None,
            work,
            parents: Vec::new(),
            children: Vec::new(),
            num_tasks: dep.num_map_partitions(),
            site_rdd: dep.parent_rdd_id(),
            state: StageState::Idle,
            stage_id: 0,
            waiting_on: 0,
            remaining: 0,
            task_nanos: 0,
            started: None,
            pending_retry: Vec::new(),
            plan: plans[idx],
            inflight: HashMap::new(),
            durations: Vec::new(),
            finished: HashSet::new(),
            counters: StageCounters::default(),
            spill_baseline: MetricsSnapshot::default(),
        });
    }

    // Wire map-stage edges: a stage's parents are the shuffles its map
    // side reads, i.e. the shuffle dependencies reachable from its parent
    // lineage without crossing another shuffle boundary.
    for (idx, dep) in deps.iter().enumerate() {
        for parent in direct_parent_shuffles(dep.parent_lineage()) {
            let p = by_shuffle[&parent.shuffle_id()];
            stages[p].children.push(idx);
            stages[idx].parents.push(p);
        }
    }

    let result_idx = stages.len();
    let mut result_parents = Vec::new();
    for parent in direct_parent_shuffles(rdd.lineage()) {
        let p = by_shuffle[&parent.shuffle_id()];
        stages[p].children.push(result_idx);
        result_parents.push(p);
    }
    let work: StageWork = {
        let target = rdd.clone();
        let func = Arc::new(func);
        Arc::new(move |tc: &TaskContext| {
            Some(Box::new(func(tc.partition, target.iterator(tc.partition, tc))) as ErasedResult)
        })
    };
    stages.push(Stage {
        shuffle_id: None,
        claim: None,
        work,
        parents: result_parents,
        children: Vec::new(),
        num_tasks: rdd.num_partitions(),
        site_rdd: rdd.id(),
        state: StageState::Idle,
        stage_id: 0,
        waiting_on: 0,
        remaining: 0,
        task_nanos: 0,
        started: None,
        pending_retry: Vec::new(),
        plan: plans[result_idx],
        inflight: HashMap::new(),
        durations: Vec::new(),
        finished: HashSet::new(),
        counters: StageCounters::default(),
        spill_baseline: MetricsSnapshot::default(),
    });
    stages
}

/// Collects all shuffle dependencies reachable from `root`, ordered so
/// that every shuffle appears after the shuffles its map stage reads from.
fn topo_shuffle_deps(root: Arc<dyn LineageNode>) -> Vec<Arc<dyn ShuffleDepDyn>> {
    struct Walk {
        order: Vec<Arc<dyn ShuffleDepDyn>>,
        seen_shuffles: HashSet<usize>,
        seen_nodes: HashSet<usize>,
    }

    impl Walk {
        fn visit_node(&mut self, node: Arc<dyn LineageNode>) {
            if !self.seen_nodes.insert(node.rdd_id()) {
                return;
            }
            for dep in node.dependencies() {
                match dep {
                    Dependency::Narrow(parent) => self.visit_node(parent),
                    Dependency::Shuffle(shuffle) => self.visit_shuffle(shuffle),
                }
            }
        }

        fn visit_shuffle(&mut self, shuffle: Arc<dyn ShuffleDepDyn>) {
            if !self.seen_shuffles.insert(shuffle.shuffle_id()) {
                return;
            }
            self.visit_node(shuffle.parent_lineage());
            self.order.push(shuffle);
        }
    }

    let mut walk = Walk {
        order: Vec::new(),
        seen_shuffles: HashSet::new(),
        seen_nodes: HashSet::new(),
    };
    walk.visit_node(root);
    walk.order
}

/// The shuffle dependencies `root` reads *directly*: reachable through
/// narrow edges only, without descending past another shuffle boundary.
fn direct_parent_shuffles(root: Arc<dyn LineageNode>) -> Vec<Arc<dyn ShuffleDepDyn>> {
    let mut out: Vec<Arc<dyn ShuffleDepDyn>> = Vec::new();
    let mut seen_nodes = HashSet::new();
    let mut seen_shuffles = HashSet::new();
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if !seen_nodes.insert(node.rdd_id()) {
            continue;
        }
        for dep in node.dependencies() {
            match dep {
                Dependency::Narrow(parent) => stack.push(parent),
                Dependency::Shuffle(shuffle) => {
                    if seen_shuffles.insert(shuffle.shuffle_id()) {
                        out.push(shuffle);
                    }
                }
            }
        }
    }
    out
}

/// Driver-side state of one job, owned by the scheduler service while the
/// job is in flight.
struct JobRun {
    ctx: SpangleContext,
    job_id: usize,
    /// Priority the job was submitted with (higher is served first).
    priority: i32,
    /// Absolute deadline from `SpangleContext::run_with_deadline`; the
    /// driver resolves the job as [`JobOutcome::Deadlined`] once it
    /// passes, whether the job is queued for admission or running.
    deadline: Option<Instant>,
    stages: Vec<Stage>,
    /// Index of the result stage (always the last).
    result_idx: usize,
    /// Sender that stamps this job's id on every task / subscription
    /// event posted into the shared loop.
    tx: MuxSender<ServiceEvent>,
    /// Shuffles this job claimed ownership of and has not completed yet;
    /// abandoned on abort so other jobs can re-claim them.
    owned: HashSet<usize>,
    /// Stages currently in `Running` state.
    running: usize,
    /// High-water mark of `running`.
    max_concurrent: usize,
    /// Nanoseconds of this job's task time per executor, from task events.
    executor_busy: Vec<u64>,
    /// Nanoseconds this job's task attempts spent queued on executors
    /// before starting, summed over attempts.
    queue_wait_nanos: u64,
    /// When admission control queued the job (None once admitted or when
    /// it was admitted directly).
    admission_queued_at: Option<Instant>,
    /// Time the job spent in the admission queue before starting.
    admission_wait_nanos: u64,
    /// Remaining executor-loss / fetch-failure resubmissions before the
    /// job gives up and aborts (the per-job recovery budget; failures of
    /// this kind do not charge the per-task attempt budget).
    resubmissions_left: usize,
    /// Retries held back by seeded exponential backoff, as `(due, stage,
    /// partition, attempt)`: drained by the driver's timer once due. The
    /// partitions stay counted in their stage's `remaining`, so a stage
    /// cannot finish around a delayed retry.
    delayed: Vec<(Instant, usize, usize, usize)>,
    /// Backoff strike count per `(stage_idx, partition)`: each delayed
    /// retry of the same task doubles its delay (up to the cap).
    backoff_strikes: HashMap<(usize, usize), usize>,
    reports: Vec<StageReport>,
    /// Result-stage outputs, filled in as task events arrive.
    results: Vec<Option<ErasedResult>>,
    /// Resolves the caller's [`JobHandle`].
    done: Sender<Result<Vec<ErasedResult>, JobError>>,
    started: Instant,
}

impl JobRun {
    /// First touch by the service: demand-driven activation from the
    /// result stage.
    fn start(&mut self) -> Result<(), JobError> {
        self.activate(self.result_idx)
    }

    /// Whether the result stage (and therefore the job) is done.
    fn is_finished(&self) -> bool {
        self.stages[self.result_idx].state == StageState::Finished
    }

    /// Tasks the job would run if every stage ran (skipped-stage reuse can
    /// make the real count smaller): the unit admission control's
    /// per-priority queue bound is expressed in.
    fn planned_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.num_tasks).sum()
    }

    /// Resolves a job that was never admitted (shed, deadlined while
    /// queued, or still queued at teardown): records a report with no
    /// stage entries and resolves the caller's handle with `err`. Nothing
    /// of the job ever ran, so there is nothing to abandon or reclaim.
    fn resolve_unadmitted(mut self: Box<Self>, outcome: JobOutcome, err: TaskError) {
        self.record(outcome);
        let job_error = JobError {
            job_id: self.job_id,
            stage_id: 0,
            partition: 0,
            attempts: 0,
            last_error: err,
        };
        self.stages.clear();
        let _ = self.done.send(Err(job_error));
    }

    /// Advances the job's state machine by one event from the shared loop.
    fn on_event(&mut self, event: ServiceEvent) -> Result<(), JobError> {
        match event {
            ServiceEvent::Task {
                stage_idx,
                partition,
                attempt,
                nanos,
                wait_nanos,
                ran_on,
                stolen,
                speculative,
                outcome,
            } => {
                self.stages[stage_idx].task_nanos += nanos;
                self.stages[stage_idx].counters.tasks_stolen += usize::from(stolen);
                self.executor_busy[ran_on] += nanos;
                self.queue_wait_nanos += wait_nanos;
                // Retire this event's inflight record. No record, or a
                // partition already settled by its first completion, marks
                // a *loser* event — the slower half of a speculation race,
                // or a straggler of a superseded stage run. Its time is
                // accounted above, but it must not touch `remaining`,
                // retries, or any budget: the partition is spoken for.
                let retired = self.retire_attempt(stage_idx, partition, attempt, speculative);
                if !retired || self.stages[stage_idx].finished.contains(&partition) {
                    return Ok(());
                }
                match outcome {
                    Ok(result) => {
                        self.stages[stage_idx].finished.insert(partition);
                        self.stages[stage_idx].durations.push(nanos);
                        if speculative {
                            self.bump(stage_idx, MetricField::SpeculationWins, 1);
                        }
                        // First completion wins the partition; the slower
                        // twin (if racing) is cancelled and its eventual
                        // event drops into the loser path above.
                        self.cancel_partition(stage_idx, partition);
                        if let Some(r) = result {
                            self.results[partition] = Some(r);
                        }
                        self.stages[stage_idx].remaining -= 1;
                        if self.stages[stage_idx].remaining == 0 {
                            self.finish_stage(stage_idx)?;
                        }
                    }
                    Err(_) if self.has_inflight(stage_idx, partition) => {
                        // The twin of the speculation race is still running
                        // and may yet deliver the partition: this side just
                        // drops out, no retry and no budget charge.
                    }
                    Err(TaskError::FetchFailed { shuffle_id, map_id }) => {
                        self.recover_fetch_failure(
                            stage_idx, partition, attempt, shuffle_id, map_id,
                        )?;
                    }
                    Err(err @ (TaskError::ExecutorLost { .. } | TaskError::Cancelled)) => {
                        // The attempt died with its executor (or was
                        // interrupted by a cancellation whose initiator —
                        // a kill racing the epoch check — has no surviving
                        // twin) through no fault of its own: replay it
                        // (same attempt number) on the replacement,
                        // charging only the job's resubmission budget.
                        self.charge_resubmission(stage_idx, partition, attempt, err)?;
                        self.ctx.metrics().add(MetricField::Recomputations, 1);
                        self.resubmit_after_backoff(stage_idx, partition, attempt)?;
                    }
                    Err(err) => {
                        let attempts = attempt + 1;
                        if attempts >= self.ctx.inner.max_task_attempts {
                            return Err(self.abort(stage_idx, partition, attempts, err));
                        }
                        self.ctx.metrics().add(MetricField::TaskRetries, 1);
                        self.ctx.metrics().add(MetricField::Recomputations, 1);
                        self.resubmit_after_backoff(stage_idx, partition, attempt + 1)?;
                    }
                }
            }
            ServiceEvent::External {
                stage_idx,
                completed,
            } => {
                if completed {
                    self.skip(stage_idx);
                    self.satisfy_children(stage_idx)?;
                } else {
                    // The owning job abandoned the shuffle; race to
                    // re-claim it (we may become the owner now).
                    self.stages[stage_idx].state = StageState::Idle;
                    self.activate(stage_idx)?;
                    // If activation skipped or finished it already,
                    // wake the children that were counting on it.
                    if self.stages[stage_idx].is_satisfied() {
                        self.satisfy_children(stage_idx)?;
                    }
                }
            }
            ServiceEvent::Submit(_) | ServiceEvent::Shutdown => {
                unreachable!("control messages are handled by the driver loop")
            }
        }
        Ok(())
    }

    /// Demand-driven activation: resolves the stage to `Skipped`,
    /// `External`, `Running`, or `Waiting` (and recursively activates its
    /// ancestors when this job owns it). Idempotent.
    fn activate(&mut self, idx: usize) -> Result<(), JobError> {
        if self.stages[idx].state != StageState::Idle {
            return Ok(());
        }
        match self.stages[idx].shuffle_id {
            // The result stage is always ours to run.
            None => self.activate_owned(idx),
            Some(shuffle_id) => match self.ctx.inner.shuffle.try_claim(shuffle_id) {
                ShuffleClaim::Completed => {
                    self.skip(idx);
                    Ok(())
                }
                ShuffleClaim::InFlight => {
                    self.watch(idx, shuffle_id);
                    Ok(())
                }
                ShuffleClaim::Owner(claim) => {
                    self.owned.insert(shuffle_id);
                    self.stages[idx].claim = Some(claim);
                    self.activate_owned(idx)
                }
            },
        }
    }

    /// Activates a stage this job owns: activates its parents, then either
    /// submits it (all parents satisfied) or parks it in `Waiting`.
    fn activate_owned(&mut self, idx: usize) -> Result<(), JobError> {
        self.stages[idx].state = StageState::Waiting;
        let parents = self.stages[idx].parents.clone();
        let mut waiting_on = 0;
        for p in parents {
            self.activate(p)?;
            if !self.stages[p].is_satisfied() {
                waiting_on += 1;
            }
        }
        self.stages[idx].waiting_on = waiting_on;
        if waiting_on == 0 {
            self.submit_stage(idx)?;
        }
        Ok(())
    }

    /// Marks a stage satisfied-without-running and accounts the skip.
    fn skip(&mut self, idx: usize) {
        let snap = self.ctx.metrics_snapshot();
        let stage = &mut self.stages[idx];
        stage.state = StageState::Skipped;
        stage.stage_id = self.ctx.new_stage_id();
        self.ctx.metrics().add(MetricField::StagesSkipped, 1);
        self.reports
            .push(stage.report(StageOutcome::Skipped, &snap));
    }

    /// Subscribes to an in-flight external shuffle: when the owning job
    /// completes (or abandons) it, the callback posts back into the shared
    /// loop tagged with this job's id. No thread is parked; if this job
    /// aborts meanwhile, the event is dropped as a stale tag when it
    /// fires.
    fn watch(&mut self, idx: usize, shuffle_id: usize) {
        self.stages[idx].state = StageState::External;
        let tx = self.tx.clone();
        self.ctx.inner.shuffle.subscribe(
            shuffle_id,
            Box::new(move |completed| {
                let _ = tx.send(ServiceEvent::External {
                    stage_idx: idx,
                    completed,
                });
            }),
        );
    }

    /// Submits every task of a stage to the executor pool, grouped by the
    /// runtime coalescing plan when the stage reads shuffle output.
    fn submit_stage(&mut self, idx: usize) -> Result<(), JobError> {
        let num_tasks = self.stages[idx].num_tasks;
        self.begin_run(idx, num_tasks);
        if num_tasks == 0 {
            return self.finish_stage(idx);
        }
        let groups = self.plan_task_groups(idx);
        if groups.len() < num_tasks {
            let merged = num_tasks - groups.len();
            self.bump(idx, MetricField::PartitionsCoalesced, merged as u64);
        }
        for group in groups {
            self.submit_attempts(idx, group, 0)?;
        }
        Ok(())
    }

    /// Starts a run of stage `idx` with `remaining` tasks outstanding: a
    /// fresh stage id and zeroed per-run accounting (a stage can run more
    /// than once per job — a map recovery, or a watched external shuffle
    /// abandoned mid-recovery), and the run and its planned rewrites
    /// counted.
    fn begin_run(&mut self, idx: usize, remaining: usize) {
        let snap = self.ctx.metrics_snapshot();
        let stage = &mut self.stages[idx];
        stage.stage_id = self.ctx.new_stage_id();
        stage.state = StageState::Running;
        stage.remaining = remaining;
        stage.task_nanos = 0;
        stage.inflight.clear();
        stage.durations.clear();
        stage.finished.clear();
        stage.counters = StageCounters::default();
        stage.spill_baseline = snap;
        stage.started = Some(Instant::now());
        let plan = stage.plan;
        self.ctx.metrics().add(MetricField::StagesRun, 1);
        if plan.fused_chains > 0 {
            self.bump(idx, MetricField::StagesFused, plan.fused_chains as u64);
        }
        if plan.elided_shuffles > 0 {
            self.bump(
                idx,
                MetricField::ShufflesElided,
                plan.elided_shuffles as u64,
            );
        }
        self.running += 1;
        self.max_concurrent = self.max_concurrent.max(self.running);
    }

    /// Counts `amount` of a stage-scoped counter against stage `idx`'s
    /// current run and the context together.
    fn bump(&mut self, idx: usize, field: MetricField, amount: u64) {
        self.stages[idx].counters.add(field, amount);
        self.ctx.metrics().add(field, amount);
    }

    /// Partition grouping for one stage run. When runtime coalescing is on
    /// and the stage reads shuffle output, the per-bucket byte counts the
    /// map stages deposited are packed into contiguous task groups
    /// ([`plan::coalesce_task_groups`]), floored at one group per executor
    /// so coalescing never costs parallelism. Every other stage (and every
    /// retry or recovery resubmission) runs one task per partition.
    fn plan_task_groups(&self, idx: usize) -> Vec<Vec<usize>> {
        let stage = &self.stages[idx];
        let planner = self.ctx.planner();
        if !planner.coalesce_partitions || stage.num_tasks <= 1 || stage.parents.is_empty() {
            return (0..stage.num_tasks).map(|p| vec![p]).collect();
        }
        let mut bytes = vec![0usize; stage.num_tasks];
        for &p in &stage.parents {
            if let Some(shuffle_id) = self.stages[p].shuffle_id {
                let per = self
                    .ctx
                    .inner
                    .blocks
                    .reduce_bucket_bytes(shuffle_id, stage.num_tasks);
                for (acc, add) in bytes.iter_mut().zip(per) {
                    *acc = acc.saturating_add(add);
                }
            }
        }
        plan::coalesce_task_groups(
            &bytes,
            planner.target_partition_bytes,
            self.ctx.num_executors(),
        )
    }

    /// Submits one task attempt, placed on the executor owning its
    /// partition and tagged with the job's priority. Retries and recovery
    /// resubmissions always come through here as singletons, so their
    /// attempt bookkeeping is untouched by coalescing.
    fn submit_task(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempt: usize,
    ) -> Result<(), JobError> {
        self.submit_attempts(stage_idx, vec![partition], attempt)
    }

    /// Launches the duplicate side of a speculation race: the same attempt
    /// number as the running original, flagged speculative, placed on the
    /// least-loaded executor *other than* the one the straggler occupies,
    /// so the duplicate cannot queue behind the very task it is meant to
    /// overtake (a one-task backlog behind a wedged body is never stolen).
    /// The original's token locates where it actually runs — a stolen
    /// straggler executes away from its home slot, and a straggler still
    /// *queued* (stuck behind another straggler) runs nowhere yet, in
    /// which case its home queue is the one to avoid.
    fn submit_speculative(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempt: usize,
    ) -> Result<(), JobError> {
        let original_token = self.stages[stage_idx]
            .inflight
            .get(&partition)
            .and_then(|attempts| attempts.first())
            .map(|a| a.token.clone());
        let avoid = original_token
            .and_then(|token| self.ctx.inner.pool.executor_running(&token))
            .map(|(executor, _)| executor)
            .unwrap_or_else(|| self.ctx.inner.pool.executor_for(partition));
        let lens = self.ctx.inner.pool.queue_lens();
        // Quarantined slots are drained: never hand a duplicate to the
        // very kind of executor speculation exists to escape. With no
        // healthy alternative, any other slot will do, and a one-executor
        // cluster simply skips the duplicate (the original still runs).
        let board = self.ctx.inner.pool.health_board();
        let target = (0..lens.len())
            .filter(|&e| e != avoid && board.state(e) == STATE_HEALTHY)
            .min_by_key(|&e| lens[e])
            .or_else(|| {
                (0..lens.len())
                    .filter(|&e| e != avoid)
                    .min_by_key(|&e| lens[e])
            });
        let Some(target) = target else {
            return Ok(());
        };
        self.submit_group(stage_idx, vec![partition], attempt, true, Some(target))
    }

    /// Submits one executor task covering `partitions` (a coalesced group,
    /// or a singleton), placed on the executor owning the first partition
    /// and tagged with the job's priority. The task runs each partition's
    /// body in order and posts one [`ServiceEvent::Task`] per partition,
    /// so `remaining`, retry, and fetch-failure recovery bookkeeping are
    /// identical to ungrouped execution — a partition that fails inside a
    /// group is replayed as a singleton while its group-mates' outcomes
    /// stand. A shut-down pool aborts the job cleanly.
    fn submit_attempts(
        &mut self,
        stage_idx: usize,
        partitions: Vec<usize>,
        attempt: usize,
    ) -> Result<(), JobError> {
        self.submit_group(stage_idx, partitions, attempt, false, None)
    }

    /// The common submission body behind [`Self::submit_attempts`] and
    /// [`Self::submit_speculative`]: registers the group's attempts as
    /// inflight under a shared [`CancelToken`], then queues one executor
    /// task — placed by partition ownership, or on `place_on` for a
    /// speculative duplicate.
    fn submit_group(
        &mut self,
        stage_idx: usize,
        partitions: Vec<usize>,
        attempt: usize,
        speculative: bool,
        place_on: Option<usize>,
    ) -> Result<(), JobError> {
        let stage = &self.stages[stage_idx];
        let job_id = self.job_id;
        let stage_id = stage.stage_id;
        let site_rdd = stage.site_rdd;
        let claim = stage.claim;
        let home = partitions[0];
        let work = Arc::clone(&stage.work);
        let tx = self.tx.clone();
        let ctx = self.ctx.clone();
        let queued = Instant::now();
        let token = CancelToken::new();
        let singleton = partitions.len() == 1;
        for &partition in &partitions {
            self.stages[stage_idx]
                .inflight
                .entry(partition)
                .or_default()
                .push(Attempt {
                    attempt,
                    speculative,
                    singleton,
                    token: token.clone(),
                });
        }
        let task = Box::new(move |info: &TaskInfo| {
            let wait_nanos = queued.elapsed().as_nanos() as u64;
            // Wrapped in an Option so the last partition can release it
            // before its completion event (see below).
            let mut work = Some(work);
            let last = partitions.len() - 1;
            for (i, &partition) in partitions.iter().enumerate() {
                ctx.metrics().add(MetricField::TasksRun, 1);
                if info.stolen {
                    ctx.metrics().add(MetricField::TasksStolen, 1);
                }
                let site = TaskSite {
                    rdd_id: site_rdd,
                    partition,
                };
                // Built here, not at submission: the executor (and its
                // incarnation) are only known once the attempt starts, and
                // everything the attempt produces is attributed to them.
                let tc = TaskContext {
                    job_id,
                    stage_id,
                    partition,
                    attempt,
                    executor: info.ran_on,
                    epoch: info.epoch,
                    claim,
                };
                let start = Instant::now();
                let body = work.as_ref().expect("task group released work early");
                // An armed wedge turns this attempt into a deterministic
                // straggler: it spins at a cancellation point in place of
                // its body until the driver's speculation (or an abort)
                // cancels it. The wedge is consumed here, so the
                // speculative duplicate of the same site runs clean. A
                // stall is the sneakier cousin: the spin keeps stamping
                // heartbeats (the executor looks alive) but never ticks
                // progress, so only the no-progress watchdog can see it.
                let wedged = ctx.inner.failures.take_wedge(site);
                let stalled = ctx.inner.failures.take_stall(site);
                let mut outcome = if ctx.inner.failures.should_fail(site, attempt)
                    || ctx.inner.failures.should_fail_on(info.ran_on)
                {
                    Err(TaskError::Injected)
                } else {
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        if wedged {
                            loop {
                                cancellation_point();
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        }
                        if stalled {
                            loop {
                                // Deliberately NOT cancellation_point():
                                // that would tick progress and hide the
                                // stall from the watchdog.
                                if is_task_cancelled() {
                                    std::panic::panic_any(CancelledError);
                                }
                                stamp_heartbeat_only();
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        }
                        body(&tc)
                    }))
                    .map_err(|payload| {
                        if payload.downcast_ref::<CancelledError>().is_some() {
                            TaskError::Cancelled
                        } else {
                            match payload.downcast_ref::<FetchFailedError>() {
                                Some(fetch) => TaskError::FetchFailed {
                                    shuffle_id: fetch.shuffle_id,
                                    map_id: fetch.map_id,
                                },
                                None => TaskError::Panicked(panic_message(payload.as_ref())),
                            }
                        }
                    })
                };
                // The injector's executor kills fire here, after the victim's
                // Nth task body ran: the kill discards the incarnation's
                // blocks and retires its epoch, so the check below turns this
                // very attempt into the first casualty.
                if ctx.inner.failures.take_executor_kill(info.ran_on) {
                    ctx.kill_executor(info.ran_on);
                }
                // An attempt that outlived its incarnation lost its output
                // with the executor; report the loss instead of a stale
                // success. A fetch failure keeps precedence — it names the
                // shuffle the scheduler must repair either way — and so does
                // an injected failure: `fail_task` armed together with
                // `kill_executor_after` must still charge the attempt budget
                // deterministically, not vanish into the free replay the
                // executor-lost path grants. Later partitions of a killed
                // group run under the stale epoch and take the same
                // executor-lost replay, one event each.
                if ctx.inner.pool.epoch(info.ran_on) != info.epoch
                    && !matches!(
                        outcome,
                        Err(TaskError::FetchFailed { .. }) | Err(TaskError::Injected)
                    )
                {
                    outcome = Err(TaskError::ExecutorLost {
                        executor: info.ran_on,
                    });
                }
                // Release the work closure (and the lineage Arcs it captures)
                // BEFORE signalling the driver: once the driver sees the
                // group's final event the job may return and drop its RDDs,
                // and shuffle garbage collection relies on those being the
                // last references.
                if i == last {
                    drop(work.take());
                }
                // The driver may have aborted the job already; its tag is
                // simply stale by the time this lands. Queue wait is
                // charged once per executor task, on its first partition.
                let _ = tx.send(ServiceEvent::Task {
                    stage_idx,
                    partition,
                    attempt,
                    nanos: start.elapsed().as_nanos() as u64,
                    wait_nanos: if i == 0 { wait_nanos } else { 0 },
                    ran_on: info.ran_on,
                    stolen: info.stolen,
                    speculative,
                    outcome,
                });
            }
        });
        let tag = TaskTag {
            job_id: self.job_id,
            priority: self.priority,
        };
        let submitted = match place_on {
            Some(executor) => self
                .ctx
                .inner
                .pool
                .submit_on(executor, tag, Some(token), task),
            None => self
                .ctx
                .inner
                .pool
                .submit_cancellable(home, tag, token, task),
        };
        if submitted.is_err() {
            return Err(self.abort(stage_idx, home, attempt, TaskError::ExecutorShutdown));
        }
        Ok(())
    }

    /// Drops the inflight record of one completed (or failed) attempt.
    /// Returns `false` when no such record exists: the event is a loser —
    /// its partition was settled and cancelled, or its stage run was
    /// superseded by a recovery re-run.
    fn retire_attempt(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempt: usize,
        speculative: bool,
    ) -> bool {
        let stage = &mut self.stages[stage_idx];
        let Some(attempts) = stage.inflight.get_mut(&partition) else {
            return false;
        };
        let Some(pos) = attempts
            .iter()
            .position(|a| a.attempt == attempt && a.speculative == speculative)
        else {
            return false;
        };
        attempts.remove(pos);
        if attempts.is_empty() {
            stage.inflight.remove(&partition);
        }
        true
    }

    /// Whether any attempt of `partition` is still running (the other side
    /// of a speculation race, from the perspective of a failed event).
    fn has_inflight(&self, stage_idx: usize, partition: usize) -> bool {
        self.stages[stage_idx]
            .inflight
            .get(&partition)
            .is_some_and(|a| !a.is_empty())
    }

    /// Cancels every still-running attempt of `partition` — the losers of
    /// its settled race — counting each cancellation.
    fn cancel_partition(&mut self, stage_idx: usize, partition: usize) {
        let Some(attempts) = self.stages[stage_idx].inflight.remove(&partition) else {
            return;
        };
        for a in &attempts {
            a.token.cancel();
        }
        self.bump(
            stage_idx,
            MetricField::TasksCancelled,
            attempts.len() as u64,
        );
    }

    /// Cancels every running attempt of every stage: job aborts and
    /// expired deadlines must not leave wedged task bodies holding
    /// executors hostage until they finish on their own.
    fn cancel_all_inflight(&mut self) {
        for idx in 0..self.stages.len() {
            let inflight = std::mem::take(&mut self.stages[idx].inflight);
            let mut cancelled = 0;
            for a in inflight.values().flatten() {
                a.token.cancel();
                cancelled += 1;
            }
            if cancelled > 0 {
                self.bump(idx, MetricField::TasksCancelled, cancelled);
            }
        }
    }

    /// Whether the driver should keep a poll timer alive for this job:
    /// some running stage has at least one completed-duration sample and a
    /// lone original attempt that could ripen into a speculation
    /// candidate without generating any event on its own.
    fn wants_speculation_poll(&self) -> bool {
        self.ctx.inner.speculation.enabled
            && self.ctx.num_executors() >= 2
            && self.stages.iter().any(|s| {
                s.state == StageState::Running
                    && !s.durations.is_empty()
                    && s.inflight
                        .values()
                        .any(|a| matches!(&a[..], [x] if !x.speculative && x.singleton))
            })
    }

    /// Whether the driver should keep a poll timer alive for the health
    /// monitor: heartbeats go silent and progress counters freeze without
    /// generating any event, so while this job has attempts in flight (and
    /// monitoring is on) the loop must wake on time to notice.
    fn wants_health_poll(&self) -> bool {
        self.ctx.inner.health.enabled
            && self
                .stages
                .iter()
                .any(|s| s.state == StageState::Running && !s.inflight.is_empty())
    }

    /// When the soonest backoff-delayed retry comes due, if any.
    fn nearest_backoff_due(&self) -> Option<Instant> {
        self.delayed.iter().map(|&(due, ..)| due).min()
    }

    /// Re-submits a retry through seeded exponential backoff: the first
    /// strike of a task waits ~`base`, doubling (with deterministic jitter)
    /// per subsequent strike up to the cap. With backoff disabled (the
    /// `SPANGLE_DISABLE_HEALTH=1` kill switch) the retry is immediate —
    /// exactly the pre-health behavior.
    fn resubmit_after_backoff(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempt: usize,
    ) -> Result<(), JobError> {
        let strike = {
            let s = self
                .backoff_strikes
                .entry((stage_idx, partition))
                .or_insert(0);
            let current = *s;
            *s += 1;
            current
        };
        let delay = self
            .ctx
            .inner
            .backoff
            .delay(self.job_id, stage_idx, partition, strike);
        if delay.is_zero() {
            return self.submit_task(stage_idx, partition, attempt);
        }
        self.bump(
            stage_idx,
            MetricField::BackoffNanos,
            delay.as_nanos() as u64,
        );
        self.delayed
            .push((Instant::now() + delay, stage_idx, partition, attempt));
        Ok(())
    }

    /// Submits every delayed retry whose backoff has elapsed.
    fn drain_due_backoff(&mut self) -> Result<(), JobError> {
        if self.delayed.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        let mut due = Vec::new();
        self.delayed.retain(|&(at, stage_idx, partition, attempt)| {
            let ready = at <= now;
            if ready {
                due.push((stage_idx, partition, attempt));
            }
            !ready
        });
        for (stage_idx, partition, attempt) in due {
            self.submit_task(stage_idx, partition, attempt)?;
        }
        Ok(())
    }

    /// The driver's health pass over this job: releases due backoff
    /// retries, then — with monitoring on — runs the two autonomous
    /// detectors over every in-flight attempt that is actually occupying
    /// an executor right now.
    ///
    /// *Loss*: an executor with a running attempt that has stamped nothing
    /// for `missed_heartbeat_limit` heartbeat intervals (and whose attempt
    /// has been running at least that long, so an idle executor's silence
    /// before the task started is never charged) is declared lost and
    /// killed — [`crate::context::SpangleContext::kill_executor`] discards
    /// its blocks and seats a replacement, and the attempt's failure event
    /// routes through the existing executor-loss recovery. *Watchdog*: an
    /// attempt whose executor keeps heartbeating while its progress
    /// counter stays frozen past the watchdog interval gets a speculative
    /// duplicate on another executor; first completion wins, exactly like
    /// a straggler race. Detection is new here — recovery semantics are
    /// the PR 4 / PR 7 paths unchanged.
    fn health_tick(&mut self, monitor: &mut HealthMonitor) -> Result<(), JobError> {
        self.drain_due_backoff()?;
        let cfg = self.ctx.inner.health;
        if !cfg.enabled {
            return Ok(());
        }
        monitor.ensure_executors(self.ctx.num_executors());
        let board = self.ctx.inner.pool.health_board();
        let now = Instant::now();

        // Everything of this job actually running right now: per-executor
        // earliest run stamp (for loss), plus the lone original singleton
        // attempts (the only watchdog/speculation candidates).
        let mut busy: HashMap<usize, Instant> = HashMap::new();
        let mut watch: Vec<(usize, usize, usize, usize, Instant)> = Vec::new();
        for (idx, stage) in self.stages.iter().enumerate() {
            if stage.state != StageState::Running {
                continue;
            }
            for (&partition, attempts) in &stage.inflight {
                let lone_original = matches!(&attempts[..], [a] if !a.speculative && a.singleton);
                for a in attempts {
                    let Some((executor, since)) = self.ctx.inner.pool.executor_running(&a.token)
                    else {
                        continue;
                    };
                    let earliest = busy.entry(executor).or_insert(since);
                    if since < *earliest {
                        *earliest = since;
                    }
                    if lone_original {
                        watch.push((executor, idx, partition, a.attempt, since));
                    }
                }
            }
        }

        let loss = cfg.loss_threshold();
        let lost: Vec<usize> = busy
            .iter()
            .filter(|&(&e, &since)| {
                now.duration_since(since) > loss && board.heartbeat_age(e) > loss
            })
            .map(|(&e, _)| e)
            .collect();
        for executor in lost {
            let interval = cfg.heartbeat_interval.as_nanos().max(1);
            let missed = (board.heartbeat_age(executor).as_nanos() / interval) as u64;
            self.ctx
                .metrics()
                .add(MetricField::HeartbeatsMissed, missed);
            // The kill cancels the running attempt and resets the slot's
            // heartbeat; the attempt's executor-lost event replays it on
            // the replacement through the standard recovery path.
            self.ctx.kill_executor(executor);
        }

        if self.ctx.num_executors() >= 2 {
            let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
            let mut trips: Vec<(usize, usize, usize)> = Vec::new();
            for (executor, idx, partition, attempt, since) in watch {
                let key = (self.job_id, idx, partition);
                seen.insert(key);
                let progress = board.progress_value(executor);
                let obs = monitor.observed.entry(key).or_insert(ProgressObs {
                    progress,
                    since: now,
                    tripped: false,
                });
                if progress != obs.progress {
                    // The executor ticked since we last looked: rebaseline.
                    obs.progress = progress;
                    obs.since = now;
                    obs.tripped = false;
                } else if !obs.tripped
                    && now.duration_since(obs.since.max(since)) > cfg.watchdog_interval
                {
                    obs.tripped = true;
                    trips.push((idx, partition, attempt));
                }
            }
            monitor
                .observed
                .retain(|key, _| key.0 != self.job_id || seen.contains(key));
            for (idx, partition, attempt) in trips {
                self.bump(idx, MetricField::WatchdogTrips, 1);
                self.bump(idx, MetricField::TasksSpeculated, 1);
                self.submit_speculative(idx, partition, attempt)?;
            }
        }
        Ok(())
    }

    /// The speculation scan: for every running stage with completed
    /// samples, any lone, original, singleton attempt whose *running*
    /// time exceeds the configured multiple of the stage's median
    /// completed duration (and the floor) gets a duplicate on another
    /// executor. Running time is measured from the pool's run stamp, not
    /// from submission: a task still parked in a queue (behind a
    /// straggler, say) is not itself slow and is never duplicated — the
    /// straggler in front of it is.
    fn check_speculation(&mut self) -> Result<(), JobError> {
        let cfg = self.ctx.inner.speculation;
        if !cfg.enabled || self.ctx.num_executors() < 2 {
            return Ok(());
        }
        let now = Instant::now();
        let mut launch: Vec<(usize, usize, usize)> = Vec::new();
        for (idx, stage) in self.stages.iter().enumerate() {
            if stage.state != StageState::Running || stage.durations.is_empty() {
                continue;
            }
            let median = median_nanos(&stage.durations);
            let threshold =
                Duration::from_nanos((median as f64 * cfg.multiplier) as u64).max(cfg.min_runtime);
            for (&partition, attempts) in &stage.inflight {
                let [a] = &attempts[..] else { continue };
                if a.speculative || !a.singleton {
                    continue;
                }
                let Some((_, running_since)) = self.ctx.inner.pool.executor_running(&a.token)
                else {
                    continue;
                };
                if now.duration_since(running_since) > threshold {
                    launch.push((idx, partition, a.attempt));
                }
            }
        }
        for (idx, partition, attempt) in launch {
            self.bump(idx, MetricField::TasksSpeculated, 1);
            self.submit_speculative(idx, partition, attempt)?;
        }
        Ok(())
    }

    /// All tasks of a stage completed: publish its shuffle, account it,
    /// and wake children that were waiting on it.
    fn finish_stage(&mut self, idx: usize) -> Result<(), JobError> {
        let snap = self.ctx.metrics_snapshot();
        let stage = &mut self.stages[idx];
        stage.state = StageState::Finished;
        self.running -= 1;
        if let Some(shuffle_id) = stage.shuffle_id {
            // The returned missing-map list can be non-empty here: an
            // executor killed between a map task's completion and stage
            // close already took that output with it. The first dependent
            // fetch surfaces it as FetchFailed and recovery re-runs
            // exactly those maps, so no proactive action is needed.
            let _ = self
                .ctx
                .inner
                .shuffle
                .mark_completed(shuffle_id, stage.num_tasks);
            self.owned.remove(&shuffle_id);
        }
        self.reports.push(stage.report(StageOutcome::Ran, &snap));
        self.satisfy_children(idx)
    }

    /// Decrements the waiting count of every child parked on this (now
    /// satisfied) stage and submits those that became ready. Also replays
    /// any running child's attempts that were parked on a fetch failure
    /// against this stage's shuffle — its lost map output is whole again.
    fn satisfy_children(&mut self, idx: usize) -> Result<(), JobError> {
        let children = self.stages[idx].children.clone();
        for child in children {
            if self.stages[child].state == StageState::Waiting {
                self.stages[child].waiting_on -= 1;
                if self.stages[child].waiting_on == 0 {
                    self.submit_stage(child)?;
                }
            }
        }
        if let Some(shuffle_id) = self.stages[idx].shuffle_id {
            let children = self.stages[idx].children.clone();
            for child in children {
                self.flush_parked(child, shuffle_id)?;
            }
        }
        Ok(())
    }

    /// Re-submits every attempt of `idx` parked on `shuffle_id`, keeping
    /// the original attempt numbers (the failures were the parent's
    /// fault).
    fn flush_parked(&mut self, idx: usize, shuffle_id: usize) -> Result<(), JobError> {
        let mut parked = Vec::new();
        self.stages[idx].pending_retry.retain(|entry| {
            let matches = entry.2 == shuffle_id;
            if matches {
                parked.push((entry.0, entry.1));
            }
            !matches
        });
        for (partition, attempt) in parked {
            self.resubmit_after_backoff(idx, partition, attempt)?;
        }
        Ok(())
    }

    /// Handles a [`TaskError::FetchFailed`]: parks the failed attempt
    /// (without decrementing the stage's outstanding count or charging its
    /// attempt budget), then makes sure the parent shuffle's missing map
    /// output is being rebuilt — by claiming the recovery and resubmitting
    /// exactly the lost map partitions, by watching another job's
    /// in-flight rebuild, or by finding it already whole again.
    fn recover_fetch_failure(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempt: usize,
        shuffle_id: usize,
        map_id: usize,
    ) -> Result<(), JobError> {
        self.bump(stage_idx, MetricField::FetchFailures, 1);
        self.charge_resubmission(
            stage_idx,
            partition,
            attempt,
            TaskError::FetchFailed { shuffle_id, map_id },
        )?;
        self.stages[stage_idx]
            .pending_retry
            .push((partition, attempt, shuffle_id));
        let parent_idx = self
            .stages
            .iter()
            .position(|s| s.shuffle_id == Some(shuffle_id))
            .expect("fetch failure names a shuffle outside the job's stage graph");
        if matches!(
            self.stages[parent_idx].state,
            StageState::Running | StageState::External
        ) {
            // Already being handled: an earlier fetch failure started a
            // recovery run (Running) or subscribed to another job's
            // (External). The parked attempt flushes when it resolves.
            //
            // Any other state proceeds to claim the recovery — including
            // `Idle`: demand-driven activation never descends past a
            // skipped stage, so a grandparent shuffle of an all-skipped
            // ancestry is first reached *here*, when a recovery task
            // trips over its holes.
            return Ok(());
        }
        let num_maps = self.stages[parent_idx].num_tasks;
        match self.ctx.inner.shuffle.claim_recovery(shuffle_id, num_maps) {
            RecoveryClaim::Owner { missing, claim } => {
                self.start_map_recovery(parent_idx, missing, claim)
            }
            RecoveryClaim::InFlight => {
                self.watch(parent_idx, shuffle_id);
                Ok(())
            }
            RecoveryClaim::Recovered => self.flush_parked(stage_idx, shuffle_id),
        }
    }

    /// Re-runs the `missing` map partitions of an already-completed map
    /// stage from lineage: the stage goes back to `Running` under a fresh
    /// stage id with only the missing tasks outstanding — surviving
    /// partitions' output is reused, never recomputed.
    fn start_map_recovery(
        &mut self,
        idx: usize,
        missing: Vec<usize>,
        claim: ClaimId,
    ) -> Result<(), JobError> {
        let shuffle_id = self.stages[idx]
            .shuffle_id
            .expect("map recovery targets a shuffle stage");
        self.owned.insert(shuffle_id);
        self.stages[idx].claim = Some(claim);
        self.begin_run(idx, missing.len());
        self.bump(
            idx,
            MetricField::MapPartitionsRecomputed,
            missing.len() as u64,
        );
        for partition in missing {
            self.submit_task(idx, partition, 0)?;
        }
        Ok(())
    }

    /// Spends one unit of the job's recovery budget; when the budget is
    /// gone the job aborts (a permanently poisoned shuffle must not loop
    /// forever).
    fn charge_resubmission(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempt: usize,
        err: TaskError,
    ) -> Result<(), JobError> {
        if self.resubmissions_left == 0 {
            return Err(self.abort(stage_idx, partition, attempt + 1, err));
        }
        self.resubmissions_left -= 1;
        Ok(())
    }

    /// Aborts the job: releases every shuffle claim the job still holds
    /// (dropping their partial map output) so other or future jobs can
    /// re-claim and run those map stages.
    fn abort(
        &mut self,
        stage_idx: usize,
        partition: usize,
        attempts: usize,
        last_error: TaskError,
    ) -> JobError {
        // Interrupt every still-running attempt at its next cancellation
        // point: an abort (or expired deadline) must free the executors,
        // not wait out wedged bodies.
        self.cancel_all_inflight();
        for shuffle_id in self.owned.drain() {
            self.ctx.inner.shuffle.abandon(&self.ctx, shuffle_id);
        }
        JobError {
            job_id: self.job_id,
            stage_id: self.stages[stage_idx].stage_id,
            partition,
            attempts,
            last_error,
        }
    }

    /// Resolves a successful job: records its report (before the handle
    /// resolves), then hands the caller its results.
    fn finish(mut self) {
        self.record(JobOutcome::Succeeded);
        let results: Vec<ErasedResult> = std::mem::take(&mut self.results)
            .into_iter()
            .map(|r| r.expect("job finished with a missing partition result"))
            .collect();
        // Release the stage graph (and the lineage Arcs its work closures
        // capture) BEFORE unblocking the caller: shuffle garbage
        // collection relies on the caller's drop being the last reference.
        self.stages.clear();
        let _ = self.done.send(Ok(results));
    }

    /// Resolves an aborted job: every stage still in flight gets a
    /// [`StageOutcome::Aborted`] entry so its partial task time and steal
    /// counts are not lost, the report is recorded with
    /// [`JobOutcome::Aborted`], and only then does the caller's handle
    /// resolve with the error — `last_job_report()` after a failed action
    /// therefore describes the failed job, not the previous one.
    fn fail(self, err: JobError) {
        self.fail_with(JobOutcome::Aborted, err);
    }

    /// [`fail`](Self::fail) with an explicit outcome: the deadline path
    /// records [`JobOutcome::Deadlined`] instead of `Aborted` while
    /// sharing the abort bookkeeping (in-flight stage reports, shuffle
    /// abandon already done by the caller, handle resolution last).
    fn fail_with(mut self, outcome: JobOutcome, err: JobError) {
        let snap = self.ctx.metrics_snapshot();
        let aborted: Vec<StageReport> = self
            .stages
            .iter()
            .filter(|stage| stage.state == StageState::Running)
            .map(|stage| stage.report(StageOutcome::Aborted, &snap))
            .collect();
        self.reports.extend(aborted);
        self.record(outcome);
        // As in `finish`: the caller must hold the last lineage references
        // once it unblocks.
        self.stages.clear();
        let _ = self.done.send(Err(err));
    }

    /// Records the job's [`JobReport`] on the context's metrics.
    fn record(&mut self, outcome: JobOutcome) {
        self.ctx.metrics().record_job(JobReport {
            job_id: self.job_id,
            outcome,
            priority: self.priority,
            stages: std::mem::take(&mut self.reports),
            max_concurrent_stages: self.max_concurrent,
            executor_busy_nanos: std::mem::take(&mut self.executor_busy),
            queue_wait_nanos: self.queue_wait_nanos,
            admission_wait_nanos: self.admission_wait_nanos,
            wall_nanos: self.started.elapsed().as_nanos() as u64,
        });
    }
}

impl Stage {
    /// Whether dependents of this stage can read its shuffle output.
    fn is_satisfied(&self) -> bool {
        matches!(self.state, StageState::Finished | StageState::Skipped)
    }

    /// The stage's entry in its job's report, given the context's counters
    /// `now`. A finished or aborted stage reports its current run; a
    /// skipped one ran nothing in this job, so it reports no time and zero
    /// counters.
    fn report(&self, outcome: StageOutcome, now: &MetricsSnapshot) -> StageReport {
        let ran = outcome != StageOutcome::Skipped;
        StageReport {
            stage_id: self.stage_id,
            shuffle_id: self.shuffle_id,
            num_tasks: self.num_tasks,
            outcome,
            task_nanos: if ran { self.task_nanos } else { 0 },
            wall_nanos: match self.started {
                Some(started) if ran => started.elapsed().as_nanos() as u64,
                _ => 0,
            },
            counters: if ran {
                self.counters.with_window(now, &self.spill_baseline)
            } else {
                StageCounters::default()
            },
        }
    }
}

/// Median of the completed-attempt durations, in nanoseconds (upper
/// median for even counts — speculation prefers the conservative side).
fn median_nanos(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::SpeculationConfig;
    use crate::metrics::{JobOutcome, StageOutcome};
    use crate::rdd::pair::PairRdd;
    use crate::{HashPartitioner, SpangleContext};
    use std::sync::Arc;

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn reduce_by_key_merges_all_values() {
        let ctx = SpangleContext::new(3);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 1)).collect();
        let rdd = ctx.parallelize(pairs, 5);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(4)), |a, b| a + b);
        let out = sorted(reduced.collect().unwrap());
        assert_eq!(out, (0u64..10).map(|k| (k, 10u64)).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_job_runs_two_stages_and_charges_bytes() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..50).map(|i| (i % 5, i)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        let before = ctx.metrics_snapshot();
        reduced.collect().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 2, "one map stage + one result stage");
        assert_eq!(delta.tasks_run, 4 + 3);
        assert!(delta.shuffle_write_bytes > 0);
        assert!(delta.shuffle_read_bytes > 0);
    }

    #[test]
    fn second_action_skips_the_completed_map_stage() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..50).map(|i| (i % 5, i)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        reduced.collect().unwrap();
        let before = ctx.metrics_snapshot();
        reduced.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 1, "map stage must be skipped");
        assert_eq!(delta.stages_skipped, 1);
        assert_eq!(delta.shuffle_write_bytes, 0);
        let report = ctx.last_job_report().unwrap();
        assert_eq!(report.stages_run(), 1);
        assert_eq!(report.stages_skipped(), 1);
        assert_eq!(report.outcome, JobOutcome::Succeeded);
    }

    #[test]
    fn join_produces_the_cross_product_per_key() {
        let ctx = SpangleContext::new(2);
        let left = ctx.parallelize(vec![(1u64, "a"), (1, "b"), (2, "c")], 2);
        let right = ctx.parallelize(vec![(1u64, 10u64), (2, 20), (3, 30)], 2);
        // &str is not MemSize; map to String first.
        let left = left.map(|(k, v)| (k, v.to_string()));
        let joined = left.join(&right, Arc::new(HashPartitioner::new(2)));
        let out = sorted(joined.collect().unwrap());
        assert_eq!(
            out,
            vec![
                (1, ("a".to_string(), 10)),
                (1, ("b".to_string(), 10)),
                (2, ("c".to_string(), 20)),
            ]
        );
    }

    #[test]
    fn cogroup_of_copartitioned_sides_is_shuffle_free() {
        // Asserts the shuffle-elision rewrite itself, so pin it on
        // regardless of SPANGLE_DISABLE_PLANNER.
        let ctx = SpangleContext::builder()
            .executors(2)
            .elide_shuffles(true)
            .build();
        let p: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(4));
        let left = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4)
            .partition_by(p.clone());
        let right = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 4)
            .partition_by(p.clone());
        // Materialise both sides' shuffles first.
        left.persist().count().unwrap();
        right.persist().count().unwrap();

        let before = ctx.metrics_snapshot();
        let grouped = left.cogroup(&right, p);
        let n = grouped.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(n, 8);
        assert_eq!(delta.shuffle_write_bytes, 0, "local join must not shuffle");
        assert_eq!(delta.stages_run, 1, "local join runs in a single stage");
    }

    #[test]
    fn cogroup_of_unaligned_sides_shuffles_both() {
        let ctx = SpangleContext::new(2);
        let left = ctx.parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4);
        let right = ctx.parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 5);
        let before = ctx.metrics_snapshot();
        let grouped = left.cogroup(&right, Arc::new(HashPartitioner::new(4)));
        grouped.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 3, "two map stages + result stage");
        assert!(delta.shuffle_write_bytes > 0);
    }

    /// The event-driven scheduler's signature behaviour: the two map
    /// stages of an unaligned join have no edge between them, so both are
    /// submitted before any task completes and run concurrently.
    #[test]
    fn unaligned_join_runs_sibling_map_stages_concurrently() {
        let ctx = SpangleContext::new(4);
        let left = ctx.parallelize((0u64..400).map(|i| (i % 16, i)).collect(), 4);
        let right = ctx.parallelize((0u64..400).map(|i| (i % 16, i * 2)).collect(), 5);
        let joined = left.join(&right, Arc::new(HashPartitioner::new(4)));
        let n = joined.count().unwrap();
        assert!(n > 0);
        let report = ctx.last_job_report().unwrap();
        assert!(
            report.max_concurrent_stages >= 2,
            "sibling map stages must overlap, report was: {report}"
        );
        assert_eq!(report.stages.len(), 3);
    }

    /// When one sibling map stage exhausts its retries the job aborts
    /// without deadlocking, and every shuffle claim the job held is
    /// released so a rerun can claim and complete them. The attempt limit
    /// comes from the builder, not a magic constant.
    #[test]
    fn sibling_stage_failure_aborts_and_releases_claims() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_task_attempts(3)
            .build();
        let left = ctx.parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4);
        let right = ctx.parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 5);
        // Kill one left-side map task exactly as often as the attempt
        // limit: the first job aborts, the injector drains, a rerun works.
        ctx.failure_injector()
            .fail_task(left.id(), 1, ctx.max_task_attempts());
        let grouped = left.cogroup(&right, Arc::new(HashPartitioner::new(4)));
        let err = grouped.count().unwrap_err();
        assert_eq!(err.partition, 1);
        assert_eq!(err.attempts, ctx.max_task_attempts());
        assert!(ctx.failure_injector().is_drained());
        // The aborted job still recorded a report.
        let report = ctx.last_job_report().unwrap();
        assert_eq!(report.job_id, err.job_id);
        assert_eq!(report.outcome, JobOutcome::Aborted);
        assert!(report.stages_aborted() >= 1);
        // Claims were abandoned, not leaked: the rerun owns both map
        // stages again and completes.
        let n = grouped.count().unwrap();
        assert_eq!(n, 8);
    }

    /// Two jobs racing over the same shuffled RDD: the claim protocol
    /// elects one owner for the map stage, the other job waits for (or
    /// reuses) its output, and the maps run exactly once in total.
    #[test]
    fn concurrent_jobs_run_a_shared_map_stage_exactly_once() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..60).map(|i| (i % 6, 1u64)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        let before = ctx.metrics_snapshot();
        let (a, b) = {
            let ra = reduced.clone();
            let rb = reduced.clone();
            let ta = std::thread::spawn(move || sorted(ra.collect().unwrap()));
            let tb = std::thread::spawn(move || sorted(rb.collect().unwrap()));
            (ta.join().unwrap(), tb.join().unwrap())
        };
        assert_eq!(a, b);
        assert_eq!(a, (0u64..6).map(|k| (k, 10u64)).collect::<Vec<_>>());
        let delta = ctx.metrics_snapshot() - before;
        // One map stage (4 tasks) ran once; each job ran its own result
        // stage (3 tasks); the non-owner skipped the map stage.
        assert_eq!(delta.tasks_run, 4 + 3 + 3, "map tasks must not run twice");
        assert_eq!(delta.stages_run, 3);
        assert_eq!(delta.stages_skipped, 1);
    }

    #[test]
    fn injected_task_failure_is_retried_and_job_succeeds() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..20).collect(), 4);
        ctx.failure_injector().fail_task(rdd.id(), 2, 2);
        let before = ctx.metrics_snapshot();
        let sum: u64 = rdd.reduce(|a, b| a + b).unwrap().unwrap();
        assert_eq!(sum, 190);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.task_retries, 2);
        assert!(ctx.failure_injector().is_drained());
    }

    /// The attempt limit is builder-configurable, and the exhausted job's
    /// error reflects whatever limit the context was built with.
    #[test]
    fn exhausted_attempts_abort_the_job() {
        for limit in [2usize, 4] {
            let ctx = SpangleContext::builder()
                .executors(2)
                .max_task_attempts(limit)
                .build();
            let rdd = ctx.parallelize((0u64..20).collect(), 4);
            ctx.failure_injector().fail_task(rdd.id(), 1, 100);
            let err = rdd.collect().unwrap_err();
            assert_eq!(err.partition, 1);
            assert_eq!(err.attempts, limit);
        }
    }

    #[test]
    fn panicking_task_surfaces_as_job_error() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..10).collect(), 2);
        let bad = rdd.map(|x| {
            assert!(x != 7, "poison element");
            x
        });
        let err = bad.collect().unwrap_err();
        match err.last_error {
            crate::TaskError::Panicked(msg) => assert!(msg.contains("poison"), "msg was: {msg}"),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn evicted_cached_partition_is_recomputed_from_lineage() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..100).collect(), 4).map(|x| x * 3);
        rdd.persist();
        let first = rdd.collect().unwrap();
        // All four partitions cached now; evict one and recompute.
        assert!(ctx.evict_cached_partition(rdd.id(), 1));
        let before = ctx.metrics_snapshot();
        let second = rdd.collect().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(first, second);
        assert_eq!(delta.cache_hits, 3);
        assert_eq!(delta.cache_misses, 1);
    }

    #[test]
    fn cached_shuffled_rdd_survives_without_rerunning_maps() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..40).map(|i| (i % 4, 1u64)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        reduced.persist();
        reduced.count().unwrap();
        let before = ctx.metrics_snapshot();
        let out = sorted(reduced.collect().unwrap());
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(out, vec![(0, 10), (1, 10), (2, 10), (3, 10)]);
        assert_eq!(delta.cache_hits, 2);
        assert_eq!(delta.shuffle_read_bytes, 0, "reads come from cache");
    }

    #[test]
    fn map_values_preserves_partitioning() {
        let ctx = SpangleContext::new(2);
        let p: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(3));
        let rdd = ctx
            .parallelize((0u64..30).map(|i| (i, i)).collect(), 3)
            .partition_by(p.clone());
        let mapped = rdd.map_values(|v| v * 2);
        assert_eq!(
            mapped.partitioner_sig(),
            Some(crate::partitioner::Partitioner::<u64>::sig(&*p))
        );
        // And filtering keeps it too.
        let filtered = mapped.filter(|(_, v)| v % 4 == 0);
        assert!(filtered.partitioner_sig().is_some());
    }

    #[test]
    fn chained_shuffles_run_in_topological_order() {
        let ctx = SpangleContext::new(3);
        let rdd = ctx.parallelize((0u64..60).map(|i| (i % 6, 1u64)).collect(), 4);
        // Two chained shuffles: reduce then re-key and reduce again.
        let once = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        let twice = once
            .map(|(k, v)| (k % 2, v))
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        let before = ctx.metrics_snapshot();
        let out = sorted(twice.collect().unwrap());
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(out, vec![(0, 30), (1, 30)]);
        assert_eq!(delta.stages_run, 3);
        // Chained stages depend on each other, so the event-driven
        // scheduler must still run them one at a time, parents first.
        let report = ctx.last_job_report().unwrap();
        assert_eq!(report.max_concurrent_stages, 1);
        let order: Vec<Option<usize>> = report.stages.iter().map(|s| s.shuffle_id).collect();
        assert_eq!(order.len(), 3);
        assert!(order[0].is_some() && order[1].is_some());
        assert!(
            order[0].unwrap() < order[1].unwrap(),
            "first shuffle must complete before the one that reads it"
        );
        assert_eq!(order[2], None, "result stage completes last");
    }

    /// Deliberately skewed partition durations: the executor owning the
    /// slow partitions backs up, its idle sibling steals the backlog, and
    /// the steals are charged as remote in the job report.
    #[test]
    fn skewed_partitions_are_stolen_and_charged_remote() {
        // Speculation would hand the idle executor duplicate attempts
        // instead of letting it steal, so pin it off: this test is about
        // the steal path.
        let ctx = SpangleContext::builder()
            .executors(2)
            .speculation(SpeculationConfig {
                enabled: false,
                ..SpeculationConfig::default()
            })
            .build();
        // 6 partitions of 10 elements on 2 executors: partitions 0/2/4
        // (all placed on executor 0) sleep once, partitions 1/3/5 are
        // instant — executor 1 drains its own queue and must steal.
        let rdd = ctx.parallelize((0u64..60).collect(), 6).map(|x| {
            if (x / 10) % 2 == 0 && x % 10 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            x
        });
        let before = ctx.metrics_snapshot();
        assert_eq!(rdd.count().unwrap(), 60);
        let delta = ctx.metrics_snapshot() - before;
        let report = ctx.last_job_report().unwrap();
        assert!(
            report.tasks_stolen() >= 1,
            "idle executor must steal from the skewed backlog, report was: {report}"
        );
        assert_eq!(delta.tasks_stolen, report.tasks_stolen() as u64);
        assert_eq!(report.executor_busy_nanos.len(), 2);
        assert!(
            report.executor_busy_nanos.iter().sum::<u64>() > 0,
            "busy time must be attributed"
        );
    }

    /// The locality guarantee: a perfectly balanced co-partitioned join
    /// (one task per executor at every stage) never steals — every task
    /// runs on the executor its partition is placed on, so the join stays
    /// genuinely local.
    #[test]
    fn balanced_copartitioned_join_never_steals() {
        // Asserts the shuffle-elision rewrite itself, so pin it on
        // regardless of SPANGLE_DISABLE_PLANNER.
        let ctx = SpangleContext::builder()
            .executors(4)
            .elide_shuffles(true)
            .build();
        let p: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(4));
        let left = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4)
            .partition_by(p.clone());
        let right = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 4)
            .partition_by(p.clone());
        let before = ctx.metrics_snapshot();
        left.persist().count().unwrap();
        right.persist().count().unwrap();

        let before_join = ctx.metrics_snapshot();
        let grouped = left.cogroup(&right, p);
        let n = grouped.count().unwrap();
        let join_delta = ctx.metrics_snapshot() - before_join;
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(n, 8);
        let report = ctx.last_job_report().unwrap();
        assert_eq!(
            report.tasks_stolen(),
            0,
            "balanced one-task-per-executor stages must stay local: {report}"
        );
        assert_eq!(
            delta.tasks_stolen, 0,
            "no stage of this balanced pipeline may steal"
        );
        assert_eq!(
            join_delta.shuffle_write_bytes, 0,
            "local join must not shuffle"
        );
    }

    #[test]
    fn group_by_key_collects_every_value() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..12).map(|i| (i % 3, i)).collect(), 3);
        let grouped = rdd.group_by_key(Arc::new(HashPartitioner::new(2)));
        let mut out = grouped.collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        for (k, mut vs) in out {
            vs.sort();
            assert_eq!(vs, (0..4).map(|j| k + 3 * j).collect::<Vec<_>>());
        }
    }

    /// Regression (abort-path): an aborted job must record a report of its
    /// own — outcome `Aborted`, the in-flight stage marked
    /// `StageOutcome::Aborted`, busy time attributed — instead of leaving
    /// `last_job_report()` pointing at the previous job.
    #[test]
    fn aborted_job_records_its_own_report() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_task_attempts(2)
            .build();
        // A successful job first, so a missing abort report would surface
        // as this stale one.
        let ok = ctx.parallelize((0u64..8).collect(), 2);
        ok.count().unwrap();
        let stale = ctx.last_job_report().unwrap();

        let rdd = ctx.parallelize((0u64..40).collect(), 4);
        ctx.failure_injector().fail_task(rdd.id(), 1, 100);
        let err = rdd.collect().unwrap_err();
        let report = ctx.last_job_report().unwrap();
        assert_ne!(report.job_id, stale.job_id, "the abort must be recorded");
        assert_eq!(report.job_id, err.job_id);
        assert_eq!(report.outcome, JobOutcome::Aborted);
        assert_eq!(report.stages_aborted(), 1);
        assert!(
            report
                .stages
                .iter()
                .any(|s| s.outcome == StageOutcome::Aborted && s.task_nanos > 0),
            "the aborted stage's partial task time must be accounted: {report}"
        );
        assert!(
            report.executor_busy_nanos.iter().sum::<u64>() > 0,
            "successful sibling attempts must appear in busy accounting"
        );
    }

    /// Regression (abort-path): abandoning a shuffle mid-abort drops the
    /// partial map output, so an aborted job with no rerun leaves zero
    /// resident shuffle bytes behind.
    #[test]
    fn aborted_shuffle_job_leaves_no_resident_bytes() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_task_attempts(2)
            .build();
        let rdd = ctx.parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        // Partition 1's map task always fails; partitions 0/2/3 write
        // their buckets before the abort.
        ctx.failure_injector().fail_task(rdd.id(), 1, 100);
        let err = reduced.collect().unwrap_err();
        assert!(matches!(err.last_error, crate::TaskError::Injected));
        assert_eq!(
            ctx.shuffle_resident_bytes(),
            0,
            "partial map output must be dropped with the abandoned claim"
        );
        assert_eq!(ctx.last_job_report().unwrap().outcome, JobOutcome::Aborted);
    }

    /// Jobs submitted inside `run_with_priority` carry the priority into
    /// their reports; the scope restores the previous priority on exit.
    #[test]
    fn run_with_priority_stamps_the_job_report() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..8).collect(), 2);
        let n = ctx.run_with_priority(7, || rdd.count().unwrap());
        assert_eq!(n, 8);
        assert_eq!(ctx.last_job_report().unwrap().priority, 7);
        rdd.count().unwrap();
        assert_eq!(
            ctx.last_job_report().unwrap().priority,
            0,
            "priority scope must not leak out of run_with_priority"
        );
    }
}
