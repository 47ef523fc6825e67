//! Deterministic failure injection for fault-tolerance testing.
//!
//! Spark's headline property — and the one ArrayRDD inherits — is that lost
//! work is recomputed from lineage. The injector lets tests kill specific
//! task attempts or whole executors
//! ([`FailureInjector::kill_executor_after`] arms a kill that fires after
//! an executor finishes its Nth task, taking that task's attempt and every
//! block of the dead incarnation with it); dropping individual cached
//! blocks is done directly through
//! [`crate::SpangleContext::evict_cached_partition`].
//!
//! For the health-monitoring layer there are three further injections that
//! model *silent* failure modes — the kind the driver must detect on its
//! own rather than be handed an error for:
//! [`FailureInjector::pause_heartbeats`] makes an executor go dark (its
//! stamps are suppressed until resumed or until a kill reseats the slot),
//! [`FailureInjector::stall_progress`] makes a task attempt spin while
//! still heartbeating (alive but stuck, the no-progress watchdog's prey),
//! and [`FailureInjector::flaky_executor`] makes every task that lands on
//! an executor fail with a seeded probability until it is healed — the
//! workload the quarantine monitor exists for.

use crate::health::{splitmix64, HealthBoard};
use crate::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Identifies a schedulable task: the RDD whose partition the task produces
/// (for result stages) or the shuffle map side's parent RDD (for shuffle
/// stages), plus the partition index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskSite {
    /// RDD whose partition the task produces.
    pub rdd_id: usize,
    /// Partition index.
    pub partition: usize,
}

/// Injects failures into the first N attempts of selected tasks, or into
/// the next N task attempts regardless of site.
#[derive(Default)]
pub struct FailureInjector {
    /// Remaining number of failures to inject per site.
    remaining: Mutex<HashMap<TaskSite, usize>>,
    /// Remaining site-independent failures.
    any: std::sync::atomic::AtomicUsize,
    /// Per-executor queue of armed kills: each entry is a countdown of
    /// tasks until that executor (incarnation) is killed; the next
    /// countdown starts once the previous kill fired.
    kill_after: Mutex<HashMap<usize, VecDeque<usize>>>,
    /// Remaining number of wedges to inject per site (see
    /// [`FailureInjector::wedge_task`]).
    wedged: Mutex<HashMap<TaskSite, usize>>,
    /// Remaining number of progress stalls to inject per site (see
    /// [`FailureInjector::stall_progress`]).
    stalled: Mutex<HashMap<TaskSite, usize>>,
    /// Per-executor seeded failure rate (see
    /// [`FailureInjector::flaky_executor`]): rate, seed, and a draw
    /// counter so successive tasks see independent deterministic draws.
    flaky: Mutex<HashMap<usize, FlakySlot>>,
    /// Health board of the attached pool; lets heartbeat injections flip
    /// pause flags that the executor-side stamps observe.
    health: Mutex<Option<Arc<HealthBoard>>>,
}

/// Seeded per-executor failure state for [`FailureInjector::flaky_executor`].
struct FlakySlot {
    rate: f64,
    seed: u64,
    draws: u64,
}

impl FailureInjector {
    /// Makes the next `times` attempts of the task computing `partition` of
    /// `rdd_id` fail with [`crate::TaskError::Injected`].
    ///
    /// Arming the same site again *accumulates*: two `fail_task(r, p, 2)`
    /// calls kill four attempts, not two (a second arm used to silently
    /// overwrite the first).
    ///
    /// The site only matches tasks *scheduled* for that RDD: result-stage
    /// tasks of an action's target RDD, or map tasks of a shuffle's
    /// immediate parent. Narrow ancestors recomputed inside a task are not
    /// separate sites — use [`FailureInjector::fail_next_tasks`] to kill
    /// tasks without knowing the plan.
    pub fn fail_task(&self, rdd_id: usize, partition: usize, times: usize) {
        let mut map = self.remaining.lock();
        let slot = map.entry(TaskSite { rdd_id, partition }).or_insert(0);
        *slot = slot.saturating_add(times);
        if *slot == 0 {
            map.remove(&TaskSite { rdd_id, partition });
        }
    }

    /// Arms a kill of `executor` that fires right after it finishes its
    /// `tasks`-th scheduled task from now (so `tasks = 1` kills it after
    /// the very next task it runs). The kill goes through
    /// `SpangleContext::kill_executor`: the finishing task's attempt is
    /// lost with the executor ([`crate::TaskError::ExecutorLost`]), the
    /// dead incarnation's shuffle blocks and cached partitions are
    /// discarded, and a replacement is seated in the same slot. Each call
    /// arms one more kill: countdowns queue up, so arming `(e, 1)` three
    /// times kills three successive incarnations of slot `e`, one task
    /// each.
    pub fn kill_executor_after(&self, executor: usize, tasks: usize) {
        assert!(tasks > 0, "a kill needs at least one task to fire after");
        self.kill_after
            .lock()
            .entry(executor)
            .or_default()
            .push_back(tasks);
    }

    /// Counts one finished scheduled task on `executor`; `true` when an
    /// armed kill just hit zero and the caller must kill the executor.
    pub(crate) fn take_executor_kill(&self, executor: usize) -> bool {
        let mut map = self.kill_after.lock();
        let Some(queue) = map.get_mut(&executor) else {
            return false;
        };
        let front = queue
            .front_mut()
            .expect("armed kill queues are never left empty");
        *front -= 1;
        if *front > 0 {
            return false;
        }
        queue.pop_front();
        if queue.is_empty() {
            map.remove(&executor);
        }
        true
    }

    /// Wedges the next `times` attempts of the task computing `partition`
    /// of `rdd_id`: instead of running its body, a wedged attempt spins at
    /// a cancellation point until cooperative cancellation interrupts it —
    /// the deterministic straggler for speculation and deadline-preemption
    /// tests. Each matching attempt consumes one wedge, so with `times =
    /// 1` the speculative duplicate (or a retry) of the same task runs
    /// clean while the original hangs.
    pub fn wedge_task(&self, rdd_id: usize, partition: usize, times: usize) {
        if times == 0 {
            return;
        }
        let mut map = self.wedged.lock();
        let slot = map.entry(TaskSite { rdd_id, partition }).or_insert(0);
        *slot = slot.saturating_add(times);
    }

    /// Consumes one armed wedge for the site, if any remain.
    pub(crate) fn take_wedge(&self, site: TaskSite) -> bool {
        let mut map = self.wedged.lock();
        match map.get_mut(&site) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    map.remove(&site);
                }
                true
            }
            _ => false,
        }
    }

    /// Connects this injector to the pool's health board so heartbeat
    /// injections can reach executor-side state. Called once at context
    /// construction; injectors used standalone (unit tests) simply have no
    /// board and treat heartbeat injections as no-ops.
    pub(crate) fn attach_health(&self, board: Arc<HealthBoard>) {
        *self.health.lock() = Some(board);
    }

    /// Makes `executor` go dark: its heartbeat and progress stamps are
    /// suppressed until [`FailureInjector::resume_heartbeats`] — or until
    /// the slot is reseated by a kill, since a replacement incarnation
    /// must not inherit its predecessor's silence. This is the "silently
    /// hung process" failure mode: the driver gets no error event and must
    /// notice the missing heartbeats on its own.
    pub fn pause_heartbeats(&self, executor: usize) {
        if let Some(board) = self.health.lock().as_ref() {
            board.set_paused(executor, true);
        }
    }

    /// Lets a paused executor stamp heartbeats again.
    pub fn resume_heartbeats(&self, executor: usize) {
        if let Some(board) = self.health.lock().as_ref() {
            board.set_paused(executor, false);
        }
    }

    /// Makes every task attempt that *runs on* `executor` fail with
    /// probability `rate`, drawn deterministically from `seed` — one draw
    /// per attempt, in arrival order. Unlike the one-shot injections this
    /// is *continuous*: it stays armed until
    /// [`FailureInjector::heal_executor`], which is how a test models a
    /// bad host (failing disk, thermal throttling) that the quarantine
    /// monitor must bench rather than wait out.
    pub fn flaky_executor(&self, executor: usize, rate: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "failure rate must be within [0, 1]"
        );
        self.flaky.lock().insert(
            executor,
            FlakySlot {
                rate,
                seed,
                draws: 0,
            },
        );
    }

    /// Clears a [`FailureInjector::flaky_executor`] arm; tasks landing on
    /// the executor run clean again (its quarantine probation canary can
    /// now succeed).
    pub fn heal_executor(&self, executor: usize) {
        self.flaky.lock().remove(&executor);
    }

    /// One seeded draw against `executor`'s flaky rate, if armed. `true`
    /// means this attempt must fail with [`crate::TaskError::Injected`].
    pub(crate) fn should_fail_on(&self, executor: usize) -> bool {
        let mut map = self.flaky.lock();
        let Some(slot) = map.get_mut(&executor) else {
            return false;
        };
        let draw = splitmix64(slot.seed.wrapping_add(slot.draws));
        slot.draws += 1;
        // Map the top 53 bits to [0, 1) — the standard uniform construction.
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        unit < slot.rate
    }

    /// Makes the next `times` attempts of the task computing `partition`
    /// of `rdd_id` *stall*: the attempt spins at a cancellation point
    /// while stamping heartbeats but never ticking progress — alive by
    /// every liveness signal, yet stuck. This is the failure mode the
    /// no-progress watchdog exists for: missed-heartbeat detection must
    /// NOT fire (the executor is demonstrably alive), and the wedge-based
    /// speculation trigger only sees it once the runtime crosses the
    /// straggler threshold.
    pub fn stall_progress(&self, rdd_id: usize, partition: usize, times: usize) {
        if times == 0 {
            return;
        }
        let mut map = self.stalled.lock();
        let slot = map.entry(TaskSite { rdd_id, partition }).or_insert(0);
        *slot = slot.saturating_add(times);
    }

    /// Consumes one armed stall for the site, if any remain.
    pub(crate) fn take_stall(&self, site: TaskSite) -> bool {
        let mut map = self.stalled.lock();
        match map.get_mut(&site) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    map.remove(&site);
                }
                true
            }
            _ => false,
        }
    }

    /// Makes the next `n` distinct tasks fail their first attempt, whatever
    /// they compute.
    ///
    /// Only first attempts are killed; a retry of an already-killed task is
    /// spared even while injections remain. Otherwise an instantly-failing
    /// retry could race ahead of its sibling tasks and burn through the
    /// whole budget (aborting the job), which is never what a recovery test
    /// armed with this method wants. Use [`FailureInjector::fail_task`] to
    /// kill retries of a specific task.
    pub fn fail_next_tasks(&self, n: usize) {
        self.any.fetch_add(n, std::sync::atomic::Ordering::SeqCst);
    }

    /// Consumes one injected failure for the site, if any remain.
    pub(crate) fn should_fail(&self, site: TaskSite, attempt: usize) -> bool {
        // Site-independent injections first; they only apply to first
        // attempts (see `fail_next_tasks`).
        if attempt == 0 {
            let mut current = self.any.load(std::sync::atomic::Ordering::SeqCst);
            while current > 0 {
                match self.any.compare_exchange(
                    current,
                    current - 1,
                    std::sync::atomic::Ordering::SeqCst,
                    std::sync::atomic::Ordering::SeqCst,
                ) {
                    Ok(_) => return true,
                    Err(now) => current = now,
                }
            }
        }
        let mut map = self.remaining.lock();
        match map.get_mut(&site) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    map.remove(&site);
                }
                true
            }
            _ => false,
        }
    }

    /// True when no injections are pending — site-specific failures,
    /// site-independent failures, armed executor kills, stalls, flaky
    /// arms, and paused heartbeats alike (useful to assert a test
    /// consumed or healed everything it armed).
    pub fn is_drained(&self) -> bool {
        self.remaining.lock().is_empty()
            && self.any.load(std::sync::atomic::Ordering::SeqCst) == 0
            && self.kill_after.lock().is_empty()
            && self.wedged.lock().is_empty()
            && self.stalled.lock().is_empty()
            && self.flaky.lock().is_empty()
            && self
                .health
                .lock()
                .as_ref()
                .is_none_or(|board| !board.any_paused())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_fails_exactly_n_times() {
        let inj = FailureInjector::default();
        inj.fail_task(7, 2, 2);
        let site = TaskSite {
            rdd_id: 7,
            partition: 2,
        };
        assert!(inj.should_fail(site, 0));
        assert!(inj.should_fail(site, 1));
        assert!(!inj.should_fail(site, 2));
        assert!(inj.is_drained());
    }

    #[test]
    fn unarmed_sites_never_fail() {
        let inj = FailureInjector::default();
        assert!(!inj.should_fail(
            TaskSite {
                rdd_id: 0,
                partition: 0
            },
            0
        ));
    }

    /// Regression: a second `fail_task` for the same site used to
    /// overwrite the first arm's remaining count; it must accumulate.
    #[test]
    fn rearming_a_site_accumulates_instead_of_overwriting() {
        let inj = FailureInjector::default();
        inj.fail_task(3, 1, 2);
        inj.fail_task(3, 1, 1);
        let site = TaskSite {
            rdd_id: 3,
            partition: 1,
        };
        for attempt in 0..3 {
            assert!(inj.should_fail(site, attempt), "attempt {attempt} armed");
        }
        assert!(!inj.should_fail(site, 3));
        assert!(inj.is_drained());
        // Arming zero times is a no-op, not a pending entry.
        inj.fail_task(4, 0, 0);
        assert!(inj.is_drained());
    }

    #[test]
    fn executor_kills_fire_in_armed_order_and_drain() {
        let inj = FailureInjector::default();
        inj.kill_executor_after(1, 2);
        inj.kill_executor_after(1, 1);
        assert!(!inj.is_drained());
        assert!(!inj.take_executor_kill(0), "unarmed executors never die");
        assert!(!inj.take_executor_kill(1), "first countdown at 1 of 2");
        assert!(inj.take_executor_kill(1), "first kill fires");
        assert!(
            inj.take_executor_kill(1),
            "second armed kill fires one task later"
        );
        assert!(!inj.take_executor_kill(1));
        assert!(inj.is_drained());
    }

    #[test]
    fn wedges_are_consumed_one_shot_per_site() {
        let inj = FailureInjector::default();
        inj.wedge_task(5, 0, 1);
        let site = TaskSite {
            rdd_id: 5,
            partition: 0,
        };
        assert!(!inj.is_drained());
        assert!(inj.take_wedge(site), "first attempt wedges");
        assert!(
            !inj.take_wedge(site),
            "the speculative duplicate runs clean"
        );
        assert!(inj.is_drained());
        inj.wedge_task(5, 0, 0);
        assert!(inj.is_drained(), "arming zero wedges is a no-op");
    }

    #[test]
    fn flaky_draws_are_seeded_deterministic_and_heal_drains() {
        let a = FailureInjector::default();
        let b = FailureInjector::default();
        a.flaky_executor(2, 0.3, 42);
        b.flaky_executor(2, 0.3, 42);
        let draws_a: Vec<bool> = (0..64).map(|_| a.should_fail_on(2)).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.should_fail_on(2)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same draw sequence");
        let fails = draws_a.iter().filter(|&&f| f).count();
        assert!(
            (8..=32).contains(&fails),
            "a 30% rate over 64 draws should fail roughly a third, got {fails}"
        );
        assert!(!a.should_fail_on(0), "unarmed executors never draw");
        assert!(!a.is_drained());
        a.heal_executor(2);
        assert!(a.is_drained());
        assert!(!a.should_fail_on(2), "healed executors run clean");
    }

    #[test]
    fn flaky_rate_extremes_always_and_never_fail() {
        let inj = FailureInjector::default();
        inj.flaky_executor(0, 1.0, 7);
        inj.flaky_executor(1, 0.0, 7);
        for _ in 0..16 {
            assert!(inj.should_fail_on(0), "rate 1.0 fails every draw");
            assert!(!inj.should_fail_on(1), "rate 0.0 never fails");
        }
    }

    #[test]
    fn stalls_are_consumed_one_shot_per_site() {
        let inj = FailureInjector::default();
        inj.stall_progress(9, 3, 1);
        let site = TaskSite {
            rdd_id: 9,
            partition: 3,
        };
        assert!(!inj.is_drained());
        assert!(inj.take_stall(site), "first attempt stalls");
        assert!(!inj.take_stall(site), "the duplicate attempt runs clean");
        assert!(inj.is_drained());
        inj.stall_progress(9, 3, 0);
        assert!(inj.is_drained(), "arming zero stalls is a no-op");
    }

    #[test]
    fn heartbeat_pause_reaches_the_attached_board() {
        let inj = FailureInjector::default();
        // Without a board the injection is a harmless no-op.
        inj.pause_heartbeats(0);
        assert!(inj.is_drained());

        let board = Arc::new(HealthBoard::new(2));
        inj.attach_health(Arc::clone(&board));
        inj.pause_heartbeats(1);
        assert!(board.any_paused());
        assert!(!inj.is_drained(), "a paused executor is a live injection");
        inj.resume_heartbeats(1);
        assert!(!board.any_paused());
        assert!(inj.is_drained());
    }

    #[test]
    fn site_independent_injections_spare_retries() {
        let inj = FailureInjector::default();
        inj.fail_next_tasks(2);
        let a = TaskSite {
            rdd_id: 1,
            partition: 0,
        };
        let b = TaskSite {
            rdd_id: 1,
            partition: 1,
        };
        assert!(inj.should_fail(a, 0));
        // The retry of `a` must not consume the second injection...
        assert!(!inj.should_fail(a, 1));
        // ...which is left for the first attempt of a different task.
        assert!(inj.should_fail(b, 0));
        assert!(inj.is_drained());
    }
}
