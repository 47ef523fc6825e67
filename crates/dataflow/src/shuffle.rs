//! The in-memory shuffle service.
//!
//! A shuffle moves every record of a pair RDD from the executor that
//! computed it (the *map* side) to the executor that owns its key's reduce
//! partition. This service plays the role of Spark's shuffle
//! write/fetch path: map tasks deposit per-reduce-partition buckets, reduce
//! tasks fetch them, and every byte that logically crosses the network is
//! charged to the metrics. The blocks themselves live in the context's
//! tiered block store, next to the cached partitions; this service keeps
//! the bookkeeping around them: stage claims, the map-output registry and
//! tombstones.
//!
//! The service is the arbiter of *map-stage ownership*. Concurrent jobs
//! (or sibling stages of one job) may share a shuffle dependency;
//! `is_completed`-then-run was a check-then-act race that could run the
//! same map stage twice. Schedulers now
//! [`ShuffleService::try_claim`] a shuffle: exactly one caller becomes the
//! owner and runs the stage, everyone else either reuses the completed
//! output or registers a completion callback via
//! [`ShuffleService::subscribe`]. Subscription is checked under the same
//! lock as the stage state, so a callback can never be lost to a
//! check-then-subscribe race — it fires immediately when the stage is
//! already resolved, and exactly once from
//! [`ShuffleService::mark_completed`] / [`ShuffleService::abandon`]
//! otherwise. No thread ever parks inside the service on behalf of a
//! scheduler: stage readiness is event-driven end to end.
//!
//! The service is also executor-loss aware. Every block is attributed to
//! the executor incarnation ([`BlockOrigin`]) that produced it, and every
//! map task registers its output — even an all-empty one — in a
//! per-shuffle registry ([`ShuffleService::commit_map_output`]). When an
//! executor dies, [`ShuffleService::discard_executor`] drops its
//! registrations (and the store its blocks); a reduce task that later
//! fetches a block whose map output is no longer registered panics with a
//! typed [`FetchFailedError`] instead of silently reading an empty bucket.
//! The scheduler catches that panic, claims the *recovery* of the shuffle
//! ([`ShuffleService::claim_recovery`] — the re-run analogue of
//! [`ShuffleService::try_claim`]) and resubmits only the missing map
//! partitions from lineage.

use crate::executor::BlockOrigin;
use crate::metrics::MetricField;
use crate::store::BlockKey;
use crate::sync::{Mutex, Subscribers};
use crate::{Data, SpangleContext};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key of one shuffle block: output of map partition `map_id` destined for
/// reduce partition `reduce_id` of shuffle `shuffle_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// The shuffle this block belongs to.
    pub shuffle_id: usize,
    /// Map-side partition that produced the block.
    pub map_id: usize,
    /// Reduce-side partition the block is destined for.
    pub reduce_id: usize,
}

/// A one-shot completion callback: `true` means the map stage completed,
/// `false` that its owner abandoned it (or the shuffle was removed).
pub type ShuffleCallback = Box<dyn FnOnce(bool) + Send>;

/// One claim on a map stage: the run (first or recovery) that
/// [`ShuffleService::try_claim`] or [`ShuffleService::claim_recovery`]
/// handed to its owner. Map tasks commit under it, so a commit that lands
/// after its claim was abandoned is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClaimId(u64);

/// Map-stage progress of one shuffle.
enum MapStageState {
    /// Some job claimed the map stage under `claim` and is running it;
    /// `waiters` fire when it resolves.
    InFlight {
        claim: ClaimId,
        waiters: Subscribers<bool>,
    },
    /// The map stage ran to completion with this many map partitions.
    Completed { num_maps: usize },
}

/// Panic payload raised by a shuffle fetch when the block's map output was
/// lost after the map stage completed (the executor that produced it
/// died). The scheduler downcasts this out of the task panic
/// and turns it into [`crate::TaskError::FetchFailed`], which triggers
/// lineage-based resubmission of exactly the missing map partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchFailedError {
    /// Shuffle whose map output is gone.
    pub shuffle_id: usize,
    /// Map partition whose output is missing.
    pub map_id: usize,
}

/// Outcome of [`ShuffleService::claim_recovery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryClaim {
    /// The caller owns the recovery and must re-run exactly the `missing`
    /// map partitions, then [`ShuffleService::mark_completed`] (or
    /// [`ShuffleService::abandon`]) the stage again. Surviving partitions'
    /// blocks and registrations are kept.
    Owner {
        /// Map partitions whose output must be recomputed, ascending.
        missing: Vec<usize>,
        /// The claim the recovery's map tasks commit under.
        claim: ClaimId,
    },
    /// Another scheduler is already re-running the map stage; register a
    /// callback with [`ShuffleService::subscribe`].
    InFlight,
    /// Every map partition is registered again (someone else already
    /// recovered the shuffle); the caller can re-fetch immediately.
    Recovered,
}

/// Outcome of [`ShuffleService::try_claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleClaim {
    /// The caller now owns the map stage and must run it, committing its
    /// map outputs under this claim, then call
    /// [`ShuffleService::mark_completed`] or [`ShuffleService::abandon`].
    Owner(ClaimId),
    /// The map stage already ran; its output can be read immediately.
    Completed,
    /// Another scheduler is running the map stage right now; register a
    /// callback with [`ShuffleService::subscribe`] (or block on
    /// [`ShuffleService::wait_finished`]).
    InFlight,
}

/// The map-output registry, behind one lock.
#[derive(Default)]
struct Registry {
    /// Per-shuffle record of which executor incarnation produced each map
    /// partition's output. A map task registers here even when every bucket
    /// it produced was empty, so "block absent but map registered" means an
    /// empty bucket while "absent and unregistered" means the output was
    /// lost with its executor.
    maps: HashMap<usize, HashMap<usize, BlockOrigin>>,
    /// Claims released by [`ShuffleService::abandon`]: a commit still
    /// carrying one is refused. One entry per aborted map stage over the
    /// context's life (claim ids are never reused).
    retired: HashSet<ClaimId>,
}

/// Tracks map-stage ownership and which map outputs are registered.
#[derive(Default)]
pub struct ShuffleService {
    /// Per-shuffle map-stage state; absent means "never run, unclaimed".
    stages: Mutex<HashMap<usize, MapStageState>>,
    /// Source of fresh [`ClaimId`]s.
    next_claim: AtomicU64,
    /// Map-output registrations and retired claims.
    outputs: Mutex<Registry>,
    /// Shuffles torn down by [`ShuffleService::remove_shuffle`] (lineage
    /// GC). A fetch against a tombstoned shuffle fails typed instead of
    /// reading an empty bucket: "never had stage state" (test-seeded) and
    /// "had state, then removed" are different answers. Ids are
    /// context-monotone and never reused, so the set only grows — one
    /// `usize` per GC'd shuffle over the context's life.
    removed: Mutex<HashSet<usize>>,
}

impl ShuffleService {
    /// Atomically deposits *all* buckets of one map task and registers its
    /// output, first-write-wins. Under speculative execution two attempts
    /// of the same map partition race; whichever commits first installs
    /// its complete bucket set, and the loser's deposit is refused as a
    /// unit so two attempts' output can never interleave. Returns whether
    /// this attempt won.
    ///
    /// A commit loses when the (shuffle, map) pair is already registered
    /// by a live incarnation, when the depositing incarnation itself is
    /// dead (it was killed mid-task, its blocks were already discarded and
    /// the attempt is being replayed elsewhere), or when `claim`, the
    /// claim the task ran under, was abandoned: its job aborted and
    /// dropped the stage's partial output, and a late sibling must not
    /// leave a bucket behind. Commits without a claim (tests seeding
    /// shuffles directly) skip that check. Losing commits charge no
    /// shuffle-write volume. Registering even an all-empty commit is how
    /// a shuffle fetch tells a legitimately empty bucket from one lost
    /// with its executor.
    ///
    /// Liveness is checked under the registry lock. A kill retires the
    /// incarnation before it drops the registrations, so a commit either
    /// lands before that drop (and its blocks are discarded with it) or
    /// sees the dead incarnation and loses. Checked before the lock, a
    /// commit racing the kill could register a dead map after the drop,
    /// and once its blocks were discarded the map would read as empty.
    /// An abandon retires its claim under the same lock, so a commit is
    /// refused or lands before the abandon drops it.
    pub fn commit_map_output<T: Data>(
        &self,
        ctx: &SpangleContext,
        shuffle_id: usize,
        map_id: usize,
        buckets: Vec<(usize, Vec<T>, usize)>,
        origin: BlockOrigin,
        claim: Option<ClaimId>,
    ) -> bool {
        let mut total_bytes = 0u64;
        let mut total_records = 0u64;
        let blocks = buckets.into_iter().map(|(reduce_id, records, bytes)| {
            total_bytes += bytes as u64;
            total_records += records.len() as u64;
            let id = BlockId {
                shuffle_id,
                map_id,
                reduce_id,
            };
            (BlockKey::Shuffle(id), Arc::new(records), bytes)
        });
        // Worker copies are placed before the registry lock is taken; a
        // refused commit drops the deposits, which removes them again.
        let deposits = ctx.inner.blocks.prepare(ctx, blocks, origin);
        let mut outputs = self.outputs.lock();
        if !ctx.inner.pool.origin_is_live(origin)
            || claim.is_some_and(|c| outputs.retired.contains(&c))
        {
            return false;
        }
        let maps = outputs.maps.entry(shuffle_id).or_default();
        if let Some(existing) = maps.get(&map_id) {
            if ctx.inner.pool.origin_is_live(*existing) {
                return false;
            }
        }
        maps.insert(map_id, origin);
        ctx.inner.blocks.install(deposits);
        drop(outputs);
        ctx.metrics()
            .add(MetricField::ShuffleWriteBytes, total_bytes);
        ctx.metrics()
            .add(MetricField::ShuffleRecords, total_records);
        true
    }

    /// Runs `read` under the registry lock, told whether the map output of
    /// `id` is registered. Commits register a map and install its blocks
    /// under that lock, so a read made here sees every block of a map it
    /// is told is registered.
    pub(crate) fn with_registration<R>(&self, id: BlockId, read: impl FnOnce(bool) -> R) -> R {
        let outputs = self.outputs.lock();
        read(
            outputs
                .maps
                .get(&id.shuffle_id)
                .is_some_and(|maps| maps.contains_key(&id.map_id)),
        )
    }

    /// Whether `shuffle_id` ever had stage state: its map stage ran, or
    /// lineage GC tombstoned it. An unregistered map of such a shuffle lost
    /// its output, while in a shuffle that never had state (a test-seeded
    /// block map) it reads as an empty bucket.
    pub(crate) fn has_run(&self, shuffle_id: usize) -> bool {
        let removed = self.removed.lock().contains(&shuffle_id);
        removed || self.stages.lock().contains_key(&shuffle_id)
    }

    /// Deregisters one map partition's output, so a later
    /// [`ShuffleService::claim_recovery`] reports it missing.
    pub(crate) fn lose_map_output(&self, shuffle_id: usize, map_id: usize) {
        if let Some(maps) = self.outputs.lock().maps.get_mut(&shuffle_id) {
            maps.remove(&map_id);
        }
    }

    /// Atomically claims the map stage of `shuffle_id`. At most one caller
    /// is ever told [`ShuffleClaim::Owner`] per run of the stage; the
    /// owner must finish with [`ShuffleService::mark_completed`] (success)
    /// or [`ShuffleService::abandon`] (job abort) so waiters wake up.
    pub fn try_claim(&self, shuffle_id: usize) -> ShuffleClaim {
        let mut stages = self.stages.lock();
        match stages.get(&shuffle_id) {
            Some(MapStageState::Completed { .. }) => ShuffleClaim::Completed,
            Some(MapStageState::InFlight { .. }) => ShuffleClaim::InFlight,
            None => {
                let claim = self.new_claim(&mut stages, shuffle_id);
                ShuffleClaim::Owner(claim)
            }
        }
    }

    /// Registers a one-shot callback on the map stage of `shuffle_id`.
    ///
    /// The state check and registration happen under one lock, so a
    /// callback can never miss its notification: if the stage is already
    /// `Completed` the callback fires immediately with `true`; if it is
    /// unclaimed (never run, or abandoned) it fires immediately with
    /// `false` (the caller should [`ShuffleService::try_claim`]); if it is
    /// in flight, the callback fires exactly once when the owner
    /// [`ShuffleService::mark_completed`]s (`true`) or
    /// [`ShuffleService::abandon`]s (`false`) the stage.
    ///
    /// Callbacks run on whatever thread resolves the stage (an executor
    /// or another job's driver) and must not block; schedulers send an
    /// event into their own channel.
    pub fn subscribe(&self, shuffle_id: usize, callback: ShuffleCallback) {
        let mut stages = self.stages.lock();
        match stages.get_mut(&shuffle_id) {
            Some(MapStageState::InFlight { waiters, .. }) => {
                waiters.push(callback);
            }
            Some(MapStageState::Completed { .. }) => {
                drop(stages);
                callback(true);
            }
            None => {
                drop(stages);
                callback(false);
            }
        }
    }

    /// Marks the map stage of `shuffle_id` complete with `num_maps` map
    /// partitions, firing any subscribed callbacks. Callable with or
    /// without a prior claim (tests seed completed shuffles directly).
    ///
    /// Validates the deposit against the map-output registry and returns
    /// the map partitions that never registered, ascending. Non-empty
    /// means some output is already gone — typically because the executor
    /// that ran those maps died after finishing them but before the stage
    /// closed. The first reduce task to touch a missing partition raises
    /// [`FetchFailedError`] and the scheduler recovers, so callers may
    /// ignore the list; tests that seed completions without deposits get
    /// the full range back.
    pub fn mark_completed(&self, shuffle_id: usize, num_maps: usize) -> Vec<usize> {
        let mut stages = self.stages.lock();
        let previous = stages.insert(shuffle_id, MapStageState::Completed { num_maps });
        let outputs = self.outputs.lock();
        let missing = match outputs.maps.get(&shuffle_id) {
            Some(maps) => (0..num_maps).filter(|m| !maps.contains_key(m)).collect(),
            None => (0..num_maps).collect(),
        };
        drop(outputs);
        drop(stages);
        if let Some(MapStageState::InFlight { waiters, .. }) = previous {
            waiters.fire(true);
        }
        missing
    }

    /// Releases an [`ShuffleClaim::Owner`] claim without completing the
    /// stage (the owning job aborted). Subscribed callbacks fire with
    /// `false` and their schedulers race to re-claim.
    ///
    /// Any partial map output the aborted attempt already deposited is
    /// dropped with the claim — every tier: leaving it resident would leak
    /// `resident_bytes` (and spill files) until shuffle GC, and a
    /// re-claiming owner would interleave its fresh blocks with the
    /// aborted attempt's stale ones. The claim is retired under the
    /// registry lock before the output is dropped, so a map task of the
    /// aborted job that is still running has its later commit refused.
    /// The shuffle is *not* tombstoned: a re-claim runs the stage again
    /// from scratch, so later fetches are legitimate.
    pub fn abandon(&self, ctx: &SpangleContext, shuffle_id: usize) {
        let mut stages = self.stages.lock();
        let abandoned = match stages.get(&shuffle_id) {
            Some(MapStageState::InFlight { .. }) => stages.remove(&shuffle_id),
            _ => None,
        };
        drop(stages);
        if let Some(MapStageState::InFlight { claim, waiters }) = abandoned {
            self.drop_outputs(ctx, shuffle_id, Some(claim));
            waiters.fire(false);
        }
    }

    /// Blocks until the map stage of `shuffle_id` is no longer in flight.
    /// Returns `true` when it completed, `false` when the owner abandoned
    /// it (the caller should [`ShuffleService::try_claim`] again).
    ///
    /// This is [`ShuffleService::subscribe`] plus a channel for callers
    /// that genuinely have nothing else to do; the scheduler itself never
    /// blocks here.
    pub fn wait_finished(&self, shuffle_id: usize) -> bool {
        let (tx, rx) = crate::sync::channel::unbounded();
        self.subscribe(
            shuffle_id,
            Box::new(move |completed| {
                let _ = tx.send(completed);
            }),
        );
        rx.recv().unwrap_or(false)
    }

    /// Whether the map stage of `shuffle_id` already ran.
    pub fn is_completed(&self, shuffle_id: usize) -> bool {
        matches!(
            self.stages.lock().get(&shuffle_id),
            Some(MapStageState::Completed { .. })
        )
    }

    /// Drops all blocks and completion state of one shuffle. Called when
    /// the owning dependency is garbage-collected so iterative jobs do not
    /// accumulate dead shuffle outputs. Any callbacks still subscribed
    /// (there should be none by GC time) fire with `false`.
    ///
    /// The shuffle id is tombstoned: a straggling reduce fetch arriving
    /// after GC raises [`FetchFailedError`] instead of silently reading an
    /// empty bucket (its data *existed* — it is gone, not empty).
    pub fn remove_shuffle(&self, ctx: &SpangleContext, shuffle_id: usize) {
        let removed = self.stages.lock().remove(&shuffle_id);
        let had_state = removed.is_some();
        if let Some(MapStageState::InFlight { waiters, .. }) = removed {
            waiters.fire(false);
        }
        if had_state {
            self.removed.lock().insert(shuffle_id);
        }
        self.drop_outputs(ctx, shuffle_id, None);
    }

    /// Drops every map-output registration produced by the given executor
    /// (any incarnation), across all shuffles; the store drops its blocks.
    /// Called when an executor is killed.
    ///
    /// Completion state is deliberately left alone: a shuffle stays
    /// `Completed` with holes, and the holes surface as
    /// [`FetchFailedError`] on the next fetch so recovery is driven by the
    /// jobs that actually need the data.
    pub fn discard_executor(&self, executor: usize) {
        for maps in self.outputs.lock().maps.values_mut() {
            maps.retain(|_, origin| !origin.lives_on(executor));
        }
    }

    /// Retires `claim` (when given), then drops the registrations and the
    /// blocks (any tier) of one shuffle. All of it goes under the registry
    /// lock, so a concurrent commit cannot register a map whose blocks are
    /// then dropped (that map would read as empty, not lost), and a commit
    /// under the retired claim cannot land afterwards.
    fn drop_outputs(&self, ctx: &SpangleContext, shuffle_id: usize, claim: Option<ClaimId>) {
        let mut outputs = self.outputs.lock();
        outputs.retired.extend(claim);
        outputs.maps.remove(&shuffle_id);
        ctx.inner.blocks.discard(
            ctx,
            |key, _| matches!(key, BlockKey::Shuffle(id) if id.shuffle_id == shuffle_id),
        );
    }

    /// Atomically claims the *recovery* of a shuffle whose completed map
    /// stage lost some output. Exactly one caller per recovery round is
    /// told [`RecoveryClaim::Owner`] with the missing map partitions; the
    /// stage transitions back to in-flight (so dependent schedulers
    /// subscribe rather than fetch) while surviving partitions' blocks and
    /// registrations are kept — the owner re-runs *only* the missing maps.
    /// An unclaimed shuffle (e.g. abandoned by an aborting job) counts as
    /// fully missing.
    pub fn claim_recovery(&self, shuffle_id: usize, num_maps: usize) -> RecoveryClaim {
        let mut stages = self.stages.lock();
        match stages.get(&shuffle_id) {
            Some(MapStageState::InFlight { .. }) => RecoveryClaim::InFlight,
            Some(MapStageState::Completed { num_maps: recorded }) => {
                assert_eq!(
                    *recorded, num_maps,
                    "shuffle {shuffle_id}: recovery claimed with a different map count \
                     than the completed stage recorded"
                );
                self.claim_recovery_locked(&mut stages, shuffle_id, num_maps)
            }
            None => self.claim_recovery_locked(&mut stages, shuffle_id, num_maps),
        }
    }

    /// Second half of [`ShuffleService::claim_recovery`], with the stage
    /// lock held and the in-flight case already ruled out.
    fn claim_recovery_locked(
        &self,
        stages: &mut HashMap<usize, MapStageState>,
        shuffle_id: usize,
        num_maps: usize,
    ) -> RecoveryClaim {
        let outputs = self.outputs.lock();
        let missing: Vec<usize> = match outputs.maps.get(&shuffle_id) {
            Some(maps) => (0..num_maps).filter(|m| !maps.contains_key(m)).collect(),
            None => (0..num_maps).collect(),
        };
        drop(outputs);
        if missing.is_empty() {
            return RecoveryClaim::Recovered;
        }
        let claim = self.new_claim(stages, shuffle_id);
        RecoveryClaim::Owner { missing, claim }
    }

    /// Puts `shuffle_id` in flight under a fresh claim, with the stage
    /// lock held.
    fn new_claim(&self, stages: &mut HashMap<usize, MapStageState>, shuffle_id: usize) -> ClaimId {
        let claim = ClaimId(self.next_claim.fetch_add(1, Ordering::Relaxed));
        stages.insert(
            shuffle_id,
            MapStageState::InFlight {
                claim,
                waiters: Subscribers::new(),
            },
        );
        claim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SHUFFLE;

    fn block(shuffle_id: usize, map_id: usize) -> BlockId {
        BlockId {
            shuffle_id,
            map_id,
            reduce_id: 0,
        }
    }

    /// Commits `records` as map `map_id`'s only bucket (reduce partition
    /// 0), eight bytes per record, without a claim.
    fn commit(
        ctx: &SpangleContext,
        shuffle_id: usize,
        map_id: usize,
        records: Vec<u64>,
        origin: BlockOrigin,
    ) -> bool {
        commit_under(ctx, shuffle_id, map_id, records, origin, None)
    }

    /// [`commit`] under `claim`.
    fn commit_under(
        ctx: &SpangleContext,
        shuffle_id: usize,
        map_id: usize,
        records: Vec<u64>,
        origin: BlockOrigin,
        claim: Option<ClaimId>,
    ) -> bool {
        let bytes = 8 * records.len();
        ctx.inner.shuffle.commit_map_output(
            ctx,
            shuffle_id,
            map_id,
            vec![(0, records, bytes)],
            origin,
            claim,
        )
    }

    /// A context whose blocks all stay in the driver, for tests that
    /// assert driver residency (the process backend bypasses it).
    fn in_driver(executors: usize) -> SpangleContext {
        SpangleContext::builder()
            .executors(executors)
            .backend(crate::BackendKind::InProc)
            .build()
    }

    fn fetch(ctx: &SpangleContext, id: BlockId) -> Arc<Vec<u64>> {
        ctx.inner.blocks.fetch_shuffle(ctx, id)
    }

    fn fetch_failure(ctx: &SpangleContext, id: BlockId) -> FetchFailedError {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fetch(ctx, id)))
            .expect_err("a lost block must not fetch as empty");
        *err.downcast_ref::<FetchFailedError>()
            .expect("panic payload is a FetchFailedError")
    }

    #[test]
    fn commit_fetch_roundtrip_charges_bytes() {
        let ctx = SpangleContext::new(2);
        let before = ctx.metrics_snapshot();
        let records = vec![(1u64, 2.0f64); 10];
        assert!(ctx.inner.shuffle.commit_map_output(
            &ctx,
            1,
            0,
            vec![(3, records, 160)],
            BlockOrigin::DRIVER,
            None
        ));
        let got: Arc<Vec<(u64, f64)>> = ctx.inner.blocks.fetch_shuffle(
            &ctx,
            BlockId {
                shuffle_id: 1,
                map_id: 0,
                reduce_id: 3,
            },
        );
        assert_eq!(got.len(), 10);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 160);
        assert_eq!(delta.shuffle_read_bytes, 160);
        assert_eq!(delta.shuffle_records, 10);
    }

    #[test]
    fn fetches_share_the_block_instead_of_cloning_it() {
        let ctx = SpangleContext::new(1);
        commit(&ctx, 1, 0, vec![1, 2, 3], BlockOrigin::DRIVER);
        let a = fetch(&ctx, block(1, 0));
        let b = fetch(&ctx, block(1, 0));
        assert!(
            Arc::ptr_eq(&a, &b),
            "two fetches of one resident block must alias, not deep-copy"
        );
    }

    #[test]
    fn missing_block_is_empty_and_free() {
        let ctx = SpangleContext::new(1);
        let before = ctx.metrics_snapshot();
        assert!(fetch(&ctx, block(9, 0)).is_empty());
        assert_eq!((ctx.metrics_snapshot() - before).shuffle_read_bytes, 0);
    }

    #[test]
    fn remove_shuffle_clears_state() {
        let ctx = SpangleContext::new(1);
        let svc = &ctx.inner.shuffle;
        commit(&ctx, 5, 1, vec![1], BlockOrigin::DRIVER);
        svc.mark_completed(5, 2);
        assert!(svc.is_completed(5));
        assert_eq!(ctx.inner.blocks.num_blocks(), 1);
        svc.remove_shuffle(&ctx, 5);
        assert!(!svc.is_completed(5));
        assert_eq!(ctx.inner.blocks.num_blocks(), 0);
        assert_eq!(ctx.shuffle_resident_bytes(), 0);
    }

    /// Bugfix regression: a reduce fetch straggling in after lineage GC
    /// removed its shuffle used to read an empty bucket silently (the
    /// `!stages.contains_key` branch). The data existed and is *gone*, not
    /// empty — the fetch must fail typed.
    #[test]
    fn fetch_after_remove_shuffle_fails_typed() {
        let ctx = SpangleContext::new(1);
        commit(&ctx, 5, 0, vec![1], BlockOrigin::DRIVER);
        ctx.inner.shuffle.mark_completed(5, 1);
        ctx.inner.shuffle.remove_shuffle(&ctx, 5);
        assert_eq!(
            fetch_failure(&ctx, block(5, 0)),
            FetchFailedError {
                shuffle_id: 5,
                map_id: 0
            }
        );
        // A shuffle that never had stage state keeps the historical
        // empty-fetch behavior (test-seeded block maps).
        assert!(fetch(&ctx, block(99, 0)).is_empty());
    }

    /// The resident counter must track every commit, re-commit, discard,
    /// and removal exactly (debug builds also assert it against a full
    /// walk inside each mutating op).
    #[test]
    fn resident_counter_tracks_every_mutation() {
        let ctx = in_driver(2);
        let svc = &ctx.inner.shuffle;
        commit(&ctx, 1, 0, vec![1, 2], BlockOrigin::DRIVER);
        commit(&ctx, 1, 1, vec![3], BlockOrigin::executor(1, 0));
        assert_eq!(ctx.shuffle_resident_bytes(), 24);
        // A map whose registration was lost commits again: the new block
        // replaces the old one's accounted size instead of leaking it.
        svc.lose_map_output(1, 0);
        assert!(commit(&ctx, 1, 0, vec![9], BlockOrigin::DRIVER));
        assert_eq!(ctx.shuffle_resident_bytes(), 16);
        let loss = ctx.kill_executor(1);
        assert_eq!(
            (loss.shuffle_blocks_dropped, loss.shuffle_bytes_dropped),
            (1, 8)
        );
        assert_eq!(ctx.shuffle_resident_bytes(), 8);
        svc.remove_shuffle(&ctx, 1);
        assert_eq!(ctx.shuffle_resident_bytes(), 0);
    }

    /// First write wins: a speculative loser that is alive, only beaten,
    /// must neither overwrite the winner's block nor charge write volume.
    #[test]
    fn a_live_losers_commit_is_refused_and_charges_nothing() {
        let ctx = SpangleContext::new(2);
        let winner = BlockOrigin::executor(0, 0);
        let loser = BlockOrigin::executor(1, 0);
        assert!(commit(&ctx, 7, 0, vec![111], winner));
        let before = ctx.metrics_snapshot();
        assert!(
            !commit(&ctx, 7, 0, vec![222], loser),
            "the beaten attempt's commit must lose"
        );
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(
            (delta.shuffle_write_bytes, delta.shuffle_records),
            (0, 0),
            "refused commits charge nothing"
        );
        assert_eq!(
            *fetch(&ctx, block(7, 0)),
            vec![111],
            "the committed winner's block survives"
        );
    }

    #[test]
    fn spilled_blocks_of_a_dead_executor_are_discarded_not_rehydrated() {
        // A one-byte watermark spills every spillable block on deposit.
        let ctx = SpangleContext::builder()
            .executors(2)
            .backend(crate::BackendKind::InProc)
            .memory_high_watermark_bytes(1)
            .spill_to_disk(true)
            .build();
        seed_two_map_shuffle(&ctx, 6);
        assert_eq!(ctx.shuffle_resident_bytes(), 0);
        assert!(ctx.disk_resident_bytes() > 0);
        let loss = ctx.kill_executor(1);
        assert_eq!(
            (loss.shuffle_blocks_dropped, loss.shuffle_bytes_dropped),
            (1, 8),
            "spilled blocks count toward the discard with their logical bytes"
        );
        // Map 0's spilled block survives and rehydrates; map 1's is gone
        // from disk too and raises a typed fetch failure.
        assert_eq!(*fetch(&ctx, block(6, 0)), vec![0]);
        assert_eq!(fetch_failure(&ctx, block(6, 1)).map_id, 1);
    }

    #[test]
    fn only_one_claimant_becomes_owner() {
        let svc = ShuffleService::default();
        assert!(matches!(svc.try_claim(3), ShuffleClaim::Owner(_)));
        assert_eq!(svc.try_claim(3), ShuffleClaim::InFlight);
        svc.mark_completed(3, 4);
        assert_eq!(svc.try_claim(3), ShuffleClaim::Completed);
    }

    #[test]
    fn abandon_lets_the_next_claimant_own() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert!(matches!(svc.try_claim(1), ShuffleClaim::Owner(_)));
        svc.abandon(&ctx, 1);
        assert!(!svc.wait_finished(1), "abandoned, not completed");
        assert!(matches!(svc.try_claim(1), ShuffleClaim::Owner(_)));
    }

    #[test]
    fn abandon_drops_the_aborted_attempts_partial_blocks() {
        let ctx = SpangleContext::new(1);
        let svc = &ctx.inner.shuffle;
        assert!(matches!(svc.try_claim(4), ShuffleClaim::Owner(_)));
        // The owner's map tasks deposit some output, then the job aborts.
        commit(&ctx, 4, 0, vec![1, 2, 3], BlockOrigin::DRIVER);
        // An unrelated completed shuffle must survive the abandon.
        commit(&ctx, 5, 0, vec![9], BlockOrigin::DRIVER);
        svc.mark_completed(5, 1);
        assert_eq!(ctx.shuffle_resident_bytes(), 32);
        svc.abandon(&ctx, 4);
        assert_eq!(
            ctx.shuffle_resident_bytes(),
            8,
            "the abandoned shuffle's partial blocks must be dropped"
        );
        assert_eq!(ctx.inner.blocks.num_blocks(), 1);
        assert!(
            matches!(svc.try_claim(4), ShuffleClaim::Owner(_)),
            "a re-claiming owner starts from a clean slate"
        );
        // Abandon on a completed shuffle stays a no-op.
        svc.abandon(&ctx, 5);
        assert_eq!(ctx.shuffle_resident_bytes(), 8);
    }

    /// A map task of an aborted job that is still running when the job
    /// abandons its claim commits afterwards: the commit is refused and
    /// charges nothing, while the next owner's commits (and claimless
    /// test seeds) land.
    #[test]
    fn a_commit_after_its_claim_was_abandoned_is_refused() {
        let ctx = in_driver(2);
        let svc = &ctx.inner.shuffle;
        let origin = BlockOrigin::executor(1, 0);
        let ShuffleClaim::Owner(stale) = svc.try_claim(8) else {
            panic!("the first claimant owns the stage");
        };
        assert!(commit_under(&ctx, 8, 0, vec![1], origin, Some(stale)));
        svc.abandon(&ctx, 8);
        assert_eq!(ctx.shuffle_resident_bytes(), 0);

        let before = ctx.metrics_snapshot();
        assert!(
            !commit_under(&ctx, 8, 1, vec![2, 3], origin, Some(stale)),
            "a commit under an abandoned claim must lose"
        );
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(
            (delta.shuffle_write_bytes, delta.shuffle_records),
            (0, 0),
            "refused commits charge nothing"
        );
        assert_eq!(ctx.shuffle_resident_bytes(), 0, "no bucket is left behind");

        let ShuffleClaim::Owner(fresh) = svc.try_claim(8) else {
            panic!("an abandoned stage is re-claimable");
        };
        assert_ne!(fresh, stale, "every claim is new");
        assert!(commit_under(&ctx, 8, 1, vec![4], origin, Some(fresh)));
        assert!(!commit_under(&ctx, 8, 0, vec![5], origin, Some(stale)));
        assert!(commit(&ctx, 9, 0, vec![6], origin), "claimless seeds land");
        assert_eq!(ctx.shuffle_resident_bytes(), 16);
        assert_eq!(*fetch(&ctx, block(8, 1)), vec![4]);
    }

    #[test]
    fn subscribe_fires_immediately_when_already_resolved() {
        let svc = ShuffleService::default();
        let (tx, rx) = crate::sync::channel::unbounded();
        // Unclaimed: resolves false synchronously.
        let tx2 = tx.clone();
        svc.subscribe(
            7,
            Box::new(move |done| tx2.send(("unclaimed", done)).unwrap()),
        );
        assert_eq!(rx.try_recv().unwrap(), ("unclaimed", false));
        // Completed: resolves true synchronously.
        svc.mark_completed(7, 2);
        svc.subscribe(
            7,
            Box::new(move |done| tx.send(("completed", done)).unwrap()),
        );
        assert_eq!(rx.try_recv().unwrap(), ("completed", true));
    }

    #[test]
    fn subscribed_callbacks_fire_exactly_once_on_completion_and_abandon() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        let (tx, rx) = crate::sync::channel::unbounded();
        assert!(matches!(svc.try_claim(1), ShuffleClaim::Owner(_)));
        for _ in 0..3 {
            let tx = tx.clone();
            svc.subscribe(1, Box::new(move |done| tx.send(done).unwrap()));
        }
        assert!(rx.try_recv().is_err(), "nothing fires while in flight");
        svc.mark_completed(1, 4);
        assert_eq!(
            (0..3).map(|_| rx.try_recv().unwrap()).collect::<Vec<_>>(),
            vec![true; 3]
        );
        assert!(rx.try_recv().is_err(), "callbacks are one-shot");

        assert!(matches!(svc.try_claim(2), ShuffleClaim::Owner(_)));
        let tx2 = tx.clone();
        svc.subscribe(2, Box::new(move |done| tx2.send(done).unwrap()));
        svc.abandon(&ctx, 2);
        assert!(!rx.try_recv().unwrap(), "abandon notifies with false");
        assert!(
            matches!(svc.try_claim(2), ShuffleClaim::Owner(_)),
            "abandoned stage is re-claimable"
        );
    }

    #[test]
    fn waiters_wake_on_completion() {
        let svc = Arc::new(ShuffleService::default());
        assert!(matches!(svc.try_claim(2), ShuffleClaim::Owner(_)));
        let waiter = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.wait_finished(2))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        svc.mark_completed(2, 1);
        assert!(waiter.join().unwrap(), "waiter must see completion");
    }

    /// The historical check-then-act race: two schedulers checking
    /// `is_completed` before running would both run the map stage. With
    /// the claim API exactly one of N concurrent claimants owns the
    /// stage, no matter the interleaving.
    #[test]
    fn concurrent_claims_elect_exactly_one_owner() {
        for round in 0..50usize {
            let svc = Arc::new(ShuffleService::default());
            let claims: Vec<ShuffleClaim> = (0..4)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    std::thread::spawn(move || svc.try_claim(round))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect();
            let owners = claims
                .iter()
                .filter(|c| matches!(c, ShuffleClaim::Owner(_)))
                .count();
            assert_eq!(owners, 1, "round {round}: claims were {claims:?}");
            assert!(claims
                .iter()
                .all(|c| matches!(c, ShuffleClaim::Owner(_) | ShuffleClaim::InFlight)));
        }
    }

    /// Seeds a completed two-map shuffle whose blocks live on executors 0
    /// and 1.
    fn seed_two_map_shuffle(ctx: &SpangleContext, shuffle_id: usize) {
        for map_id in 0..2 {
            let origin = BlockOrigin::executor(map_id, 0);
            assert!(commit(ctx, shuffle_id, map_id, vec![map_id as u64], origin));
        }
        assert!(ctx.inner.shuffle.mark_completed(shuffle_id, 2).is_empty());
    }

    #[test]
    fn mark_completed_reports_unregistered_maps() {
        let ctx = SpangleContext::new(1);
        let svc = &ctx.inner.shuffle;
        assert_eq!(svc.mark_completed(9, 3), vec![0, 1, 2]);
        let no_buckets: Vec<(usize, Vec<u64>, usize)> = Vec::new();
        svc.commit_map_output(&ctx, 9, 1, no_buckets, BlockOrigin::DRIVER, None);
        assert_eq!(svc.mark_completed(9, 3), vec![0, 2]);
    }

    #[test]
    fn registered_empty_buckets_stay_empty_fetches() {
        let ctx = SpangleContext::new(1);
        let no_buckets: Vec<(usize, Vec<u64>, usize)> = Vec::new();
        ctx.inner
            .shuffle
            .commit_map_output(&ctx, 2, 0, no_buckets, BlockOrigin::DRIVER, None);
        ctx.inner.shuffle.mark_completed(2, 1);
        assert!(fetch(&ctx, block(2, 0)).is_empty());
    }

    #[test]
    fn lost_map_output_raises_fetch_failed() {
        let ctx = SpangleContext::new(2);
        seed_two_map_shuffle(&ctx, 6);
        let loss = ctx.kill_executor(1);
        assert_eq!(
            (loss.shuffle_blocks_dropped, loss.shuffle_bytes_dropped),
            (1, 8)
        );
        // The surviving map's block still fetches.
        assert_eq!(*fetch(&ctx, block(6, 0)), vec![0]);
        // The lost one raises a typed fetch failure, not an empty vec.
        assert_eq!(
            fetch_failure(&ctx, block(6, 1)),
            FetchFailedError {
                shuffle_id: 6,
                map_id: 1
            }
        );
    }

    #[test]
    fn recovery_is_claimed_once_and_keeps_survivors() {
        let ctx = in_driver(2);
        let svc = &ctx.inner.shuffle;
        seed_two_map_shuffle(&ctx, 3);
        ctx.kill_executor(0);
        // Map 1's block survived; only map 0 is re-run.
        assert!(matches!(
            svc.claim_recovery(3, 2),
            RecoveryClaim::Owner { missing, .. } if missing == vec![0]
        ));
        assert_eq!(
            svc.claim_recovery(3, 2),
            RecoveryClaim::InFlight,
            "one owner per recovery round"
        );
        assert_eq!(ctx.inner.blocks.resident_bytes(SHUFFLE), 8, "survivor kept");
        // The owner re-runs the missing map and closes the stage again.
        assert!(commit(&ctx, 3, 0, vec![7], BlockOrigin::executor(1, 0)));
        assert!(svc.mark_completed(3, 2).is_empty());
        assert_eq!(svc.claim_recovery(3, 2), RecoveryClaim::Recovered);
        assert_eq!(*fetch(&ctx, block(3, 0)), vec![7]);
    }

    #[test]
    fn stale_incarnation_deposits_are_refused() {
        let ctx = SpangleContext::new(2);
        let stale = BlockOrigin::executor(0, 0);
        ctx.inner.pool.kill(0);
        let before = ctx.metrics_snapshot();
        assert!(!commit(&ctx, 1, 0, vec![1], stale));
        assert_eq!(
            ctx.inner.blocks.num_blocks(),
            0,
            "dead incarnations cannot deposit"
        );
        assert_eq!((ctx.metrics_snapshot() - before).shuffle_write_bytes, 0);
        assert_eq!(
            ctx.inner.shuffle.mark_completed(1, 1),
            vec![0],
            "nor register output"
        );
    }
}
