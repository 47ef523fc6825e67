//! Process-backend integration tests: typed RDDs under
//! [`BackendKind::Proc`] must compute exactly what they compute in
//! process, while their spillable shuffle blocks and cached partitions
//! live in the worker processes — not in the driver — and leave the
//! workers once the store lets go of them.

use spangle_dataflow::shuffle::ShuffleService;
use spangle_dataflow::{BackendKind, BlockOrigin, HashPartitioner, PairRdd, Rdd, SpangleContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EXECUTORS: usize = 4;
const PARTS: usize = 8;

fn context(kind: BackendKind) -> SpangleContext {
    let ctx = SpangleContext::builder()
        .executors(EXECUTORS)
        .backend(kind)
        .build();
    if kind == BackendKind::Proc {
        assert_eq!(
            ctx.real_worker_slots(),
            EXECUTORS,
            "every slot must be served by a worker process (is the \
             spangle_worker binary missing?)"
        );
    }
    ctx
}

fn records() -> Vec<(u64, u64)> {
    (0..4000u64).map(|i| (i * 7919 % 211, i)).collect()
}

/// What [`Pipeline::run`] returns: sums, joined sums and maxes, and the
/// persisted RDD's records, each sorted.
type Results = (Vec<(u64, u64)>, Vec<(u64, (u64, u64))>, Vec<(u64, u64)>);

/// The typed pipeline: a `reduce_by_key`, a `join` against a second
/// shuffle, and a persisted RDD read twice.
struct Pipeline {
    sums: Rdd<(u64, u64)>,
    joined: Rdd<(u64, (u64, u64))>,
    cached: Rdd<(u64, u64)>,
}

impl Pipeline {
    fn build(ctx: &SpangleContext) -> Self {
        let partitioner = Arc::new(HashPartitioner::new(PARTS));
        let pairs = ctx.parallelize(records(), PARTS);
        let sums = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
        let maxes = pairs.reduce_by_key(partitioner.clone(), |a, b| a.max(b));
        let joined = sums.join(&maxes, partitioner);
        let cached = pairs.map(|(k, v)| (k, v * 3 + 1));
        cached.persist();
        Pipeline {
            sums,
            joined,
            cached,
        }
    }

    /// Runs every action; the persisted RDD is read twice so the second
    /// read is served from the store.
    fn run(&self) -> Results {
        fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
            v.sort_unstable();
            v
        }
        let first = sorted(self.cached.collect().unwrap());
        assert_eq!(first, sorted(self.cached.collect().unwrap()));
        (
            sorted(self.sums.collect().unwrap()),
            sorted(self.joined.collect().unwrap()),
            first,
        )
    }
}

fn worker_blocks(ctx: &SpangleContext) -> Vec<u64> {
    (0..EXECUTORS)
        .map(|s| ctx.worker_stats(s).expect("worker answers stats").blocks)
        .collect()
}

/// Waits (bounded) until every worker holds no block. Lineage GC runs
/// when the last handle on a shuffle drops, which a job's bookkeeping may
/// delay by a moment after the action returns.
fn assert_workers_drain(ctx: &SpangleContext, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let blocks = worker_blocks(ctx);
        if blocks.iter().all(|&b| b == 0) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: workers still hold blocks {blocks:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn worker_slots_are_real_processes() {
    let ctx = context(BackendKind::Proc);
    assert_eq!(ctx.backend_kind(), BackendKind::Proc);
    let my_pid = std::process::id();
    for slot in 0..EXECUTORS {
        let pid = ctx.worker_pid(slot).expect("a worker slot has a pid");
        assert_ne!(pid, my_pid, "a worker is a separate OS process");
        let stats = ctx.worker_stats(slot).expect("worker answers stats");
        assert_eq!((stats.pid, stats.epoch, stats.blocks), (pid as u64, 0, 0));
    }
    let inproc = context(BackendKind::InProc);
    assert_eq!(inproc.backend_kind(), BackendKind::InProc);
    assert_eq!(inproc.real_worker_slots(), 0);
    assert_eq!(inproc.worker_stats(0), None);
}

#[test]
fn typed_shuffles_and_caches_match_inproc_and_live_in_workers() {
    let inproc = context(BackendKind::InProc);
    let want = Pipeline::build(&inproc).run();

    let ctx = context(BackendKind::Proc);
    let pipeline = Pipeline::build(&ctx);
    assert_eq!(pipeline.run(), want, "proc results differ from inproc");

    let held: u64 = (0..EXECUTORS)
        .map(|s| ctx.worker_stats(s).expect("stats").bytes)
        .sum();
    assert!(held > 0, "worker processes hold the blocks");
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "no shuffle block in the driver"
    );
    assert_eq!(ctx.cached_bytes(), 0, "no cached partition in the driver");

    pipeline.cached.unpersist();
    drop(pipeline);
    assert_workers_drain(&ctx, "after unpersist and drop");
    assert_eq!(ctx.disk_resident_bytes(), 0);
}

/// A speculative loser's commit is refused (first write wins), and the
/// copy it already placed in its own worker is removed with it.
#[test]
fn a_live_losers_refused_commit_leaves_no_worker_copy() {
    let ctx = context(BackendKind::Proc);
    let svc = ShuffleService::default();
    let shuffle_id = usize::MAX;
    let commit = |value: u64, executor: usize| {
        svc.commit_map_output(
            &ctx,
            shuffle_id,
            0,
            vec![(0, vec![value], 8)],
            BlockOrigin::executor(executor, 0),
            None,
        )
    };
    let before = ctx.metrics_snapshot();
    assert!(commit(111, 0), "the first commit wins");
    assert!(!commit(222, 1), "the beaten attempt's commit must lose");
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!((delta.shuffle_write_bytes, delta.shuffle_records), (8, 1));
    assert_eq!(worker_blocks(&ctx), vec![1, 0, 0, 0]);
    svc.remove_shuffle(&ctx, shuffle_id);
    assert_workers_drain(&ctx, "after shuffle GC");
}

/// A peer worker SIGKILLed after the map stage and before the reduce
/// reads: its blocks are gone, the health plane notices the silent slot,
/// and lineage recovery lands on the right answer.
#[test]
fn a_peer_sigkilled_between_map_and_reduce_recovers() {
    let ctx = SpangleContext::builder()
        .executors(EXECUTORS)
        .backend(BackendKind::Proc)
        .health_monitoring(true)
        .heartbeat_interval(Duration::from_millis(25))
        .missed_heartbeat_limit(4)
        .max_resubmissions(64)
        .build();
    assert_eq!(ctx.real_worker_slots(), EXECUTORS);
    let sums = ctx
        .parallelize(records(), PARTS)
        .reduce_by_key(Arc::new(HashPartitioner::new(PARTS)), |a, b| a + b);
    let mut want = sums.collect().unwrap();
    want.sort_unstable();

    // The map stage's output now sits in the workers; the next action
    // reuses it and only runs the reduce.
    let victim = 1;
    let old_pid = ctx.worker_pid(victim).expect("victim has a process");
    assert!(ctx.sigkill_worker(victim));
    let mut got = sums.collect().unwrap();
    got.sort_unstable();
    assert_eq!(got, want, "recovered reduce differs from the clean run");
    if let Some(stats) = ctx.worker_stats(victim) {
        assert_ne!(stats.pid, old_pid as u64, "a dead worker never answers");
    }
}
