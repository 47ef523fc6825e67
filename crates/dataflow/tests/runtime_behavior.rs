//! Runtime-behaviour integration tests: shuffle garbage collection,
//! broadcast variables inside jobs, stage reuse across actions, metrics
//! plumbing, and executor-loss fault tolerance.

use spangle_dataflow::{
    BackendKind, HashPartitioner, JobOutcome, JobReport, MetricsSnapshot, PairRdd, SpangleContext,
    SpeculationConfig,
};
use std::sync::Arc;

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// A context whose blocks all stay in the driver, for tests that assert
/// driver residency: the process backend keeps them in its workers.
fn in_driver(executors: usize) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .backend(BackendKind::InProc)
        .build()
}

#[test]
fn dropping_a_shuffled_rdd_frees_its_shuffle_blocks() {
    let ctx = in_driver(2);
    let base = ctx.parallelize((0u64..200).map(|i| (i % 10, i)).collect(), 4);
    let reduced = base.reduce_by_key(Arc::new(HashPartitioner::new(4)), |a, b| a + b);
    reduced.count().unwrap();
    assert!(
        ctx.shuffle_resident_bytes() > 0,
        "shuffle outputs are kept for reuse while the RDD lives"
    );
    drop(reduced);
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "dropping the last reader garbage-collects the shuffle"
    );
}

#[test]
fn iterative_jobs_do_not_leak_shuffle_state() {
    let ctx = SpangleContext::new(2);
    let base = ctx.parallelize((0u64..100).map(|i| (i % 5, 1u64)).collect(), 4);
    let mut resident_after_drop = Vec::new();
    for _ in 0..5 {
        let step = base.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        step.count().unwrap();
        drop(step);
        resident_after_drop.push(ctx.shuffle_resident_bytes());
    }
    assert!(
        resident_after_drop.iter().all(|&b| b == 0),
        "per-iteration shuffles must be reclaimed: {resident_after_drop:?}"
    );
}

#[test]
fn broadcast_values_are_visible_inside_tasks() {
    let ctx = SpangleContext::new(3);
    let lookup = ctx.broadcast(vec![10i64, 20, 30, 40]);
    let rdd = ctx.parallelize(vec![0usize, 1, 2, 3, 2, 1], 3);
    let mapped = rdd.map(move |i| lookup.value()[i]);
    assert_eq!(mapped.collect().unwrap(), vec![10, 20, 30, 40, 30, 20]);
}

#[test]
fn shuffle_reuse_survives_downstream_transformations() {
    let ctx = SpangleContext::new(2);
    let reduced = ctx
        .parallelize((0u64..100).map(|i| (i % 4, 1u64)).collect(), 4)
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
    reduced.count().unwrap();

    // Three different downstream pipelines over the same shuffled parent:
    // the map stage must run exactly once in total.
    let before = ctx.metrics_snapshot();
    let a = reduced.map(|(k, v)| (k, v * 2)).collect().unwrap();
    let b = reduced.filter(|(_, v)| *v > 10).count().unwrap();
    let c = reduced.map(|(_, v)| v).reduce(|x, y| x + y).unwrap();
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(a.len(), 4);
    assert_eq!(b, 4);
    assert_eq!(c, Some(100));
    assert_eq!(delta.stages_skipped, 3, "each action skips the map stage");
    assert_eq!(delta.shuffle_write_bytes, 0);
}

#[test]
fn per_job_metrics_compose_across_interleaved_jobs() {
    let ctx = SpangleContext::new(2);
    let rdd = ctx.parallelize((0u64..1000).collect(), 8);
    let s0 = ctx.metrics_snapshot();
    rdd.count().unwrap();
    let s1 = ctx.metrics_snapshot();
    rdd.count().unwrap();
    let s2 = ctx.metrics_snapshot();
    // Two identical narrow jobs cost the same.
    assert_eq!((s1 - s0).tasks_run, (s2 - s1).tasks_run);
    assert_eq!((s1 - s0).stages_run, 1);
}

/// Names of every live thread in this process, via `/proc` (comm is
/// truncated to 15 bytes, so match on prefixes).
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
                names.push(comm.trim().to_string());
            }
        }
    }
    names
}

/// A job awaiting a shuffle that another job is producing must not park a
/// `spangle-stage-waiter-*` thread (the scheduler subscribes a callback on
/// the shuffle service instead), and the wait must still resolve to the
/// shared output being computed exactly once.
#[test]
#[cfg(target_os = "linux")]
fn awaiting_an_in_flight_shuffle_spawns_no_waiter_threads() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    let ctx = SpangleContext::new(2);
    // Two map partitions, each sleeping once: a wide window in which the
    // map stage is in flight and a second job has to wait on it.
    let slow = ctx.parallelize(vec![(0u64, 1u64), (1, 2)], 2).map(|kv| {
        std::thread::sleep(Duration::from_millis(120));
        kv
    });
    let reduced = slow.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

    let before = ctx.metrics_snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let sampler = {
        let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let waiters: Vec<String> = thread_names()
                    .into_iter()
                    .filter(|n| n.starts_with("spangle-stage"))
                    .collect();
                seen.lock().unwrap().extend(waiters);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let (a, b) = {
        let ra = reduced.clone();
        let rb = reduced.clone();
        let ta = std::thread::spawn(move || ra.collect().unwrap());
        // Give job A a head start so job B reliably finds the shuffle
        // in flight and has to await it.
        std::thread::sleep(Duration::from_millis(30));
        let tb = std::thread::spawn(move || rb.collect().unwrap());
        (ta.join().unwrap(), tb.join().unwrap())
    };
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();

    let mut a = a;
    let mut b = b;
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(a, vec![(0, 1), (1, 2)]);
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.tasks_run, 2 + 2 + 2, "the map stage ran exactly once");
    assert_eq!(
        delta.stages_skipped, 1,
        "the second job awaited, then skipped"
    );
    let seen = seen.lock().unwrap();
    assert!(
        seen.is_empty(),
        "no spangle-stage-waiter-* thread may ever exist, saw: {seen:?}"
    );
}

/// The headline recovery scenario: an executor is killed *between* a map
/// stage and its reduce stage (the map output exists and the shuffle is
/// marked completed when the kill lands). The reduce observes
/// `FetchFailed`, the scheduler recomputes only the lost map partition
/// from lineage, and the job's result is identical to the no-failure run.
#[test]
fn killing_an_executor_between_map_and_reduce_recomputes_only_its_maps() {
    // 2 map partitions on 2 executors: task placement is partition ==
    // executor and single-entry queues are never stolen, so map partition
    // 1's output lives on executor 1, deterministically.
    let ctx = SpangleContext::new(2);
    let reduced = ctx
        .parallelize((0u64..100).map(|i| (i % 4, i)).collect(), 2)
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

    let s0 = ctx.metrics_snapshot();
    let baseline = sorted(reduced.collect().unwrap());
    let s1 = ctx.metrics_snapshot();
    let full_run = s1 - s0;
    assert!(full_run.shuffle_write_bytes > 0);

    // Kill between the stages: the map output is complete and resident,
    // and the next action will skip the map stage and go straight to the
    // reduce — which must then discover the hole.
    let loss = ctx.kill_executor(1);
    assert_eq!(loss.executor, 1);
    assert_eq!(loss.incarnation, 1);
    assert!(loss.shuffle_blocks_dropped >= 1);
    assert!(loss.shuffle_bytes_dropped > 0);

    let recovered = sorted(reduced.collect().unwrap());
    let recovery = ctx.metrics_snapshot() - s1;
    assert_eq!(recovered, baseline, "recovery must not change the answer");
    assert_eq!(recovery.executors_lost, 1);
    assert!(recovery.fetch_failures >= 1, "{recovery:?}");
    assert_eq!(
        recovery.map_partitions_recomputed, 1,
        "only executor 1's map partition is recomputed: {recovery:?}"
    );
    // The recomputation rewrote map partition 1's blocks and nothing
    // else: strictly more than zero, strictly less than the full map
    // stage.
    assert!(recovery.shuffle_write_bytes > 0, "{recovery:?}");
    assert!(
        recovery.shuffle_write_bytes < full_run.shuffle_write_bytes,
        "surviving map output must be reused, not rewritten: {recovery:?}"
    );

    let report = ctx.last_job_report().expect("recovery job report");
    assert_eq!(report.outcome, JobOutcome::Succeeded);
    assert!(report.fetch_failures() >= 1);
    assert_eq!(report.map_partitions_recomputed(), 1);
}

/// Every stage-scoped counter of `report` sums, over its stages, to the
/// job's snapshot `delta`, recovery runs included. The spill counters are
/// the exception: they report the context-wide activity seen while each
/// stage ran.
fn assert_stage_counters_sum_to_delta(report: &JobReport, delta: &MetricsSnapshot) {
    let mut sums: Vec<(&str, u64)> = Vec::new();
    for stage in &report.stages {
        for (i, (name, value)) in stage.counters.fields().enumerate() {
            match sums.get_mut(i) {
                Some(sum) => sum.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    let spill_window = ["blocks_spilled", "blocks_rehydrated", "spill_bytes"];
    sums.retain(|(name, _)| !spill_window.contains(name));
    assert_eq!(sums.len(), 11, "{sums:?}");
    for (name, sum) in sums {
        let value = delta.fields().find(|&(n, _)| n == name).unwrap().1;
        assert_eq!(
            sum, value,
            "{name}: job report {report}, snapshot delta {delta:?}"
        );
    }
}

/// Speculation off and the planner on, whatever the environment says.
fn planned_without_speculation(executors: usize) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .speculation(SpeculationConfig {
            enabled: false,
            ..SpeculationConfig::default()
        })
        .fuse_narrow_chains(true)
        .elide_shuffles(true)
        .coalesce_partitions(true)
        .build()
}

/// Mid-job executor loss: the injector kills executor 1 right after it
/// finishes its reduce-side task of the first shuffle, while the job is
/// still running. The attempt comes back as `ExecutorLost`, its replay
/// trips over the first shuffle's lost map output (`FetchFailed`), the
/// lost map partition is rebuilt from lineage, and the job completes with
/// the correct result.
#[test]
fn mid_job_executor_kill_recovers_through_lineage() {
    // The job's stage reports must add up to its snapshot delta, with the
    // recovered map stage's fused chain counted in both.
    let ctx = planned_without_speculation(2);
    let out = {
        // The map and filter fuse into one chain on the first shuffle's
        // map side, so the recovery run below re-runs a fused chain.
        let first = ctx
            .parallelize((0u64..100).collect(), 2)
            .map(|i| (i % 4, i))
            .filter(|_| true)
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        // A second shuffle so the first one's reduce runs mid-job: the
        // identity re-keying defeats co-partitioning, forcing a real
        // shuffle.
        let second = first
            .map(|(k, v)| (k, v * 2))
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

        // Executor 1 runs exactly two tasks before the kill: the first
        // shuffle's map task, then its reduce task (which is the second
        // shuffle's map task). The kill lands after the latter, so both
        // its first-shuffle map output and its just-written second-shuffle
        // output die with it, mid-job.
        ctx.failure_injector().kill_executor_after(1, 2);
        let before = ctx.metrics_snapshot();
        let out = sorted(second.collect().unwrap());
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.executors_lost, 1);
        assert!(delta.fetch_failures >= 1, "{delta:?}");
        assert_eq!(delta.map_partitions_recomputed, 1, "{delta:?}");

        let report = ctx.last_job_report().unwrap();
        assert_stage_counters_sum_to_delta(&report, &delta);
        assert!(
            report.stages_fused() >= 2,
            "the recovery run re-ran the fused chain: {report}"
        );
        out
    };
    // Key k sums i over i ≡ k (mod 4), i < 100: 25k + 1200; doubled by
    // the map between the shuffles.
    let expected: Vec<(u64, u64)> = (0..4).map(|k| (k, 2 * (25 * k + 1200))).collect();
    assert_eq!(out, expected);
    assert!(
        ctx.failure_injector().is_drained(),
        "the armed executor kill must have fired"
    );
}

/// A map stage whose first run coalesced its reduce buckets, then lost
/// its output: its recovery run resubmits single partitions and starts
/// from zeroed counters, so the report does not repeat the first run's
/// coalescing. One executor makes the order of task bodies, and so the
/// kill, deterministic.
#[test]
fn recovery_run_of_a_coalesced_stage_counts_from_zero() {
    let ctx = planned_without_speculation(1);
    let second = ctx
        .parallelize((0u64..100).map(|i| (i % 8, i)).collect(), 4)
        .reduce_by_key(Arc::new(HashPartitioner::new(4)), |a, b| a + b)
        .map(|(k, v)| (k + 1, v))
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
    // Bodies 1-4 are the first map stage, 5-8 the second (its four tiny
    // buckets coalesced into one task), 9 the first result partition:
    // the kill after it loses both shuffles' output.
    ctx.failure_injector().kill_executor_after(0, 9);
    let before = ctx.metrics_snapshot();
    let out = sorted(second.collect().unwrap());
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(out.iter().map(|&(_, v)| v).sum::<u64>(), 4950);
    assert_eq!(delta.executors_lost, 1, "{delta:?}");
    let report = ctx.last_job_report().unwrap();
    let recovered = report
        .stages
        .iter()
        .filter(|s| s.counters.map_partitions_recomputed > 0)
        .count();
    assert_eq!(recovered, 2, "both map stages re-ran: {report}");
    assert!(delta.partitions_coalesced > 0, "{delta:?}");
    assert_stage_counters_sum_to_delta(&report, &delta);
}

/// Injector composition: `fail_task` and `kill_executor_after` armed on
/// the *same attempt* must both fire, and the injected failure must keep
/// precedence over the executor loss — charged to the task's attempt
/// budget (one retry) instead of vanishing into the free replay the
/// `ExecutorLost` path grants. Regression test: the epoch-override check
/// used to rewrite the `Injected` outcome into `ExecutorLost`.
#[test]
fn injected_failure_composes_with_executor_kill_on_same_attempt() {
    let ctx = SpangleContext::new(2);
    let rdd = ctx.parallelize((0u64..20).collect(), 2);
    // Partition 1 is placed on executor 1: its first attempt is killed by
    // the injector, and the same task body is executor 1's first task, so
    // the armed kill fires right after the injected failure.
    ctx.failure_injector().fail_task(rdd.id(), 1, 1);
    ctx.failure_injector().kill_executor_after(1, 1);

    let before = ctx.metrics_snapshot();
    let out = sorted(rdd.collect().unwrap());
    let delta = ctx.metrics_snapshot() - before;

    assert_eq!(out, (0u64..20).collect::<Vec<_>>());
    assert!(
        ctx.failure_injector().is_drained(),
        "both armed injections must have fired"
    );
    assert_eq!(delta.executors_lost, 1, "{delta:?}");
    assert_eq!(
        delta.task_retries, 1,
        "the injected failure is charged as a retry, not an executor-loss \
         replay: {delta:?}"
    );
}

/// A permanently poisoned job — every resubmission is answered by another
/// executor kill — exhausts its resubmission budget and aborts cleanly
/// instead of looping, leaving no shuffle bytes resident.
#[test]
fn exhausted_resubmission_budget_aborts_the_job_cleanly() {
    let ctx = SpangleContext::builder()
        .executors(1)
        .max_resubmissions(3)
        .build();
    let reduced = ctx
        .parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 1)
        .reduce_by_key(Arc::new(HashPartitioner::new(1)), |a, b| a + b);
    // Four kills: the initial attempt plus one per budgeted resubmission,
    // so the fourth `ExecutorLost` finds the budget empty.
    for _ in 0..4 {
        ctx.failure_injector().kill_executor_after(0, 1);
    }
    let err = reduced.collect().unwrap_err();
    let report = ctx
        .job_reports()
        .into_iter()
        .find(|r| r.job_id == err.job_id)
        .expect("aborted job report");
    assert_eq!(report.outcome, JobOutcome::Aborted);
    let snap = ctx.metrics_snapshot();
    assert_eq!(snap.executors_lost, 4);
    assert!(
        ctx.failure_injector().is_drained(),
        "every armed kill must have fired"
    );
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "the abort must leave no partial shuffle output resident"
    );
}

/// Killing an executor also drops the cached partitions it computed; the
/// next action silently recomputes them from lineage (and only them).
#[test]
fn killed_executors_cached_partitions_recompute_from_lineage() {
    let ctx = in_driver(2);
    let data: Vec<u64> = (0..100).collect();
    let rdd = ctx.parallelize(data.clone(), 2).map(|x| x * 3);
    rdd.persist();
    assert_eq!(rdd.count().unwrap(), 100);
    let cached_before = ctx.cached_bytes();
    assert!(cached_before > 0);

    let loss = ctx.kill_executor(0);
    assert_eq!(loss.cached_partitions_dropped, 1);
    assert!(loss.cached_bytes_dropped > 0);
    assert!(ctx.cached_bytes() < cached_before);

    let before = ctx.metrics_snapshot();
    let out = sorted(rdd.collect().unwrap());
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(out, data.iter().map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(delta.cache_misses, 1, "one partition recomputes: {delta:?}");
    assert_eq!(delta.cache_hits, 1, "the survivor is reused: {delta:?}");
    assert_eq!(ctx.cached_bytes(), cached_before, "re-cached after loss");
}

#[test]
fn executor_count_does_not_change_results() {
    let data: Vec<(u64, u64)> = (0..500).map(|i| (i % 17, i)).collect();
    let mut outputs = Vec::new();
    for executors in [1usize, 2, 7] {
        let ctx = SpangleContext::new(executors);
        let mut out = ctx
            .parallelize(data.clone(), 5)
            .reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a.max(b))
            .collect()
            .unwrap();
        out.sort();
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}
