//! The SIGKILL crash gate, run by `scripts/check.sh proc`: the real
//! PageRank pipeline (`spangle_ml::pagerank`, the Fig. 11 workload) on the
//! process backend, with one worker process `SIGKILL`ed per iteration.
//!
//! A killed worker takes its slot's shuffle blocks and cached adjacency
//! partitions with it. The driver must notice each death purely from
//! missed socket heartbeats, kill the slot through the standard health
//! path, recompute what was lost from lineage, and land on the ranks of a
//! clean in-process run. Nothing here calls `kill_executor`.

use spangle::dataflow::{BackendKind, SpangleContext};
use spangle::ml::{pagerank, Graph};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EXECUTORS: usize = 4;
const ITERATIONS: usize = 8;

fn ranks(ctx: &SpangleContext) -> Vec<f64> {
    let g = Graph::power_law(ctx, 256, 2048, 5, 4);
    let result = pagerank(&g, 64, false, 0.85, ITERATIONS).unwrap();
    result.ranks.as_slice().to_vec()
}

#[test]
#[ignore = "crash gate: run explicitly via scripts/check.sh proc"]
fn pagerank_survives_a_worker_sigkill_per_iteration() {
    let clean = ranks(
        &SpangleContext::builder()
            .executors(EXECUTORS)
            .backend(BackendKind::InProc)
            .build(),
    );

    let ctx = SpangleContext::builder()
        .executors(EXECUTORS)
        .backend(BackendKind::Proc)
        .health_monitoring(true)
        // Tight heartbeat so each SIGKILL is detected in ~100 ms.
        .heartbeat_interval(Duration::from_millis(25))
        .missed_heartbeat_limit(4)
        // Every task that trips over a dead worker's blocks charges the
        // per-job resubmission budget once per recovery round.
        .max_resubmissions(512)
        .max_task_attempts(8)
        .build();
    assert_eq!(
        ctx.real_worker_slots(),
        EXECUTORS,
        "every slot must be served by a worker process (is the \
         spangle_worker binary missing?)"
    );
    let before = ctx.metrics_snapshot();

    // Each PageRank iteration is one job: for every job that finishes,
    // SIGKILL the next worker in turn, so the following iteration starts
    // against a dead process.
    let done = Arc::new(AtomicBool::new(false));
    let killer = {
        let (ctx, done) = (ctx.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut calls, mut signalled) = (0usize, 0usize);
            while !done.load(Ordering::SeqCst) {
                if calls < ctx.job_reports().len() {
                    signalled += usize::from(ctx.sigkill_worker(calls % EXECUTORS));
                    calls += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            signalled
        })
    };
    let recovered = ranks(&ctx);
    done.store(true, Ordering::SeqCst);
    let kills = killer.join().unwrap();
    assert!(
        kills >= ITERATIONS,
        "one SIGKILL per iteration, got {kills}"
    );

    assert_eq!(recovered.len(), clean.len());
    for (a, b) in clean.iter().zip(&recovered) {
        assert!((a - b).abs() < 1e-15, "rank {b} differs from clean {a}");
    }
    let delta = ctx.metrics_snapshot() - before;
    assert!(
        delta.executors_lost >= 1,
        "the health plane must declare at least one executor lost (got {}) \
         — this test never calls kill_executor",
        delta.executors_lost
    );
    assert!(
        delta.heartbeats_missed >= 1,
        "loss must come from missed socket heartbeats (got {})",
        delta.heartbeats_missed
    );
}
