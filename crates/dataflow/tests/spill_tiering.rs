//! Tiered-store integration tests: jobs forced under an artificially low
//! memory watermark must complete by demoting cold blocks to the disk
//! tier and rehydrating them on fetch — never by shedding or aborting —
//! and the answers must be bit-identical to an unconstrained run.

use spangle_dataflow::{
    BackendKind, HashPartitioner, JobOutcome, PairRdd, SpangleContext, SpeculationConfig,
};
use spangle_testkit::{run_cases, Rng};
use std::sync::Arc;
use std::time::Duration;

/// A tight watermark that any of the jobs below crosses many times over,
/// yet comfortably above any single shuffle block so forward progress
/// never wedges on one unspillable deposit.
const LOW_WATERMARK: usize = 16 * 1024;

fn low_watermark_ctx(executors: usize) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .backend(BackendKind::InProc)
        .memory_high_watermark_bytes(LOW_WATERMARK)
        .build()
}

/// Random keyed records, then a two-stage reduce + join pipeline: enough
/// shuffle traffic that the watermark forces spills on the map side and
/// rehydrates on the reduce side.
fn shuffle_pipeline(
    ctx: &SpangleContext,
    records: Vec<(u64, u64)>,
    num_parts: usize,
) -> Vec<(u64, (u64, u64))> {
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
    let pairs = ctx.parallelize(records, num_parts);
    let sums = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
    let maxes = pairs.reduce_by_key(partitioner.clone(), |a, b| a.max(b));
    let mut out = sums.join(&maxes, partitioner).collect().unwrap();
    out.sort();
    out
}

#[test]
fn forced_low_watermark_completes_via_spill_bit_identically() {
    run_cases(0x5B11_71E5, 6, |rng: &mut Rng| {
        let executors = rng.usize_in(2..5);
        let num_parts = executors * rng.usize_in(1..3);
        // High key cardinality: map-side combine barely shrinks the data,
        // so the shuffle really carries tens of KiB past a 16 KiB watermark.
        let num_keys = rng.u64_in(2_000..4_000);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(4_000..8_000))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();

        let expected =
            shuffle_pipeline(&SpangleContext::new(executors), records.clone(), num_parts);

        let ctx = low_watermark_ctx(executors);
        let got = shuffle_pipeline(&ctx, records, num_parts);
        assert_eq!(got, expected, "spilled run must be bit-identical");

        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "watermark never tripped: {snap:?}");
        assert!(
            snap.blocks_rehydrated > 0,
            "reduce side never read the disk tier: {snap:?}"
        );
        assert!(snap.spill_bytes > 0, "{snap:?}");
        assert!(snap.disk_resident_bytes > 0, "{snap:?}");
        assert_eq!(
            snap.jobs_rejected, 0,
            "spill must pre-empt shedding: {snap:?}"
        );
        assert!(
            snap.memory_highwater_bytes < 2 * LOW_WATERMARK as u64,
            "resident peak never contained by spilling: {snap:?}"
        );
        // Each deposit and rehydrate installs its block, sweeps and samples
        // the peak under the block store's one write lock, so no depositor
        // records another's unswept bytes. Every block here is spillable,
        // so each sweep gets residency below the watermark.
        assert!(
            snap.memory_highwater_bytes <= LOW_WATERMARK as u64,
            "resident peak crossed the watermark: {snap:?}"
        );
        let report = ctx.last_job_report().expect("job report");
        assert_eq!(report.outcome, JobOutcome::Succeeded);
        assert_eq!(
            (
                report.blocks_spilled() > 0 || report.blocks_rehydrated() > 0,
                snap.blocks_spilled > 0
            ),
            (true, true),
            "spill activity must surface in per-stage reports: {report}"
        );

        // Dropping every lineage handle runs shuffle GC, which must empty
        // the disk tier — spill files do not outlive their shuffle.
        drop(got);
        drop(ctx.last_job_report());
        assert_eq!(
            {
                // The ctx itself holds no lineage; all RDD handles died at
                // the end of shuffle_pipeline.
                ctx.disk_resident_bytes()
            },
            0,
            "shuffle GC must delete spill files"
        );
    });
}

#[test]
fn cached_partitions_round_trip_through_the_disk_tier() {
    let ctx = low_watermark_ctx(2);
    let cached = ctx
        .parallelize((0u64..20_000).collect(), 4)
        .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    cached.persist();
    let first = cached.collect().unwrap();

    // The materialised cache (~160 KiB) dwarfs the watermark, so most
    // partitions were demoted right after the put.
    let after_put = ctx.metrics_snapshot();
    assert!(after_put.blocks_spilled > 0, "{after_put:?}");
    assert!(ctx.cached_bytes() < LOW_WATERMARK + 4 * 1024);
    assert!(ctx.disk_resident_bytes() > 0);

    // A second action must serve every partition from the cache tiers —
    // rehydrating the spilled ones — and match exactly.
    let second = cached.collect().unwrap();
    assert_eq!(first, second, "rehydrated cache must be bit-identical");
    let delta = ctx.metrics_snapshot() - after_put;
    assert!(
        delta.blocks_rehydrated > 0,
        "second pass never touched the disk tier: {delta:?}"
    );
    assert_eq!(
        delta.recomputations, 0,
        "a spilled partition is a cache hit, not a lineage recompute: {delta:?}"
    );
    assert_eq!(delta.cache_misses, 0, "{delta:?}");

    cached.unpersist();
    assert_eq!(ctx.cached_bytes(), 0);
    assert_eq!(
        ctx.disk_resident_bytes(),
        0,
        "unpersist must clear both tiers"
    );
}

#[test]
fn spill_composes_with_executor_kills() {
    run_cases(0x5B11_0D1E, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(2..4);
        let num_parts = executors * 2;
        let num_keys = rng.u64_in(1_000..2_000);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(3_000..5_000))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
        let victim = rng.usize_in(0..executors);

        let run = |ctx: &SpangleContext, kill: bool| {
            let pairs = ctx.parallelize(records.clone(), num_parts);
            let sums = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
            sums.persist();
            sums.count().unwrap();
            if kill {
                // The kill lands after the map outputs (some of them
                // spilled) are committed: recovery must discard the dead
                // incarnation's blocks in *both* tiers and recompute from
                // lineage, never rehydrate a stale spill file.
                ctx.kill_executor(victim);
            }
            let mut out = sums
                .join(
                    &pairs.reduce_by_key(partitioner.clone(), |a, b| a ^ b),
                    partitioner.clone(),
                )
                .collect()
                .unwrap();
            out.sort();
            out
        };

        let expected = run(&SpangleContext::new(executors), false);

        let ctx = SpangleContext::builder()
            .executors(executors)
            .backend(BackendKind::InProc)
            .memory_high_watermark_bytes(LOW_WATERMARK)
            .max_resubmissions(10_000)
            .build();
        let got = run(&ctx, true);
        assert_eq!(got, expected, "kill + spill recovery must be bit-identical");
        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "{snap:?}");
        assert_eq!(snap.executors_lost, 1, "{snap:?}");
        assert_eq!(snap.jobs_rejected, 0, "{snap:?}");
    });
}

#[test]
fn spill_speculation_and_kills_overlap_without_corruption() {
    run_cases(0x5B11_C405, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(2..4);
        let num_parts = executors * 2;
        let num_keys = rng.u64_in(800..1_500);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(2_000..3_000))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
        let wedge_part = rng.usize_in(0..num_parts);
        let victim = rng.usize_in(0..executors);

        let run = |ctx: &SpangleContext, chaos: bool| {
            let pairs = ctx.parallelize(records.clone(), num_parts);
            let reduced = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
            if chaos {
                // One wedged map task (resolved by a speculative duplicate
                // whose commit must lose cleanly if the original already
                // won — or win and see its rival's spilled block ignored)
                // racing an armed executor kill.
                ctx.failure_injector().wedge_task(pairs.id(), wedge_part, 1);
                ctx.failure_injector().kill_executor_after(victim, 1);
            }
            let mut out = reduced.collect().unwrap();
            out.sort();
            out
        };

        let expected = run(&SpangleContext::new(executors), false);

        let ctx = SpangleContext::builder()
            .executors(executors)
            .backend(BackendKind::InProc)
            .memory_high_watermark_bytes(LOW_WATERMARK)
            .speculation(SpeculationConfig {
                enabled: true,
                multiplier: 3.0,
                min_runtime: Duration::from_millis(40),
            })
            .coalesce_partitions(false)
            .max_resubmissions(10_000)
            .build();
        let got = run(&ctx, true);
        assert_eq!(
            got, expected,
            "spill + speculation + kill must stay bit-identical"
        );
        assert!(ctx.failure_injector().is_drained());
        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "{snap:?}");
    });
}
