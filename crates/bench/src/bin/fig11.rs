//! Figure 11: PageRank across Spangle, the Spark edge-list baseline and
//! the GraphX-like baseline, on four power-law graphs scaled after
//! Table IIb.
//!
//! Spangle stores each adjacency block as a flat or a hierarchical
//! bitmask, whichever is smaller (`spangle(auto)`), on three graphs, and
//! forces the super-sparse (hierarchical) mode on the LiveJournal-like
//! one as §VII-C does. Reported: end-to-end time, average per-iteration
//! time, and the iteration-time trend (first vs last iteration), which is
//! where GraphX's growing triplet state shows up. Each graph's line also
//! prints the adjacency's mask bytes, which show the block form chosen.

use spangle_baselines::{pagerank_edge_list, pagerank_pregel_like};
use spangle_bench::{banner, ms, secs, time, write_bench_json, Json, Table};
use spangle_dataflow::SpangleContext;
use spangle_ml::{pagerank, Graph};
use std::time::Duration;

struct GraphSpec {
    name: &'static str,
    vertices: usize,
    edges: usize,
    block: usize,
    super_sparse: bool,
    seed: u64,
}

const GRAPHS: &[GraphSpec] = &[
    GraphSpec {
        name: "enron-like",
        vertices: 8_192,
        edges: 80_000,
        block: 128,
        super_sparse: false,
        seed: 101,
    },
    GraphSpec {
        name: "epinions-like",
        vertices: 16_384,
        edges: 110_000,
        block: 128,
        super_sparse: false,
        seed: 102,
    },
    GraphSpec {
        name: "livejournal-like",
        vertices: 32_768,
        edges: 450_000,
        block: 256,
        super_sparse: true,
        seed: 103,
    },
    GraphSpec {
        name: "twitter-like",
        vertices: 65_536,
        edges: 1_500_000,
        block: 256,
        super_sparse: false,
        seed: 104,
    },
];

const ITERATIONS: usize = 10;
const ALPHA: f64 = 0.85;

fn stats(times: &[Duration]) -> (Duration, Duration, Duration) {
    let total: Duration = times.iter().sum();
    let avg = total / times.len() as u32;
    (total, avg, *times.last().expect("non-empty"))
}

fn main() {
    banner(
        "Figure 11",
        "PageRank end-to-end and per-iteration times across systems",
    );
    let ctx = SpangleContext::new(8);
    let mut json_graphs: Vec<Json> = Vec::new();
    let mut table = Table::new(&[
        "graph",
        "system",
        "build(s)",
        "total(s)",
        "avg iter(ms)",
        "last iter(ms)",
        "rank sum",
    ]);

    for spec in GRAPHS {
        let g = Graph::power_law(&ctx, spec.vertices, spec.edges, spec.seed, 8);
        g.edges().persist();
        g.num_edges().expect("graph generation");

        // Spangle: bitmask adjacency decomposition. Snapshot the job-id
        // watermark so the per-job scheduler reports below cover exactly
        // this run.
        let first_job = ctx.last_job_report().map_or(0, |r| r.job_id + 1);
        let run_before = ctx.metrics_snapshot();
        let (res, total) = time(|| {
            pagerank(&g, spec.block, spec.super_sparse, ALPHA, ITERATIONS)
                .expect("spangle pagerank")
        });
        let run_delta = ctx.metrics_snapshot() - run_before;
        let reports: Vec<_> = ctx
            .job_reports()
            .into_iter()
            .filter(|r| r.job_id >= first_job)
            .collect();
        let (_, avg, last) = stats(&res.iteration_times);
        table.row(vec![
            spec.name.into(),
            format!(
                "spangle({})",
                if spec.super_sparse {
                    "super-sparse"
                } else {
                    "auto"
                }
            ),
            secs(res.build_time),
            secs(total),
            ms(avg),
            ms(last),
            format!("{:.4}", res.ranks.as_slice().iter().sum::<f64>()),
        ]);
        let stages_run: usize = reports.iter().map(|r| r.stages_run()).sum();
        let stages_skipped: usize = reports.iter().map(|r| r.stages_skipped()).sum();
        let peak = reports
            .iter()
            .map(|r| r.max_concurrent_stages)
            .max()
            .unwrap_or(0);
        let stolen: usize = reports.iter().map(|r| r.tasks_stolen()).sum();
        let worst_skew = reports
            .iter()
            .filter_map(|r| r.busy_skew())
            .fold(0.0f64, f64::max);
        let queue_wait_ms: u64 = reports.iter().map(|r| r.queue_wait_nanos / 1_000_000).sum();
        let fetch_failures: usize = reports.iter().map(|r| r.fetch_failures()).sum();
        let maps_recomputed: usize = reports.iter().map(|r| r.map_partitions_recomputed()).sum();
        let fused: usize = reports.iter().map(|r| r.stages_fused()).sum();
        let elided: usize = reports.iter().map(|r| r.shuffles_elided()).sum();
        let coalesced: usize = reports.iter().map(|r| r.partitions_coalesced()).sum();
        let speculated: usize = reports.iter().map(|r| r.tasks_speculated()).sum();
        let spec_wins: usize = reports.iter().map(|r| r.speculation_wins()).sum();
        let cancelled: usize = reports.iter().map(|r| r.tasks_cancelled()).sum();
        let watchdogs: usize = reports.iter().map(|r| r.watchdog_trips()).sum();
        let backoff_nanos: u64 = reports.iter().map(|r| r.backoff_nanos()).sum();
        println!(
            "-- {}: spangle scheduler ran {} jobs ({} stages run, {} skipped, peak {} concurrent stages, {} tasks stolen, worst busy skew {:.2}, total queue wait {} ms, {} fetch failures, {} map partitions recomputed)",
            spec.name,
            reports.len(),
            stages_run,
            stages_skipped,
            peak,
            stolen,
            worst_skew,
            queue_wait_ms,
            fetch_failures,
            maps_recomputed,
        );
        println!(
            "   planner: {fused} narrow chains fused, {elided} shuffles elided, \
             {coalesced} partitions coalesced"
        );
        println!(
            "   adjacency: {} KiB of masks for {} edges",
            res.adjacency_bytes / 1024,
            spec.edges,
        );
        println!(
            "   speculation: {speculated} launched, {spec_wins} won, \
             {cancelled} tasks cancelled"
        );
        println!(
            "   health: {watchdogs} watchdog trips, {:.1} ms retry backoff",
            backoff_nanos as f64 / 1e6,
        );
        if let Some(longest) = reports.iter().max_by_key(|r| r.wall_nanos) {
            println!("   slowest job: {longest}");
        }
        json_graphs.push(Json::obj(vec![
            ("name", Json::Str(spec.name.into())),
            ("vertices", Json::U64(spec.vertices as u64)),
            ("edges", Json::U64(spec.edges as u64)),
            ("build_ms", Json::F64(res.build_time.as_secs_f64() * 1e3)),
            ("total_ms", Json::F64(total.as_secs_f64() * 1e3)),
            ("avg_iter_ms", Json::F64(avg.as_secs_f64() * 1e3)),
            ("last_iter_ms", Json::F64(last.as_secs_f64() * 1e3)),
            ("jobs", Json::U64(reports.len() as u64)),
            ("stages_run", Json::U64(stages_run as u64)),
            ("stages_skipped", Json::U64(stages_skipped as u64)),
            (
                "shuffle_write_bytes",
                Json::U64(run_delta.shuffle_write_bytes),
            ),
            (
                "shuffle_read_bytes",
                Json::U64(run_delta.shuffle_read_bytes),
            ),
            ("stages_fused", Json::U64(fused as u64)),
            ("shuffles_elided", Json::U64(elided as u64)),
            ("partitions_coalesced", Json::U64(coalesced as u64)),
            ("tasks_speculated", Json::U64(speculated as u64)),
            ("speculation_wins", Json::U64(spec_wins as u64)),
            ("tasks_cancelled", Json::U64(cancelled as u64)),
            ("watchdog_trips", Json::U64(watchdogs as u64)),
            ("backoff_nanos", Json::U64(backoff_nanos)),
            ("blocks_spilled", Json::U64(run_delta.blocks_spilled)),
            ("blocks_rehydrated", Json::U64(run_delta.blocks_rehydrated)),
            ("spill_bytes", Json::U64(run_delta.spill_bytes)),
        ]));
        let snap = ctx.metrics_snapshot();
        let admission_wait_ms: u64 = reports
            .iter()
            .map(|r| r.admission_wait_nanos / 1_000_000)
            .sum();
        println!(
            "   admission: {} rejected, {} deadlined so far, run queue wait {} ms, \
             queue peak {}, memory peak {} KiB (cache peak {} KiB)",
            snap.jobs_rejected,
            snap.jobs_deadlined,
            admission_wait_ms,
            snap.admission_queue_peak,
            snap.memory_highwater_bytes / 1024,
            snap.cache_highwater_bytes / 1024,
        );
        println!(
            "   spill: {} blocks out, {} back this run ({} KiB written so far, disk peak {} KiB)",
            run_delta.blocks_spilled,
            run_delta.blocks_rehydrated,
            snap.spill_bytes / 1024,
            snap.disk_resident_bytes / 1024,
        );

        // Spark edge-list.
        let (res, total) =
            time(|| pagerank_edge_list(&g, ALPHA, ITERATIONS, 8).expect("edge-list pagerank"));
        let (_, avg, last) = stats(&res.iteration_times);
        table.row(vec![
            spec.name.into(),
            "spark-edgelist".into(),
            secs(res.build_time),
            secs(total),
            ms(avg),
            ms(last),
            format!("{:.4}", res.ranks.iter().sum::<f64>()),
        ]);

        // GraphX-like.
        let (res, total) =
            time(|| pagerank_pregel_like(&g, ALPHA, ITERATIONS, 8).expect("pregel pagerank"));
        let (_, avg, last) = stats(&res.iteration_times);
        table.row(vec![
            spec.name.into(),
            "graphx-like".into(),
            secs(res.build_time),
            secs(total),
            ms(avg),
            ms(last),
            format!("{:.4}", res.ranks.iter().sum::<f64>()),
        ]);
    }
    table.print();

    // Figure-level memory trajectory for the bench_compare memory gate.
    let final_snap = ctx.metrics_snapshot();
    write_bench_json(
        "fig11",
        &Json::obj(vec![
            ("figure", Json::Str("fig11".into())),
            (
                "description",
                Json::Str(
                    "PageRank end-to-end and per-iteration times on the spangle engine".into(),
                ),
            ),
            (
                "memory_peak_bytes",
                Json::U64(final_snap.memory_highwater_bytes),
            ),
            ("blocks_spilled", Json::U64(final_snap.blocks_spilled)),
            ("blocks_rehydrated", Json::U64(final_snap.blocks_rehydrated)),
            ("spill_bytes", Json::U64(final_snap.spill_bytes)),
            ("heartbeats_missed", Json::U64(final_snap.heartbeats_missed)),
            ("watchdog_trips", Json::U64(final_snap.watchdog_trips)),
            (
                "executors_quarantined",
                Json::U64(final_snap.executors_quarantined),
            ),
            ("backoff_nanos", Json::U64(final_snap.backoff_nanos)),
            ("graphs", Json::Arr(json_graphs)),
        ]),
    );
}
