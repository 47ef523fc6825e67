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
use spangle_bench::{
    banner, counter_entries, machine_entries, ms, print_counters, secs, time, write_bench_json,
    Json, Table,
};
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
        let peak = reports
            .iter()
            .map(|r| r.max_concurrent_stages)
            .max()
            .unwrap_or(0);
        let worst_skew = reports
            .iter()
            .filter_map(|r| r.busy_skew())
            .fold(0.0f64, f64::max);
        let queue_wait_ms: u64 = reports.iter().map(|r| r.queue_wait_nanos / 1_000_000).sum();
        let admission_wait_ms: u64 = reports
            .iter()
            .map(|r| r.admission_wait_nanos / 1_000_000)
            .sum();
        println!(
            "-- {}: spangle scheduler ran {} jobs ({} stages run, {} skipped, peak {} concurrent stages, worst busy skew {:.2}, total queue wait {} ms, admission wait {} ms)",
            spec.name,
            reports.len(),
            run_delta.stages_run,
            run_delta.stages_skipped,
            peak,
            worst_skew,
            queue_wait_ms,
            admission_wait_ms,
        );
        println!(
            "   adjacency: {} KiB of masks for {} edges",
            res.adjacency_bytes / 1024,
            spec.edges,
        );
        print_counters("counters this run", &run_delta);
        if let Some(longest) = reports.iter().max_by_key(|r| r.wall_nanos) {
            println!("   slowest job: {longest}");
        }
        let head = [
            ("name", Json::Str(spec.name.into())),
            ("vertices", Json::U64(spec.vertices as u64)),
            ("edges", Json::U64(spec.edges as u64)),
            ("build_ms", Json::F64(res.build_time.as_secs_f64() * 1e3)),
            ("total_ms", Json::F64(total.as_secs_f64() * 1e3)),
            ("avg_iter_ms", Json::F64(avg.as_secs_f64() * 1e3)),
            ("last_iter_ms", Json::F64(last.as_secs_f64() * 1e3)),
            ("jobs", Json::U64(reports.len() as u64)),
        ];
        json_graphs.push(Json::obj(
            head.into_iter()
                .chain(counter_entries(&run_delta))
                .collect(),
        ));

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
    print_counters("counters so far", &final_snap);
    let head = [
        ("figure", Json::Str("fig11".into())),
        (
            "description",
            Json::Str("PageRank end-to-end and per-iteration times on the spangle engine".into()),
        ),
        (
            "memory_peak_bytes",
            Json::U64(final_snap.memory_highwater_bytes),
        ),
    ];
    let entries = head
        .into_iter()
        .chain(machine_entries(&ctx))
        .chain(counter_entries(&final_snap))
        .chain([("graphs", Json::Arr(json_graphs))]);
    write_bench_json("fig11", &Json::obj(entries.collect()));
}
