//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! spangle-benchmark --workload <pagerank|gram|gram-spill|raster> --seed <n>
//!                   --seconds <s> --trace <0|1> [--scale full|smoke]
//! spangle-benchmark compare <stdout-of-runs-A> <stdout-of-runs-B>
//! ```
//!
//! A run prints one metric per line, a stamped record line, and as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 when any op failed, 2 on a usage error or when
//! the reference or set-up failed. Everything it writes (spill files, the
//! span file of a traced run) goes under `.bench_out/` in the current
//! directory.

use spangle_benchmark::report;
use spangle_benchmark::runner::{self, RunConfig};
use spangle_benchmark::workloads::{Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: spangle-benchmark --workload <pagerank|gram|gram-spill|raster> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]\n       \
spangle-benchmark compare <results-A> <results-B>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::FULL;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| format!("unknown scale '{value}'"))?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        executors: report::cores(),
    })
}

/// Confines the run to `.bench_out/` and to default runtime settings.
/// Called first, before any thread exists: it edits the environment.
fn prepare_environment() -> Result<PathBuf, String> {
    let out = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(".bench_out");
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    // The spill tier writes under the temporary directory.
    std::env::set_var("TMPDIR", &tmp);
    // `SPANGLE_*` variables change runtime defaults (watermark, spill,
    // planner, backend); the benchmark measures the defaults.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SPANGLE_") {
            std::env::remove_var(key);
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = match prepare_environment() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match runner::run(&cfg) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{} (seed {}): {e}", cfg.workload.name(), cfg.seed);
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &result.spans_jsonl {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        match std::fs::write(&path, spans) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report::table(&cfg, &result));
    println!("{}", report::record(&cfg, &result).render());
    println!("{}", report::result_line(&cfg, &result).render());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(a)
        .and_then(|ta| read(b).map(|tb| (ta, tb)))
        .and_then(|(ta, tb)| report::compare(&ta, &tb))
    {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
