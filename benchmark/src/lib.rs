//! The repository benchmark.
//!
//! Four workloads run through the public APIs of `spangle-ml`,
//! `spangle-linalg`, `spangle-raster` and `spangle-dataflow` on the
//! in-process backend, with one executor per available core:
//!
//! * `pagerank` — `spangle_ml::pagerank` on an R-MAT graph (Fig. 11);
//! * `gram` — `DistMatrix::gram` on a sparse matrix (Fig. 10's MtM);
//! * `gram-spill` — the same op under a 32 MiB memory watermark, whose
//!   product must be bit-identical to `gram`'s (it is not yet, so
//!   `BENCHMARK.json` does not list it);
//! * `raster` — Table I Q1–Q5 through `SpangleRaster` (Fig. 7).
//!
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer metrics from spans and the runtime's public counters. Every
//! op is checked against an independent reference.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
