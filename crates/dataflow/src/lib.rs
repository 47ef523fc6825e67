#![warn(missing_docs)]

//! An in-memory distributed dataflow runtime — the Apache Spark substitute
//! that Spangle runs on.
//!
//! The Spangle paper builds on Spark's Resilient Distributed Datasets
//! (RDDs): lazily evaluated, partitioned, fault-tolerant collections whose
//! lineage graph is cut into *stages* at shuffle boundaries by a DAG
//! scheduler. This crate reproduces that execution model inside one
//! process so that every experiment in the paper can run without a cluster:
//!
//! * a [`SpangleContext`] owns a simulated cluster of *executors* (worker
//!   threads) with deterministic partition placement;
//! * [`Rdd<T>`] is a typed, lazily evaluated lineage node supporting the
//!   Spark transformations Spangle uses (`map`, `filter`, `flat_map`,
//!   `map_partitions`, `union`, `zip_partitions`) and pair-RDD shuffles
//!   (`reduce_by_key`, `group_by_key`, `partition_by`, `join`, `cogroup`);
//! * actions (`collect`, `count`, `reduce`, …) trigger the
//!   [`scheduler`], which splits the lineage into stages at
//!   [`shuffle`] dependencies and runs tasks on the executor pool;
//! * all shuffled records pass through an in-memory shuffle service that
//!   charges their deep size ([`MemSize`]) to job [`metrics`], so the
//!   paper's network-volume arguments stay measurable;
//! * partitions may be cached ([`Rdd::persist`]) in the block store, and
//!   lost blocks or failed task attempts (see [`failure`]) are recovered by
//!   lineage recomputation, exactly like Spark's fault-tolerance story;
//! * the whole *executor* is a failure domain: every shuffle block and
//!   cached partition is attributed to the executor incarnation that
//!   produced it, [`SpangleContext::kill_executor`] discards all of it and
//!   seats a replacement, and a reduce task that then finds a shuffle
//!   block missing fails with [`TaskError::FetchFailed`] — the scheduler
//!   re-runs exactly the lost map partitions from lineage (never the
//!   survivors) under a per-job resubmission budget before replaying the
//!   reduce, so iterative jobs survive executor deaths mid-flight.
//!
//! The runtime is intentionally conservative about what it models: by
//! default there is no serialization format and no real network. What *is*
//! modelled — stage boundaries, shuffle volume, task scheduling, caching,
//! recomputation — is precisely the set of mechanisms the Spangle
//! evaluation reasons about. Under [`BackendKind::Proc`] each executor slot
//! also has a worker process holding its blocks, in the spill codec's byte
//! form, so a process crash is a real failure domain.

pub mod backend;
pub mod context;
pub(crate) mod env;
pub mod executor;
pub mod failure;
pub mod health;
pub mod memsize;
pub mod metrics;
pub mod partitioner;
pub mod plan;
pub mod procw;
pub mod rdd;
pub mod scheduler;
pub mod shuffle;
pub(crate) mod spill;
pub(crate) mod store;
pub mod sync;
pub(crate) mod wire;

pub use backend::{BackendKind, WorkerStats};
pub use context::{Broadcast, ExecutorLoss, SpangleContext, SpangleContextBuilder};
pub use executor::{
    cancellation_point, is_task_cancelled, BlockOrigin, CancelGauge, CancelToken, CancelledError,
};
pub use health::{HealthConfig, RetryBackoffConfig};
pub use memsize::{put_len, MemSize, SpillCursor};
pub use metrics::{
    JobOutcome, JobReport, MetricsSnapshot, StageCounters, StageOutcome, StageReport,
};
pub use partitioner::{
    HashPartitioner, ModPartitioner, Partitioner, PartitionerSig, RangePartitioner,
};
pub use plan::PlanNodeInfo;
pub use rdd::pair::PairRdd;
pub use rdd::Rdd;
pub use scheduler::{submit_job, JobError, JobHandle, SpeculationConfig, TaskError};

/// Marker for types that can be elements of an [`Rdd`].
///
/// Elements must be cheap-ish to clone (they move between lineage stages by
/// value), sendable across executor threads, and able to report their deep
/// memory size for shuffle-volume accounting.
pub trait Data: Clone + Send + Sync + MemSize + 'static {}
impl<T: Clone + Send + Sync + MemSize + 'static> Data for T {}

/// Marker for types usable as shuffle keys.
pub trait Key: Data + std::hash::Hash + Eq {}
impl<T: Data + std::hash::Hash + Eq> Key for T {}
