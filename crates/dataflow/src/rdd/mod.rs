//! Typed, lazily evaluated lineage nodes.
//!
//! An [`Rdd<T>`] is a cheap handle on a node of the lineage graph. Calling
//! a transformation builds a new node that remembers its parents; nothing
//! runs until an action ([`Rdd::collect`], [`Rdd::count`], …) hands the
//! graph to the [`crate::scheduler`].

pub mod pair;
pub mod sources;
pub mod transforms;

use crate::context::SpangleContext;
use crate::metrics::MetricField;
use crate::partitioner::PartitionerSig;
use crate::plan::PlanNodeInfo;
use crate::scheduler::{self, JobError, TaskContext};
use crate::store::{BlockKey, Lookup};
use crate::{Data, MemSize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// State shared by every RDD node: identity, cluster handle, persistence
/// flag.
pub struct RddBase {
    id: usize,
    ctx: SpangleContext,
    persist: AtomicBool,
}

impl RddBase {
    /// Allocates a fresh node identity in `ctx`.
    pub fn new(ctx: &SpangleContext) -> Self {
        RddBase {
            id: ctx.new_rdd_id(),
            ctx: ctx.clone(),
            persist: AtomicBool::new(false),
        }
    }
}

/// A node of the lineage graph producing elements of type `T`.
///
/// Implementations describe *how to compute one partition*; they never run
/// eagerly. `compute` may be invoked multiple times for the same split
/// (task retries, cache eviction) and must be deterministic for
/// fault-tolerant recomputation to be sound.
pub trait RddNode<T: Data>: Send + Sync + 'static {
    /// Shared identity/persistence state.
    fn base(&self) -> &RddBase;
    /// Number of partitions of this dataset.
    fn num_partitions(&self) -> usize;
    /// Lineage dependencies (narrow parents and shuffle dependencies).
    fn dependencies(&self) -> Vec<Dependency>;
    /// Computes the elements of partition `split`.
    fn compute(&self, split: usize, tc: &TaskContext) -> Vec<T>;
    /// Streams the elements of partition `split` into `sink`, one at a
    /// time. Fusable narrow operators override this to pull from their
    /// parent's stream, so a whole chain composes without materialising a
    /// `Vec` per node; the default drains [`RddNode::compute`], which is
    /// the materialising fallback every node must keep correct.
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        for t in self.compute(split, tc) {
            sink(t);
        }
    }
    /// Computes partition `split` as a shareable block. Pass-through
    /// nodes override this to hand back their parent's block without
    /// copying; the default materialises — streaming the fused chain when
    /// narrow-chain fusion is on, calling plain [`RddNode::compute`] when
    /// it is off.
    fn compute_arc(&self, split: usize, tc: &TaskContext) -> Arc<Vec<T>> {
        if self.base().ctx.planner().fuse_narrow_chains {
            let mut out = Vec::new();
            self.compute_into(split, tc, &mut |t| out.push(t));
            Arc::new(out)
        } else {
            Arc::new(self.compute(split, tc))
        }
    }
    /// How this dataset is partitioned by key, when known. Used to detect
    /// co-partitioning and elide shuffles (the paper's local join).
    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        None
    }
    /// Planner-visible attributes (fusability, elided shuffle edges).
    /// Nodes that are not narrow streaming operators keep the default.
    fn plan_info(&self) -> PlanNodeInfo {
        PlanNodeInfo::default()
    }
}

/// A type-erased view of a lineage node, enough for the DAG scheduler to
/// walk the graph without knowing element types.
pub trait LineageNode: Send + Sync {
    /// The node's RDD id.
    fn rdd_id(&self) -> usize;
    /// The node's dependencies.
    fn dependencies(&self) -> Vec<Dependency>;
    /// Planner-visible attributes of the node (fusability, elided shuffle
    /// edges, persistence), consumed by the planner's stage analysis
    /// (`plan::analyze_stages`).
    fn plan_info(&self) -> PlanNodeInfo {
        PlanNodeInfo::default()
    }
}

/// One lineage edge.
pub enum Dependency {
    /// Child partitions depend on a bounded set of parent partitions
    /// computed in the same stage (map, filter, union, zip).
    Narrow(Arc<dyn LineageNode>),
    /// Child partitions depend on *all* parent partitions through the
    /// shuffle service; this is where the DAG scheduler cuts stages.
    Shuffle(Arc<dyn pair::ShuffleDepDyn>),
}

struct ErasedRdd<T: Data>(Rdd<T>);

impl<T: Data> LineageNode for ErasedRdd<T> {
    fn rdd_id(&self) -> usize {
        self.0.id()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        self.0.node.dependencies()
    }
    fn plan_info(&self) -> PlanNodeInfo {
        let mut info = self.0.node.plan_info();
        info.persisted = self.0.node.base().persist.load(Ordering::Relaxed);
        info
    }
}

/// A handle on a lineage node. Clones share the node.
pub struct Rdd<T: Data> {
    pub(crate) node: Arc<dyn RddNode<T>>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            node: self.node.clone(),
        }
    }
}

impl<T: Data> Rdd<T> {
    /// Wraps a node into a handle.
    pub fn from_node(node: Arc<dyn RddNode<T>>) -> Self {
        Rdd { node }
    }

    /// Unique id of this dataset.
    pub fn id(&self) -> usize {
        self.node.base().id
    }

    /// The cluster this dataset lives on.
    pub fn context(&self) -> &SpangleContext {
        &self.node.base().ctx
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    /// Key-partitioning signature, when known.
    pub fn partitioner_sig(&self) -> Option<PartitionerSig> {
        self.node.partitioner_sig()
    }

    /// Marks this dataset for caching: the first action materialises each
    /// partition into the block store, later actions reuse it.
    pub fn persist(&self) -> &Self {
        self.node.base().persist.store(true, Ordering::Relaxed);
        self
    }

    /// Drops the cached partitions (the persistence mark stays, so the next
    /// action re-caches).
    pub fn unpersist(&self) {
        let id = self.id();
        let [_, (dropped, _)] = self.context().inner.blocks.discard(
            self.context(),
            |key, _| matches!(key, BlockKey::Cached { rdd_id, .. } if *rdd_id == id),
        );
        self.context()
            .metrics()
            .add(MetricField::PartitionsEvicted, dropped as u64);
    }

    /// Type-erased lineage view for the scheduler.
    pub fn lineage(&self) -> Arc<dyn LineageNode> {
        Arc::new(ErasedRdd(self.clone()))
    }

    /// Returns partition `split`, from cache when persisted and present,
    /// recomputing from lineage otherwise.
    pub(crate) fn iterator(&self, split: usize, tc: &TaskContext) -> Arc<Vec<T>> {
        let base = self.node.base();
        if base.persist.load(Ordering::Relaxed) {
            let key = BlockKey::Cached {
                rdd_id: base.id,
                partition: split,
            };
            // A torn spill file reads as a miss: lineage recomputes it.
            if let Lookup::Hit(block, _) = base.ctx.inner.blocks.get::<T>(&base.ctx, key) {
                base.ctx.metrics().add(MetricField::CacheHits, 1);
                return block;
            }
            base.ctx.metrics().add(MetricField::CacheMisses, 1);
            let data = self.node.compute_arc(split, tc);
            let bytes = data.iter().map(MemSize::mem_size).sum();
            // Attribute the block to the computing executor incarnation —
            // and drop it on the floor if that incarnation was killed
            // mid-compute (a replacement attempt will re-cache it).
            if base.ctx.inner.pool.origin_is_live(tc.origin()) {
                base.ctx.inner.blocks.put(
                    &base.ctx,
                    [(key, Arc::clone(&data), bytes)],
                    tc.origin(),
                );
            }
            return data;
        }
        self.node.compute_arc(split, tc)
    }

    /// Streams partition `split` element-by-element into `sink`.
    ///
    /// Persisted datasets go through [`Rdd::iterator`] first (the cache is
    /// a fusion barrier: the materialised block must exist) and clone out
    /// of the shared block. Otherwise, with narrow-chain fusion on, the
    /// node's streaming path runs — a chain of fusable operators composes
    /// here without intermediate `Vec`s; with fusion off the node
    /// materialises via plain `compute` and the result is drained by
    /// value, preserving the unoptimised execution shape.
    pub(crate) fn stream(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        let base = self.node.base();
        if base.persist.load(Ordering::Relaxed) {
            for t in self.iterator(split, tc).iter() {
                sink(t.clone());
            }
        } else if base.ctx.planner().fuse_narrow_chains {
            self.node.compute_into(split, tc, sink);
        } else {
            for t in self.node.compute(split, tc) {
                sink(t);
            }
        }
    }

    // ---- Actions -------------------------------------------------------

    /// Materialises the whole dataset on the driver, partitions in order.
    pub fn collect(&self) -> Result<Vec<T>, JobError> {
        let parts = scheduler::run_job(self, |_, data: Arc<Vec<T>>| (*data).clone())?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Number of elements.
    pub fn count(&self) -> Result<usize, JobError> {
        let parts = scheduler::run_job(self, |_, data: Arc<Vec<T>>| data.len())?;
        Ok(parts.into_iter().sum())
    }

    /// Reduces all elements with `f`; `None` for an empty dataset.
    pub fn reduce(
        &self,
        f: impl Fn(T, T) -> T + Send + Sync + 'static,
    ) -> Result<Option<T>, JobError> {
        let f = Arc::new(f);
        let g = Arc::clone(&f);
        let parts = scheduler::run_job(self, move |_, data: Arc<Vec<T>>| {
            data.iter().cloned().reduce(|a, b| g(a, b))
        })?;
        Ok(parts.into_iter().flatten().reduce(|a, b| f(a, b)))
    }

    /// Folds every partition from `zero` with `f`, then combines the
    /// per-partition results with `combine` on the driver.
    pub fn aggregate<A>(
        &self,
        zero: A,
        f: impl Fn(A, &T) -> A + Send + Sync + 'static,
        combine: impl Fn(A, A) -> A,
    ) -> Result<A, JobError>
    where
        A: Clone + Send + Sync + 'static,
    {
        let zero2 = zero.clone();
        let parts = scheduler::run_job(self, move |_, data: Arc<Vec<T>>| {
            data.iter().fold(zero2.clone(), &f)
        })?;
        Ok(parts.into_iter().fold(zero, combine))
    }

    /// Runs `f` over each partition's elements, returning one value per
    /// partition (in partition order). The workhorse action for the layers
    /// above.
    pub fn run_partitions<R: Send + 'static>(
        &self,
        f: impl Fn(usize, &[T]) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>, JobError> {
        scheduler::run_job(self, move |split, data: Arc<Vec<T>>| f(split, &data))
    }

    // ---- Transformations (narrow) --------------------------------------

    /// Element-wise transformation.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        transforms::MapRdd::create(self.clone(), f)
    }

    /// Keeps elements satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        transforms::FilterRdd::create(self.clone(), pred)
    }

    /// One-to-many transformation.
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        transforms::FlatMapRdd::create(self.clone(), f)
    }

    /// Whole-partition transformation with access to the partition index.
    pub fn map_partitions_with_index<U: Data>(
        &self,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        transforms::MapPartitionsRdd::create(self.clone(), f)
    }

    /// Whole-partition transformation.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.map_partitions_with_index(move |_, data| f(data))
    }

    /// Concatenation of two datasets (their partitions, in order).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        transforms::UnionRdd::create(self.clone(), other.clone())
    }

    /// Pairs partition `i` of `self` with partition `i` of `other` and
    /// transforms both together — the narrow, shuffle-free join used by the
    /// local-join optimisation. Panics if partition counts differ.
    pub fn zip_partitions<U: Data, O: Data>(
        &self,
        other: &Rdd<U>,
        f: impl Fn(&[T], &[U]) -> Vec<O> + Send + Sync + 'static,
    ) -> Rdd<O> {
        transforms::ZipPartitionsRdd::create(self.clone(), other.clone(), f)
    }

    /// Keys each element with `f`, producing a pair dataset.
    pub fn key_by<K: crate::Key>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Rdd<(K, T)> {
        self.map(move |t| (f(&t), t))
    }

    /// Asserts that this dataset is already laid out according to `sig`.
    ///
    /// Used by sources that *generate* data directly into its final
    /// placement (e.g. ArrayRDD ingest, which computes each chunk on the
    /// partition its ChunkID hashes to). The caller is responsible for the
    /// invariant: every element's key must map to its partition under the
    /// claimed partitioner, otherwise later co-partitioned joins will
    /// silently pair the wrong data.
    pub fn assert_partitioned(&self, sig: PartitionerSig) -> Rdd<T> {
        assert_eq!(
            self.num_partitions(),
            sig.num_partitions,
            "claimed partitioner does not match the partition count"
        );
        PassThroughRdd::create(self.clone(), sig, 0)
    }
}

/// A zero-copy identity node that re-attaches a partitioner signature to
/// its parent: the data is untouched, only the metadata changes. Used by
/// [`Rdd::assert_partitioned`], by `map_values` (whose transformation
/// cannot move keys), and as the narrow stand-in for a shuffle the planner
/// elided (`partition_by` onto the partitioner the data already follows).
/// `iterator` hands back the parent's block by `Arc` — never a deep clone.
pub(crate) struct PassThroughRdd<T: Data> {
    base: RddBase,
    parent: Rdd<T>,
    sig: PartitionerSig,
    /// 1 when this node stands where a shuffle was elided, 0 for plain
    /// signature bookkeeping.
    elided_shuffles: usize,
}

impl<T: Data> PassThroughRdd<T> {
    pub(crate) fn create(parent: Rdd<T>, sig: PartitionerSig, elided_shuffles: usize) -> Rdd<T> {
        Rdd::from_node(Arc::new(PassThroughRdd {
            base: RddBase::new(parent.context()),
            parent,
            sig,
            elided_shuffles,
        }))
    }
}

impl<T: Data> RddNode<T> for PassThroughRdd<T> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.lineage())]
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> Vec<T> {
        (*self.parent.iterator(split, tc)).clone()
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        self.parent.stream(split, tc, sink);
    }
    fn compute_arc(&self, split: usize, tc: &TaskContext) -> Arc<Vec<T>> {
        // Identity: share the parent's block instead of copying it. This
        // holds with the planner off too — sharing is unobservable.
        self.parent.iterator(split, tc)
    }
    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        Some(self.sig)
    }
    fn plan_info(&self) -> PlanNodeInfo {
        PlanNodeInfo {
            fusable: true,
            elided_shuffles: self.elided_shuffles,
            persisted: false,
        }
    }
}
