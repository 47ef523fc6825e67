//! Pair-RDD operations: shuffles, joins and co-grouping.
//!
//! These are the wide operations that cut the lineage graph into stages.
//! The one deliberate deviation from vanilla Spark is first-class support
//! for *co-partitioned narrow joins*: when both sides of a
//! [`PairRdd::cogroup`] already carry the target partitioner's signature,
//! the shuffle is elided and the join runs inside one stage — exactly the
//! "local join" Spangle's matrix multiplication relies on (paper §VI-A).

use super::{Dependency, LineageNode, PassThroughRdd, Rdd, RddBase, RddNode};
use crate::executor::{cancellation_point, CancelGauge};
use crate::memsize::MemSize;
use crate::partitioner::{HashPartitioner, Partitioner, PartitionerSig};
use crate::plan::PlanNodeInfo;
use crate::scheduler::TaskContext;
use crate::shuffle::BlockId;
use crate::{Data, Key};
use std::collections::HashMap;
use std::sync::Arc;

/// Type-erased view of a shuffle dependency, used by the DAG scheduler to
/// build and run map stages without knowing key/value types.
pub trait ShuffleDepDyn: Send + Sync {
    /// Identity of the shuffle.
    fn shuffle_id(&self) -> usize;
    /// Number of map-side partitions.
    fn num_map_partitions(&self) -> usize;
    /// RDD id of the map-side parent (failure-injection site of the map
    /// tasks).
    fn parent_rdd_id(&self) -> usize;
    /// Type-erased lineage of the map-side parent.
    fn parent_lineage(&self) -> Arc<dyn LineageNode>;
    /// Runs one map task: computes parent partition `map_id`, routes its
    /// records into per-reduce buckets and writes them to the shuffle
    /// service.
    fn run_map_task(&self, map_id: usize, tc: &TaskContext);
}

/// A shuffle edge from a pair dataset to its re-partitioned child.
///
/// `route` encapsulates both the partitioner and the optional map-side
/// combine: given one partition's records it produces the per-reduce-bucket
/// outputs of type `(K, C)`.
pub struct ShuffleDependency<K: Key, V: Data, C: Data> {
    shuffle_id: usize,
    parent: Rdd<(K, V)>,
    num_reduce_partitions: usize,
    route: RouteFn<K, V, C>,
}

/// One map partition's records, delivered as a push stream: the route
/// calls the feed with a per-record sink. Records arrive by value straight
/// off the parent's (possibly fused) stream, so routing needs no input
/// buffer and no clone.
pub type RecordFeed<'a, K, V> = &'a mut dyn FnMut(&mut dyn FnMut((K, V)));

/// Map-side routing: one partition's record stream in, per-reduce-bucket
/// outputs out.
type RouteFn<K, V, C> =
    Arc<dyn for<'a> Fn(RecordFeed<'a, K, V>, usize) -> Vec<Vec<(K, C)>> + Send + Sync>;

impl<K: Key, V: Data> ShuffleDependency<K, V, V> {
    /// A plain shuffle: records are routed by `partitioner`, duplicates
    /// preserved, no combining.
    pub fn plain(parent: Rdd<(K, V)>, partitioner: Arc<dyn Partitioner<K>>) -> Arc<Self> {
        let shuffle_id = parent.context().new_shuffle_id();
        let num_reduce = partitioner.num_partitions();
        Arc::new(ShuffleDependency {
            shuffle_id,
            parent,
            num_reduce_partitions: num_reduce,
            route: Arc::new(move |feed: RecordFeed<K, V>, n| {
                let mut buckets: Vec<Vec<(K, V)>> = vec![Vec::new(); n];
                feed(&mut |(k, v)| {
                    buckets[partitioner.partition(&k)].push((k, v));
                });
                buckets
            }),
        })
    }
}

impl<K: Key, V: Data, C: Data> ShuffleDependency<K, V, C> {
    /// A combining shuffle: records are pre-aggregated per key on the map
    /// side (Spark's map-side combine), which is what keeps `reduce_by_key`
    /// network volume proportional to distinct keys rather than records.
    pub fn combining(
        parent: Rdd<(K, V)>,
        partitioner: Arc<dyn Partitioner<K>>,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
    ) -> Arc<Self> {
        let shuffle_id = parent.context().new_shuffle_id();
        let num_reduce = partitioner.num_partitions();
        Arc::new(ShuffleDependency {
            shuffle_id,
            parent,
            num_reduce_partitions: num_reduce,
            route: Arc::new(move |feed: RecordFeed<K, V>, n| {
                let mut buckets: Vec<HashMap<K, C>> = vec![HashMap::new(); n];
                feed(&mut |(k, v)| {
                    let bucket = &mut buckets[partitioner.partition(&k)];
                    match bucket.remove(&k) {
                        Some(c) => {
                            bucket.insert(k, merge_value(c, v));
                        }
                        None => {
                            bucket.insert(k, create(v));
                        }
                    }
                });
                buckets
                    .into_iter()
                    .map(|m| m.into_iter().collect())
                    .collect()
            }),
        })
    }

    fn context(&self) -> &crate::SpangleContext {
        self.parent.context()
    }
}

impl<K: Key, V: Data, C: Data> ShuffleDepDyn for ShuffleDependency<K, V, C> {
    fn shuffle_id(&self) -> usize {
        self.shuffle_id
    }

    fn num_map_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn parent_rdd_id(&self) -> usize {
        self.parent.id()
    }

    fn parent_lineage(&self) -> Arc<dyn LineageNode> {
        self.parent.lineage()
    }

    fn run_map_task(&self, map_id: usize, tc: &TaskContext) {
        let ctx = self.context().clone();
        let mut gauge = CancelGauge::new();
        let mut feed = |sink: &mut dyn FnMut((K, V))| {
            self.parent.stream(map_id, tc, &mut |record| {
                gauge.tick();
                sink(record);
            })
        };
        let buckets = (self.route)(&mut feed, self.num_reduce_partitions);
        cancellation_point();
        // All buckets land in one atomic commit (first-write-wins), so two
        // racing attempts of the same map task — original vs speculative
        // duplicate — can never interleave their output. An all-empty
        // commit still registers the map: the registry is how a
        // reduce-side fetch tells "empty bucket" from "output lost with
        // its executor".
        let deposits: Vec<_> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(reduce_id, bucket)| {
                let bytes = bucket.iter().map(MemSize::mem_size).sum();
                (reduce_id, bucket, bytes)
            })
            .collect();
        ctx.inner.shuffle.commit_map_output(
            &ctx,
            self.shuffle_id,
            map_id,
            deposits,
            tc.origin(),
            tc.claim,
        );
    }
}

impl<K: Key, V: Data, C: Data> Drop for ShuffleDependency<K, V, C> {
    fn drop(&mut self) {
        // Free the shuffle outputs when the last reader disappears so that
        // iterative jobs (20 PageRank rounds, hundreds of SGD steps) do not
        // accumulate dead blocks.
        let ctx = self.context();
        ctx.inner.shuffle.remove_shuffle(ctx, self.shuffle_id);
    }
}

/// Where a shuffled dataset's records come from: the shuffle service
/// (wide), or — when the planner proved the parent already follows the
/// target partitioner — straight from the co-partitioned parent partition
/// (the elided-shuffle rewrite: no shuffle id, no blocks, no map stage).
enum ShuffleInput<K: Key, V: Data, C: Data> {
    Wide(Arc<ShuffleDependency<K, V, C>>),
    Elided {
        parent: Rdd<(K, V)>,
        create: Arc<dyn Fn(V) -> C + Send + Sync>,
        merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    },
}

/// Reduce side of a shuffle. With `merge` set, equal keys are merged
/// (reduce/combine semantics); without it all routed pairs are concatenated
/// (`partition_by` semantics). Element order within a partition is
/// unspecified when merging.
pub struct ShuffledRdd<K: Key, V: Data, C: Data> {
    base: RddBase,
    input: ShuffleInput<K, V, C>,
    merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    sig: PartitionerSig,
}

impl<K: Key, V: Data, C: Data> ShuffledRdd<K, V, C> {
    pub(crate) fn create(
        dep: Arc<ShuffleDependency<K, V, C>>,
        sig: PartitionerSig,
        merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    ) -> Rdd<(K, C)> {
        let base = RddBase::new(dep.parent.context());
        Rdd::from_node(Arc::new(ShuffledRdd {
            base,
            input: ShuffleInput::Wide(dep),
            merge,
            sig,
        }))
    }

    /// The narrow form of a combining shuffle whose parent is already
    /// partitioned by `sig`: every record of reduce partition `i` is
    /// already in parent partition `i`, so the per-key combine runs
    /// locally and nothing touches the shuffle service.
    pub(crate) fn create_elided(
        parent: Rdd<(K, V)>,
        sig: PartitionerSig,
        create: Arc<dyn Fn(V) -> C + Send + Sync>,
        merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    ) -> Rdd<(K, C)> {
        debug_assert_eq!(parent.partitioner_sig(), Some(sig));
        let base = RddBase::new(parent.context());
        Rdd::from_node(Arc::new(ShuffledRdd {
            base,
            input: ShuffleInput::Elided {
                parent,
                create,
                merge_value,
            },
            merge: None,
            sig,
        }))
    }
}

impl<K: Key, V: Data, C: Data> RddNode<(K, C)> for ShuffledRdd<K, V, C> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.sig.num_partitions
    }

    fn dependencies(&self) -> Vec<Dependency> {
        match &self.input {
            ShuffleInput::Wide(dep) => vec![Dependency::Shuffle(dep.clone())],
            ShuffleInput::Elided { parent, .. } => vec![Dependency::Narrow(parent.lineage())],
        }
    }

    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        Some(self.sig)
    }

    fn plan_info(&self) -> PlanNodeInfo {
        PlanNodeInfo {
            fusable: false,
            elided_shuffles: match self.input {
                ShuffleInput::Wide(_) => 0,
                ShuffleInput::Elided { .. } => 1,
            },
            persisted: false,
        }
    }

    fn compute(&self, split: usize, tc: &TaskContext) -> Vec<(K, C)> {
        let dep = match &self.input {
            ShuffleInput::Wide(dep) => dep,
            ShuffleInput::Elided {
                parent,
                create,
                merge_value,
            } => {
                // Per-key combine over the already co-located partition —
                // the map-side and reduce-side combines of the wide path
                // collapse into one local pass.
                let mut merged: HashMap<K, C> = HashMap::new();
                parent.stream(split, tc, &mut |(k, v)| match merged.remove(&k) {
                    Some(c) => {
                        merged.insert(k, merge_value(c, v));
                    }
                    None => {
                        merged.insert(k, create(v));
                    }
                });
                return merged.into_iter().collect();
            }
        };
        let ctx = dep.context().clone();
        // Zero-copy reads: `fetch_block` hands back the map side's block by
        // `Arc`; records are cloned one at a time into the output (or the
        // merge table) — the whole-vector deep copy per fetched block is
        // gone.
        match &self.merge {
            None => {
                let mut out: Vec<(K, C)> = Vec::new();
                for map_id in 0..dep.num_map_partitions() {
                    cancellation_point();
                    let block = ctx.inner.blocks.fetch_shuffle::<(K, C)>(
                        &ctx,
                        BlockId {
                            shuffle_id: dep.shuffle_id,
                            map_id,
                            reduce_id: split,
                        },
                    );
                    out.extend(block.iter().cloned());
                }
                out
            }
            Some(merge) => {
                let mut merged: HashMap<K, C> = HashMap::new();
                for map_id in 0..dep.num_map_partitions() {
                    cancellation_point();
                    let block = ctx.inner.blocks.fetch_shuffle::<(K, C)>(
                        &ctx,
                        BlockId {
                            shuffle_id: dep.shuffle_id,
                            map_id,
                            reduce_id: split,
                        },
                    );
                    for (k, c) in block.iter() {
                        match merged.remove(k) {
                            Some(existing) => {
                                merged.insert(k.clone(), merge(existing, c.clone()));
                            }
                            None => {
                                merged.insert(k.clone(), c.clone());
                            }
                        }
                    }
                }
                merged.into_iter().collect()
            }
        }
    }

    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut((K, C))) {
        // The concatenating wide path streams each fetched block straight
        // into the sink — no per-partition output vector at all when this
        // node heads a fused chain. Merging and elided paths need their
        // hash table anyway; they drain the materialising path.
        if let (ShuffleInput::Wide(dep), None) = (&self.input, &self.merge) {
            let ctx = dep.context().clone();
            for map_id in 0..dep.num_map_partitions() {
                cancellation_point();
                let block = ctx.inner.blocks.fetch_shuffle::<(K, C)>(
                    &ctx,
                    BlockId {
                        shuffle_id: dep.shuffle_id,
                        map_id,
                        reduce_id: split,
                    },
                );
                for pair in block.iter() {
                    sink(pair.clone());
                }
            }
            return;
        }
        for t in self.compute(split, tc) {
            sink(t);
        }
    }
}

/// One input of a co-group: either already co-partitioned (narrow, local)
/// or behind a shuffle.
enum CoSide<K: Key, V: Data> {
    Local(Rdd<(K, V)>),
    Shuffled(Arc<ShuffleDependency<K, V, V>>),
}

impl<K: Key, V: Data> CoSide<K, V> {
    /// Chooses this side's path. The narrow (local) rewrite fires when the
    /// side already carries the target partitioner's signature *and* the
    /// planner's shuffle-elision rewrite is enabled; with it disabled
    /// every side shuffles, which is the unoptimised A/B baseline.
    fn prepare(rdd: &Rdd<(K, V)>, partitioner: &Arc<dyn Partitioner<K>>) -> Self {
        if rdd.context().planner().elide_shuffles
            && rdd.partitioner_sig() == Some(partitioner.sig())
        {
            CoSide::Local(rdd.clone())
        } else {
            CoSide::Shuffled(ShuffleDependency::plain(rdd.clone(), partitioner.clone()))
        }
    }

    fn dependency(&self) -> Dependency {
        match self {
            CoSide::Local(rdd) => Dependency::Narrow(rdd.lineage()),
            CoSide::Shuffled(dep) => Dependency::Shuffle(dep.clone()),
        }
    }

    fn gather_each(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut((K, V))) {
        match self {
            CoSide::Local(rdd) => rdd.stream(split, tc, sink),
            CoSide::Shuffled(dep) => {
                let ctx = dep.context().clone();
                for map_id in 0..dep.num_map_partitions() {
                    cancellation_point();
                    let block = ctx.inner.blocks.fetch_shuffle::<(K, V)>(
                        &ctx,
                        BlockId {
                            shuffle_id: dep.shuffle_id,
                            map_id,
                            reduce_id: split,
                        },
                    );
                    // Clone out of the shared block per record; the block
                    // itself is never copied.
                    for pair in block.iter() {
                        sink(pair.clone());
                    }
                }
            }
        }
    }
}

/// Co-grouping of two pair datasets on a shared partitioner. Each side
/// independently chooses the narrow (local) or shuffled path.
pub struct CoGroupedRdd<K: Key, V: Data, W: Data> {
    base: RddBase,
    left: CoSide<K, V>,
    right: CoSide<K, W>,
    sig: PartitionerSig,
}

/// Result shape of [`PairRdd::cogroup`]: per key, both sides' values.
pub type CoGrouped<K, V, W> = Rdd<(K, (Vec<V>, Vec<W>))>;

impl<K: Key, V: Data, W: Data> CoGroupedRdd<K, V, W> {
    pub(crate) fn create(
        left: &Rdd<(K, V)>,
        right: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> CoGrouped<K, V, W> {
        let base = RddBase::new(left.context());
        Rdd::from_node(Arc::new(CoGroupedRdd {
            base,
            left: CoSide::prepare(left, &partitioner),
            right: CoSide::prepare(right, &partitioner),
            sig: partitioner.sig(),
        }))
    }
}

impl<K: Key, V: Data, W: Data> RddNode<(K, (Vec<V>, Vec<W>))> for CoGroupedRdd<K, V, W> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.sig.num_partitions
    }

    fn dependencies(&self) -> Vec<Dependency> {
        vec![self.left.dependency(), self.right.dependency()]
    }

    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        Some(self.sig)
    }

    fn plan_info(&self) -> PlanNodeInfo {
        let local_sides = [
            matches!(self.left, CoSide::Local(_)),
            matches!(self.right, CoSide::Local(_)),
        ]
        .iter()
        .filter(|&&local| local)
        .count();
        PlanNodeInfo {
            fusable: false,
            elided_shuffles: local_sides,
            persisted: false,
        }
    }

    fn compute(&self, split: usize, tc: &TaskContext) -> Vec<(K, (Vec<V>, Vec<W>))> {
        let mut groups: HashMap<K, (Vec<V>, Vec<W>)> = HashMap::new();
        self.left.gather_each(split, tc, &mut |(k, v)| {
            groups.entry(k).or_default().0.push(v);
        });
        self.right.gather_each(split, tc, &mut |(k, w)| {
            groups.entry(k).or_default().1.push(w);
        });
        groups.into_iter().collect()
    }
}

/// Key-value operations on `Rdd<(K, V)>`.
pub trait PairRdd<K: Key, V: Data> {
    /// Re-partitions by key, preserving duplicates.
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)>;

    /// Merges all values of each key with `f`, combining map-side first.
    fn reduce_by_key(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)>;

    /// General combine: per-key accumulator of type `C`.
    fn combine_by_key<C: Data>(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
    ) -> Rdd<(K, C)>;

    /// Groups all values of each key.
    fn group_by_key(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, Vec<V>)>;

    /// Groups both datasets' values per key. Sides already partitioned by
    /// an equal partitioner are read locally without a shuffle.
    fn cogroup<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> CoGrouped<K, V, W>;

    /// Inner join: the cross product of both sides' values per key.
    fn join<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<(K, (V, W))>;

    /// Transforms values, keeping keys and partitioning.
    fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> Rdd<(K, U)>;

    /// Convenience `reduce_by_key` with a hash partitioner sized like the
    /// parent.
    fn reduce_by_key_hash(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)>;

    /// Collects into a `HashMap` (later duplicates of a key win).
    fn collect_as_map(&self) -> Result<HashMap<K, V>, crate::JobError>;
}

impl<K: Key, V: Data> PairRdd<K, V> for Rdd<(K, V)> {
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)> {
        let sig = partitioner.sig();
        if self.context().planner().elide_shuffles && self.partitioner_sig() == Some(sig) {
            // Already laid out exactly this way: the shuffle is elided to
            // a zero-copy pass-through (marked so the planner counts it).
            return PassThroughRdd::create(self.clone(), sig, 1);
        }
        let dep = ShuffleDependency::plain(self.clone(), partitioner);
        ShuffledRdd::create(dep, sig, None)
    }

    fn reduce_by_key(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)> {
        let merge = f.clone();
        self.combine_by_key(partitioner, |v| v, f, merge)
    }

    fn combine_by_key<C: Data>(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
    ) -> Rdd<(K, C)> {
        let sig = partitioner.sig();
        if self.context().planner().elide_shuffles && self.partitioner_sig() == Some(sig) {
            // Every record of each target partition is already local:
            // rewrite the wide edge to a narrow per-partition combine.
            // `merge_combiners` is unreachable on this path — at most one
            // combiner per key ever exists.
            return ShuffledRdd::create_elided(
                self.clone(),
                sig,
                Arc::new(create),
                Arc::new(merge_value),
            );
        }
        let dep = ShuffleDependency::combining(self.clone(), partitioner, create, merge_value);
        ShuffledRdd::create(dep, sig, Some(Arc::new(merge_combiners)))
    }

    fn group_by_key(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, Vec<V>)> {
        self.combine_by_key(
            partitioner,
            |v| vec![v],
            |mut c, v| {
                c.push(v);
                c
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }

    fn cogroup<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> CoGrouped<K, V, W> {
        CoGroupedRdd::create(self, other, partitioner)
    }

    fn join<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<(K, (V, W))> {
        self.cogroup(other, partitioner).flat_map(|(k, (vs, ws))| {
            let mut out = Vec::with_capacity(vs.len() * ws.len());
            for v in &vs {
                for w in &ws {
                    out.push((k.clone(), (v.clone(), w.clone())));
                }
            }
            out
        })
    }

    fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> Rdd<(K, U)> {
        // map_values cannot move keys, so the partitioning survives; model
        // it with map_partitions to keep the signature.
        let sig = self.partitioner_sig();
        let mapped = self.map_partitions(move |data| {
            data.iter()
                .map(|(k, v)| (k.clone(), f(v.clone())))
                .collect()
        });
        match sig {
            Some(sig) => PassThroughRdd::create(mapped, sig, 0),
            None => mapped,
        }
    }

    fn reduce_by_key_hash(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)> {
        let n = self.num_partitions();
        self.reduce_by_key(Arc::new(HashPartitioner::new(n)), f)
    }

    fn collect_as_map(&self) -> Result<HashMap<K, V>, crate::JobError> {
        Ok(self.collect()?.into_iter().collect())
    }
}
