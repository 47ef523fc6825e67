//! The adaptive plan layer between lineage and stage submission.
//!
//! The DAG scheduler used to execute the lineage graph exactly as the user
//! wrote it. This module rewrites the physical execution instead, with
//! three independently gated optimisations (see
//! [`crate::SpangleContextBuilder`]; all default on):
//!
//! 1. **Narrow-chain fusion** — chains of one-parent narrow operators
//!    (map/filter/flat_map/map_partitions) execute as one fused streaming
//!    task: elements flow through the composed operators without an
//!    intermediate `Arc<Vec<T>>` per lineage node. Persisted nodes are
//!    barriers (they must materialise into the block store), and chains
//!    through a multi-consumer node are not *counted* as fused because the
//!    node's work is recomputed per consumer either way. The rewrite is
//!    purely physical: lineage, cache semantics, and recovery are
//!    untouched.
//! 2. **Shuffle elision** — a shuffle whose map-side parent already
//!    carries the target [`PartitionerSig`] is rewritten into a narrow
//!    pass-through at plan (node-lowering) time. This generalises the old
//!    ad-hoc `CoSide::prepare` check to every shuffle site:
//!    `partition_by`, `reduce_by_key`, `group_by_key`, `combine_by_key`
//!    and `cogroup`. Elided nodes carry a marker ([`PlanNodeInfo`]) so
//!    the planner can attribute them to the stage that executes them.
//! 3. **Runtime partition coalescing** — when a stage that reads shuffle
//!    output becomes ready, the per-bucket byte counts the
//!    [`crate::shuffle::ShuffleService`] recorded during the map stages
//!    are used to pack small adjacent reduce buckets into shared executor
//!    tasks (`coalesce_task_groups`). Logical partition identity is
//!    preserved — every bucket still computes and reports as its own
//!    partition, which is what keeps `BlockOrigin`-checked fetch-failure
//!    recovery per-bucket — only the scheduling granularity changes.
//!
//! `analyze_stages` walks the type-erased [`LineageNode`] graph before
//! the scheduler submits anything and produces per-stage plan statistics
//! (`stages_fused`, `shuffles_elided`) that surface in
//! [`crate::metrics::StageReport`] / [`crate::metrics::JobReport`] and the
//! cumulative [`crate::metrics::MetricsSnapshot`].

use crate::rdd::{Dependency, LineageNode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[cfg(doc)]
use crate::partitioner::PartitionerSig;

/// Default byte target one coalesced reduce task aims to cover
/// (`SpangleContextBuilder::target_partition_bytes`).
pub(crate) const DEFAULT_TARGET_PARTITION_BYTES: usize = 1 << 20;

/// Which plan rewrites are active for a context; built by
/// [`crate::SpangleContextBuilder`] and immutable afterwards.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlannerConfig {
    /// Stream narrow chains through composed operators instead of
    /// materialising a `Vec` per lineage node.
    pub(crate) fuse_narrow_chains: bool,
    /// Rewrite provably co-partitioned shuffles into narrow pass-throughs.
    pub(crate) elide_shuffles: bool,
    /// Pack small reduce buckets into shared tasks at stage launch.
    pub(crate) coalesce_partitions: bool,
    /// Byte target per coalesced task group.
    pub(crate) target_partition_bytes: usize,
}

impl Default for PlannerConfig {
    /// All rewrites on. Setting the `SPANGLE_DISABLE_PLANNER` environment
    /// variable (to anything but `0`) flips every default off — the lever
    /// `scripts/check.sh planoff` uses to keep the unoptimised execution
    /// path tested. Explicit builder calls always win over the
    /// environment.
    fn default() -> Self {
        let disabled = std::env::var_os("SPANGLE_DISABLE_PLANNER").is_some_and(|v| v != "0");
        PlannerConfig {
            fuse_narrow_chains: !disabled,
            elide_shuffles: !disabled,
            coalesce_partitions: !disabled,
            target_partition_bytes: DEFAULT_TARGET_PARTITION_BYTES,
        }
    }
}

/// Planner-visible attributes of one lineage node, reported through
/// [`LineageNode::plan_info`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanNodeInfo {
    /// A one-parent narrow operator that streams element-by-element from
    /// its parent under narrow-chain fusion.
    pub fusable: bool,
    /// Wide edges this node's construction rewrote into narrow
    /// pass-throughs because the parent already carried the target
    /// partitioner signature (0, 1, or — for a cogroup — up to 2).
    pub elided_shuffles: usize,
    /// Persist-marked: a fusion barrier, since the node's partitions must
    /// materialise into the block store.
    pub persisted: bool,
}

/// Per-stage plan statistics produced by [`analyze_stages`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StagePlan {
    /// Narrow operator chains (length ≥ 2) collapsed into fused streaming
    /// execution within this stage's task bodies.
    pub(crate) fused_chains: usize,
    /// Shuffle edges rewritten to narrow pass-throughs that this stage
    /// executes locally.
    pub(crate) elided_shuffles: usize,
}

/// Walks the lineage graph once and attributes plan statistics to each
/// stage territory. `territories` holds one root per stage in stage order:
/// the map-side parent of each shuffle dependency, then the result RDD.
/// A node reachable from several territories is attributed to the first
/// (parents come before children, matching stage build order).
pub(crate) fn analyze_stages(
    territories: &[Arc<dyn LineageNode>],
    config: &PlannerConfig,
) -> Vec<StagePlan> {
    // Pass 1: full-graph walk (crossing shuffle edges) to count how many
    // edges consume each node. A node feeding two consumers is a fusion
    // barrier for accounting: its output is recomputed per consumer, so
    // nothing was collapsed.
    let mut consumers: HashMap<usize, usize> = HashMap::new();
    let mut info: HashMap<usize, PlanNodeInfo> = HashMap::new();
    let mut narrow_parents: HashMap<usize, Vec<usize>> = HashMap::new();
    {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<Arc<dyn LineageNode>> = territories.to_vec();
        while let Some(node) = stack.pop() {
            let id = node.rdd_id();
            if !seen.insert(id) {
                continue;
            }
            info.insert(id, node.plan_info());
            for dep in node.dependencies() {
                match dep {
                    Dependency::Narrow(parent) => {
                        *consumers.entry(parent.rdd_id()).or_default() += 1;
                        narrow_parents.entry(id).or_default().push(parent.rdd_id());
                        stack.push(parent);
                    }
                    Dependency::Shuffle(shuffle) => {
                        let parent = shuffle.parent_lineage();
                        *consumers.entry(parent.rdd_id()).or_default() += 1;
                        stack.push(parent);
                    }
                }
            }
        }
    }

    // Pass 2: claim each territory's narrow subgraph (stopping at shuffle
    // edges; shared nodes go to the first claimer) and count its fused
    // edges and elided shuffles. An edge child→parent is fused when both
    // ends are streaming operators, the parent is not persisted, and the
    // parent has exactly one consumer. A maximal run of fused edges is one
    // collapsed chain; in a run, exactly one child is not itself the
    // parent of another fused edge, so counting those tail children counts
    // the chains.
    let mut claimed: HashSet<usize> = HashSet::new();
    territories
        .iter()
        .map(|root| {
            let mut territory: Vec<usize> = Vec::new();
            let mut stack = vec![root.clone()];
            while let Some(node) = stack.pop() {
                let id = node.rdd_id();
                if !claimed.insert(id) {
                    continue;
                }
                territory.push(id);
                for dep in node.dependencies() {
                    if let Dependency::Narrow(parent) = dep {
                        stack.push(parent);
                    }
                }
            }

            let fused_edge = |child: usize, parent: usize| -> bool {
                config.fuse_narrow_chains
                    && info.get(&child).is_some_and(|i| i.fusable)
                    && info.get(&parent).is_some_and(|i| i.fusable && !i.persisted)
                    && consumers.get(&parent).copied().unwrap_or(0) == 1
            };
            let mut plan = StagePlan::default();
            let mut fused_parents: HashSet<usize> = HashSet::new();
            let mut fused_children: Vec<(usize, usize)> = Vec::new();
            for &id in &territory {
                plan.elided_shuffles += info.get(&id).map_or(0, |i| i.elided_shuffles);
                for &parent in narrow_parents.get(&id).map_or(&[][..], |v| &v[..]) {
                    if fused_edge(id, parent) {
                        fused_parents.insert(parent);
                        fused_children.push((id, parent));
                    }
                }
            }
            plan.fused_chains = fused_children
                .iter()
                .filter(|(child, _)| !fused_parents.contains(child))
                .count();
            plan
        })
        .collect()
}

/// Packs the reduce buckets of a ready stage into contiguous task groups:
/// greedy accumulation up to the byte target, one group minimum per
/// oversized bucket. The effective target never exceeds
/// `total / min_groups` so balanced stages keep at least `min_groups`
/// (normally the executor count) of parallelism. Returns the partitions of
/// each group, in partition order.
pub(crate) fn coalesce_task_groups(
    bucket_bytes: &[usize],
    target_bytes: usize,
    min_groups: usize,
) -> Vec<Vec<usize>> {
    let total: usize = bucket_bytes.iter().sum();
    let target = target_bytes
        .max(1)
        .min(total.div_ceil(min_groups.max(1)).max(1));
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut acc = 0usize;
    for (partition, &bytes) in bucket_bytes.iter().enumerate() {
        if !current.is_empty() && acc.saturating_add(bytes) > target {
            groups.push(std::mem::take(&mut current));
            acc = 0;
        }
        current.push(partition);
        acc = acc.saturating_add(bytes);
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_buckets_coalesce_into_one_group() {
        let groups = coalesce_task_groups(&[10, 10, 10], 1 << 20, 1);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn min_groups_floor_keeps_executor_parallelism() {
        // Four balanced buckets on a four-executor cluster must not merge
        // below four groups even under a huge byte target.
        let groups = coalesce_task_groups(&[100, 100, 100, 100], 1 << 30, 4);
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn oversized_buckets_get_their_own_group() {
        let groups = coalesce_task_groups(&[5, 500, 5, 5], 20, 1);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2, 3]]);
    }

    #[test]
    fn empty_buckets_collapse_fully() {
        let groups = coalesce_task_groups(&[0, 0, 0, 0], 1024, 2);
        assert_eq!(groups, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn grouping_is_contiguous_and_complete() {
        let bytes = [3, 9, 1, 1, 1, 40, 2];
        let groups = coalesce_task_groups(&bytes, 10, 1);
        let flat: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(flat, (0..bytes.len()).collect::<Vec<_>>());
        for g in &groups {
            assert!(!g.is_empty());
        }
    }
}
