//! Customised PageRank (paper §VI-B).
//!
//! The transition matrix `A` (column `j` = `1/outdeg(j)` on `j`'s
//! out-neighbours) is decomposed into `A = A' diag(w)`: a 0/1 structure
//! matrix `A'` (entry `(i, j)` = 1 iff edge `j → i`) and the vector
//! `w = 1/outdeg`. Because `A'` is binary it is stored as *bitmask-only
//! adjacency blocks* — one bit per potential edge — and each block takes
//! whichever of the flat or the hierarchical (super-sparse) form is
//! smaller, a property of the input rather than a knob. Each iteration
//! computes
//!
//! ```text
//! p ← α · A'(w ∘ p) + (1 − α)/n
//! ```
//!
//! where `w ∘ p` is a cheap driver-side Hadamard product and `A'(·)` is a
//! broadcast mask-matvec that never moves a block: each partition sums
//! its blocks into one partial segment per block row.

use crate::graph::Graph;
use spangle_bitmask::{Bitmask, HierarchicalBitmask};
use spangle_dataflow::{
    JobError, MemSize, ModPartitioner, PairRdd, Partitioner, PartitionerSig, Rdd, SpangleContext,
};
use spangle_linalg::DenseVector;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routes a block id to the partition that owns its block *row*
/// (`(id % grid) % n`). Laying the adjacency out this way at build time
/// co-locates every block that contributes to one output row segment, so
/// the per-iteration reduce in [`AdjacencyMatrix::matvec`] — keyed by
/// block row — is provably local and the planner elides its shuffle.
struct RowBlockPartitioner {
    grid: u64,
    num_partitions: usize,
}

impl Partitioner<u64> for RowBlockPartitioner {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn partition(&self, key: &u64) -> usize {
        ((key % self.grid) % self.num_partitions as u64) as usize
    }

    fn sig(&self) -> PartitionerSig {
        PartitionerSig {
            kind: "row-block",
            num_partitions: self.num_partitions,
            param: self.grid,
        }
    }
}

/// One adjacency block: pure structure, no payload.
#[derive(Clone, Debug)]
pub enum AdjBlock {
    /// Flat bitmask: one bit per cell (denser blocks).
    Flat(Bitmask),
    /// Two-level mask (super-sparse blocks).
    Hier(HierarchicalBitmask),
}

impl AdjBlock {
    /// Stores a block of `len` cells whose set cells are `offsets`
    /// (ascending, distinct) in whichever form is smaller by `mem_size`;
    /// `super_sparse` forces the hierarchical form. The hierarchical mask
    /// is built from the offsets directly, so a sparse block never
    /// allocates its flat mask.
    fn from_sorted_offsets(len: usize, offsets: &[u32], super_sparse: bool) -> Self {
        let ones = || offsets.iter().map(|&o| o as usize);
        let hier = HierarchicalBitmask::from_sorted_ones(len, ones());
        if super_sparse || hier.mem_size() < flat_mask_bytes(len) {
            AdjBlock::Hier(hier)
        } else {
            AdjBlock::Flat(Bitmask::from_ones(len, ones()))
        }
    }

    /// Iterates set bits (edges) as local offsets.
    fn for_each_edge(&self, mut f: impl FnMut(usize)) {
        match self {
            AdjBlock::Flat(m) => {
                for i in m.iter_ones() {
                    f(i)
                }
            }
            AdjBlock::Hier(m) => {
                for i in m.iter_ones() {
                    f(i)
                }
            }
        }
    }

    /// Number of edges in the block.
    pub fn num_edges(&self) -> usize {
        match self {
            AdjBlock::Flat(m) => m.count_ones(),
            AdjBlock::Hier(m) => m.count_ones(),
        }
    }
}

/// `mem_size` of a flat mask over `len` cells, without allocating one.
fn flat_mask_bytes(len: usize) -> usize {
    std::mem::size_of::<Bitmask>() + len.div_ceil(64) * std::mem::size_of::<u64>()
}

impl MemSize for AdjBlock {
    fn mem_size(&self) -> usize {
        match self {
            AdjBlock::Flat(m) => m.mem_size(),
            AdjBlock::Hier(m) => m.mem_size(),
        }
    }

    fn spillable() -> bool {
        true
    }

    fn spill_encode(&self, out: &mut Vec<u8>) {
        // Each variant travels in its own form: a hierarchical block is
        // never expanded to a flat mask on the way out or back.
        match self {
            AdjBlock::Flat(m) => {
                out.push(0);
                m.write_le(out);
            }
            AdjBlock::Hier(m) => {
                out.push(1);
                m.write_le(out);
            }
        }
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        let (block, used) = match input.u8()? {
            0 => Bitmask::read_le(input.rest()).map(|(m, used)| (AdjBlock::Flat(m), used))?,
            1 => HierarchicalBitmask::read_le(input.rest())
                .map(|(m, used)| (AdjBlock::Hier(m), used))?,
            _ => return None,
        };
        input.skip(used)?;
        Some(block)
    }
}

/// The structure matrix `A'` as bitmask-only blocks: entry `(i, j)` = 1
/// iff there is an edge `j → i` ("rows are destination vertices, columns
/// are source vertices").
///
/// The blocks are persisted while the matrix lives and unpersisted when
/// it is dropped.
pub struct AdjacencyMatrix {
    num_vertices: usize,
    block_size: usize,
    grid: usize,
    rdd: Rdd<(u64, AdjBlock)>,
}

impl AdjacencyMatrix {
    /// Builds the blocks from a graph's edges through one shuffle
    /// (edges → owning block). Each map partition packs its edges as
    /// `(block id << 32) | offset` and sorts them, so it emits one
    /// `(block, offsets)` record per block it touches; the reduce side
    /// appends the runs of one block. Each block is then stored as a flat
    /// or a hierarchical bitmask, whichever is smaller by `mem_size`
    /// (hierarchical wins unless nearly every 64-cell word of the block
    /// holds an edge);
    /// `super_sparse` forces the hierarchical form (the setting used for
    /// LiveJournal in §VII-C).
    ///
    /// # Panics
    ///
    /// When block ids or in-block offsets do not fit in 32 bits
    /// (`block_size² > 2³²` or more than 2³² blocks).
    pub fn from_graph(
        graph: &Graph,
        block_size: usize,
        super_sparse: bool,
    ) -> Result<Self, JobError> {
        let n = graph.num_vertices();
        let grid = n.div_ceil(block_size);
        let num_partitions = graph.edges().num_partitions().max(1);
        let bs = block_size as u64;
        let grid64 = grid as u64;
        let fits_u32 = |side: u64| side.checked_mul(side).is_some_and(|cells| cells <= 1 << 32);
        assert!(
            fits_u32(bs) && fits_u32(grid64),
            "block ids and in-block offsets must fit in 32 bits"
        );

        // Rows (destinations) vary fastest inside a block, matching the
        // ArrayRDD mapper convention; the offset is taken against the
        // block's clipped row extent.
        let n64 = n as u64;
        let runs = graph.edges().map_partitions(move |edges| {
            let mut packed: Vec<u64> = edges
                .iter()
                .map(|&(src, dst)| {
                    let (gr, gc) = (dst / bs, src / bs);
                    let rows = bs.min(n64 - gr * bs);
                    let offset = (dst % bs) + (src % bs) * rows;
                    ((gr + gc * grid64) << 32) | offset
                })
                .collect();
            packed.sort_unstable();
            let mut out: Vec<(u64, Vec<u32>)> = Vec::new();
            for p in packed {
                let (block_id, offset) = (p >> 32, p as u32);
                match out.last_mut() {
                    Some((id, offsets)) if *id == block_id => offsets.push(offset),
                    _ => out.push((block_id, vec![offset])),
                }
            }
            out
        });
        // Place every block on the partition of its block row, so each
        // iteration's partial-segment reduce (`matvec`) is shuffle-free.
        let partitioner = Arc::new(RowBlockPartitioner {
            grid: grid64,
            num_partitions,
        });
        let sig = partitioner.sig();
        let grouped = runs.reduce_by_key(partitioner, |mut a, mut b| {
            a.append(&mut b);
            a
        });
        let rdd = grouped.map(move |(block_id, mut offsets)| {
            // Runs from several map partitions arrive concatenated, and
            // duplicate edges collapse here.
            offsets.sort_unstable();
            offsets.dedup();
            let gr = (block_id % grid64) as usize;
            let gc = (block_id / grid64) as usize;
            let rows = block_size.min(n - gr * block_size);
            let cols = block_size.min(n - gc * block_size);
            let block = AdjBlock::from_sorted_offsets(rows * cols, &offsets, super_sparse);
            (block_id, block)
        });
        let rdd = rdd.assert_partitioned(sig);
        rdd.persist();
        Ok(AdjacencyMatrix {
            num_vertices: n,
            block_size,
            grid,
            rdd,
        })
    }

    /// Number of vertices (`A'` is `n × n`).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The block RDD.
    pub fn rdd(&self) -> &Rdd<(u64, AdjBlock)> {
        &self.rdd
    }

    /// Total bytes of mask storage — the memory the bitmask representation
    /// saves over an 8-bytes-per-edge payload matrix.
    pub fn mem_bytes(&self) -> Result<usize, JobError> {
        self.rdd
            .aggregate(0usize, |acc, (_, b)| acc + b.mem_size(), |a, b| a + b)
    }

    /// `y = A'·q` with a broadcast vector: per block, every set bit
    /// `(i, j)` contributes `q[j]` to `y[i]`. Each partition sums its
    /// blocks into one partial segment per block row; the segments reduce
    /// per block row.
    pub fn matvec(&self, q: &[f64]) -> Result<Vec<f64>, JobError> {
        assert_eq!(q.len(), self.num_vertices, "dimension mismatch in A'q");
        let ctx = self.context();
        let bc = ctx.broadcast(q.to_vec());
        let bs = self.block_size;
        let grid = self.grid as u64;
        let n = self.num_vertices;
        let partials = self.rdd.map_partitions(move |blocks| {
            let q = bc.value();
            let mut segments: HashMap<u64, Vec<f64>> = HashMap::new();
            for (block_id, block) in blocks {
                let gr = block_id % grid;
                let rows = bs.min(n - gr as usize * bs);
                let col_base = (block_id / grid) as usize * bs;
                let acc = segments.entry(gr).or_insert_with(|| vec![0.0; rows]);
                block.for_each_edge(|local| {
                    acc[local % rows] += q[col_base + local / rows];
                });
            }
            segments.into_iter().collect::<Vec<_>>()
        });
        let n_parts = self.rdd.num_partitions();
        // The build-time layout put every block of block row `gr` on
        // partition `gr % n_parts`, so the re-keyed partials already sit
        // exactly where a modulo reduce wants them; assert that invariant
        // and the planner turns the per-iteration shuffle into a narrow
        // pass-through.
        let partials =
            partials.assert_partitioned(Partitioner::<u64>::sig(&ModPartitioner::new(n_parts)));
        let reduced = partials.reduce_by_key(Arc::new(ModPartitioner::new(n_parts)), |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        let mut out = vec![0.0; self.num_vertices];
        for (gr, seg) in reduced.collect()? {
            let base = gr as usize * self.block_size;
            out[base..base + seg.len()].copy_from_slice(&seg);
        }
        Ok(out)
    }

    /// Distinct out-degree of every vertex: the column population counts
    /// of `A'`. Because the bitmask stores each edge once, this is the
    /// degree vector consistent with the structure matrix even when the
    /// input edge list contains duplicates.
    pub fn col_counts(&self) -> Result<Vec<u64>, JobError> {
        Ok(self.col_counts_and_bytes()?.0)
    }

    /// [`AdjacencyMatrix::col_counts`] and [`AdjacencyMatrix::mem_bytes`]
    /// from one pass over the blocks. Each partition sums its blocks into
    /// one count segment per block column.
    fn col_counts_and_bytes(&self) -> Result<(Vec<u64>, usize), JobError> {
        let bs = self.block_size;
        let grid = self.grid as u64;
        let n = self.num_vertices;
        let parts = self.rdd.run_partitions(move |_, blocks| {
            let mut segments: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut bytes = 0usize;
            for (block_id, block) in blocks {
                bytes += block.mem_size();
                let gc = block_id / grid;
                let rows = bs.min(n - (block_id % grid) as usize * bs);
                let cols = bs.min(n - gc as usize * bs);
                let acc = segments.entry(gc).or_insert_with(|| vec![0; cols]);
                block.for_each_edge(|local| {
                    acc[local / rows] += 1;
                });
            }
            (segments, bytes)
        })?;
        let mut out = vec![0u64; self.num_vertices];
        let mut total_bytes = 0;
        for (segs, bytes) in parts {
            total_bytes += bytes;
            for (gc, acc) in segs {
                let base = gc as usize * self.block_size;
                for (o, c) in out[base..base + acc.len()].iter_mut().zip(&acc) {
                    *o += c;
                }
            }
        }
        Ok((out, total_bytes))
    }

    fn context(&self) -> SpangleContext {
        self.rdd.context().clone()
    }
}

impl Drop for AdjacencyMatrix {
    fn drop(&mut self) {
        // The cached blocks die with the matrix on every exit path,
        // early error returns included.
        self.rdd.unpersist();
    }
}

/// Outcome of a PageRank run, including the paper's per-step timing
/// (Fig. 11 reports both end-to-end and per-iteration times).
pub struct PageRankResult {
    /// Final rank vector (sums to ~1 with no dangling mass correction).
    pub ranks: DenseVector,
    /// Wall time of every iteration.
    pub iteration_times: Vec<Duration>,
    /// Wall time of matrix construction (graph → adjacency blocks).
    pub build_time: Duration,
    /// Mask storage of the adjacency blocks in bytes
    /// ([`AdjacencyMatrix::mem_bytes`]): shows which block form the size
    /// rule picked.
    pub adjacency_bytes: usize,
}

/// Runs the customised PageRank of §VI-B on `graph`.
pub fn pagerank(
    graph: &Graph,
    block_size: usize,
    super_sparse: bool,
    alpha: f64,
    iterations: usize,
) -> Result<PageRankResult, JobError> {
    let n = graph.num_vertices();
    let t0 = Instant::now();
    let adj = AdjacencyMatrix::from_graph(graph, block_size, super_sparse)?;
    // Materialise the blocks (they are persisted).
    adj.rdd().count()?;
    // w = 1/outdeg over *distinct* out-edges (the bitmask stores each edge
    // once); 0 for dangling vertices.
    let (degrees, adjacency_bytes) = adj.col_counts_and_bytes()?;
    let w: Vec<f64> = degrees
        .into_iter()
        .map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
        .collect();
    let build_time = t0.elapsed();

    let mut p = vec![1.0 / n as f64; n];
    let mut iteration_times = Vec::with_capacity(iterations);
    let teleport = (1.0 - alpha) / n as f64;
    for _ in 0..iterations {
        let t = Instant::now();
        // q = w ∘ p on the driver (both vectors are |V|-sized).
        let q: Vec<f64> = w.iter().zip(&p).map(|(w, p)| w * p).collect();
        let y = adj.matvec(&q)?;
        for (pi, yi) in p.iter_mut().zip(&y) {
            *pi = alpha * yi + teleport;
        }
        iteration_times.push(t.elapsed());
    }
    Ok(PageRankResult {
        ranks: DenseVector::column(p),
        iteration_times,
        build_time,
        adjacency_bytes,
    })
}

/// Reference single-machine PageRank over an explicit edge list, for
/// correctness checks. Duplicate edges are collapsed, matching the 0/1
/// connectivity-matrix semantics of §VI-B.
pub fn pagerank_reference(
    num_vertices: usize,
    edges: &[(u64, u64)],
    alpha: f64,
    iterations: usize,
) -> Vec<f64> {
    let n = num_vertices;
    let edges: Vec<(u64, u64)> = edges
        .iter()
        .copied()
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    let mut outdeg = vec![0u64; n];
    for &(s, _) in &edges {
        outdeg[s as usize] += 1;
    }
    let mut p = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - alpha) / n as f64; n];
        for &(s, d) in &edges {
            next[d as usize] += alpha * p[s as usize] / outdeg[s as usize] as f64;
        }
        p = next;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(ctx: &SpangleContext) -> Graph {
        // 0 -> {1,2}, 1 -> 3, 2 -> 3, 3 -> 0.
        Graph::from_edges(ctx, 4, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)], 2)
    }

    #[test]
    fn adjacency_blocks_store_every_edge_once() {
        let ctx = SpangleContext::new(2);
        let g = diamond(&ctx);
        let adj = AdjacencyMatrix::from_graph(&g, 2, false).unwrap();
        let total: usize = adj
            .rdd()
            .aggregate(0usize, |acc, (_, b)| acc + b.num_edges(), |a, b| a + b)
            .unwrap();
        assert_eq!(total, 5);
    }

    #[test]
    fn mask_matvec_matches_dense_reference() {
        let ctx = SpangleContext::new(2);
        let edges = vec![(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 0), (3, 1)];
        let g = Graph::from_edges(&ctx, 5, edges.clone(), 2);
        let adj = AdjacencyMatrix::from_graph(&g, 2, false).unwrap();
        let q: Vec<f64> = (0..5).map(|i| (i + 1) as f64).collect();
        let got = adj.matvec(&q).unwrap();
        let mut expected = vec![0.0; 5];
        for (s, d) in edges {
            expected[d as usize] += q[s as usize];
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn pagerank_matches_reference_on_small_graph() {
        let ctx = SpangleContext::new(2);
        let edges = vec![(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 0)];
        let g = Graph::from_edges(&ctx, 4, edges.clone(), 2);
        for super_sparse in [false, true] {
            let result = pagerank(&g, 2, super_sparse, 0.85, 20).unwrap();
            let expected = pagerank_reference(4, &edges, 0.85, 20);
            for (i, (a, b)) in result.ranks.as_slice().iter().zip(&expected).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "vertex {i} (super_sparse={super_sparse}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn pagerank_matches_reference_on_power_law_graph() {
        let ctx = SpangleContext::new(4);
        let g = Graph::power_law(&ctx, 300, 3000, 11, 4);
        let edges = g.edges().collect().unwrap();
        let result = pagerank(&g, 64, false, 0.85, 10).unwrap();
        let expected = pagerank_reference(300, &edges, 0.85, 10);
        for (i, (a, b)) in result.ranks.as_slice().iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {i}: {a} vs {b}");
        }
        assert_eq!(result.iteration_times.len(), 10);
    }

    #[test]
    fn bitmask_blocks_beat_payload_blocks_on_memory() {
        let ctx = SpangleContext::new(2);
        // ~3% density: the regime where the paper keeps flat masks
        // (1 bit/cell beats 8 B/edge above ~1.6% density).
        let g = Graph::power_law(&ctx, 4096, 500_000, 5, 4);
        let adj = AdjacencyMatrix::from_graph(&g, 512, false).unwrap();
        let mask_bytes = adj.mem_bytes().unwrap();
        let edges = g.num_edges().unwrap();
        assert!(
            mask_bytes < edges * 8,
            "bitmask blocks ({mask_bytes} B) should undercut 8 B/edge ({} B)",
            edges * 8
        );
    }

    /// Flat-mask bytes of every stored block, computed from its extent.
    fn flat_bytes(adj: &AdjacencyMatrix, block_size: usize) -> usize {
        let n = adj.num_vertices();
        let grid = n.div_ceil(block_size) as u64;
        adj.rdd()
            .collect()
            .unwrap()
            .iter()
            .map(|(id, _)| {
                let rows = block_size.min(n - (id % grid) as usize * block_size);
                let cols = block_size.min(n - (id / grid) as usize * block_size);
                Bitmask::zeros(rows * cols).mem_size()
            })
            .sum()
    }

    #[test]
    fn hierarchical_blocks_shrink_super_sparse_graphs() {
        let ctx = SpangleContext::new(2);
        // 16k vertices, only 2k edges: blocks are overwhelmingly empty,
        // so the size rule picks the hierarchical form without being
        // forced to.
        let g = Graph::power_law(&ctx, 16_384, 2_000, 9, 4);
        let adj = AdjacencyMatrix::from_graph(&g, 2048, false).unwrap();
        let auto = adj.mem_bytes().unwrap();
        let flat = flat_bytes(&adj, 2048);
        assert!(
            auto * 2 < flat,
            "default-mode masks ({auto} B) should at least halve flat masks ({flat} B)"
        );
    }

    #[test]
    fn block_form_follows_density() {
        let ctx = SpangleContext::new(2);
        // Block (0, 0) of a 512-vertex graph in 64-wide blocks is half
        // full; the other 64 edges scatter over the remaining 63 blocks.
        let mut edges: Vec<(u64, u64)> = (0..64u64)
            .flat_map(|s| {
                (0..64u64)
                    .filter(move |d| (s + d) % 2 == 0)
                    .map(move |d| (s, d))
            })
            .collect();
        edges.extend((64..512u64).step_by(7).map(|s| (s, (s * 37 + 100) % 512)));
        let g = Graph::from_edges(&ctx, 512, edges.clone(), 3);
        let adj = AdjacencyMatrix::from_graph(&g, 64, false).unwrap();
        for (id, block) in adj.rdd().collect().unwrap() {
            match (id, &block) {
                (0, AdjBlock::Flat(_)) => assert_eq!(block.num_edges(), 2048),
                (0, AdjBlock::Hier(_)) => panic!("the dense block must stay flat"),
                (_, AdjBlock::Hier(_)) => assert!(block.num_edges() < 64, "block {id}"),
                (_, AdjBlock::Flat(_)) => panic!("super-sparse block {id} stayed flat"),
            }
        }
        let result = pagerank(&g, 64, false, 0.85, 20).unwrap();
        let expected = pagerank_reference(512, &edges, 0.85, 20);
        for (i, (a, b)) in result.ranks.as_slice().iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-12, "vertex {i}: {a} vs {b}");
        }
        assert_eq!(result.adjacency_bytes, adj.mem_bytes().unwrap());
    }

    #[test]
    fn pagerank_leaves_the_cache_as_it_found_it() {
        // `cached_bytes` counts driver-resident partitions, so the blocks
        // must stay in the driver (the process backend moves them out).
        let ctx = SpangleContext::builder()
            .executors(2)
            .backend(spangle_dataflow::BackendKind::InProc)
            .build();
        let g = Graph::power_law(&ctx, 1024, 8_000, 3, 4);
        g.edges().persist();
        g.num_edges().unwrap();
        let before = ctx.cached_bytes();
        assert!(before > 0, "the edge list itself is cached");
        pagerank(&g, 128, false, 0.85, 3).unwrap();
        assert_eq!(ctx.cached_bytes(), before);

        // The guard is the matrix itself: dropping it on any path frees
        // its blocks.
        let adj = AdjacencyMatrix::from_graph(&g, 128, false).unwrap();
        adj.rdd().count().unwrap();
        assert!(ctx.cached_bytes() > before);
        drop(adj);
        assert_eq!(ctx.cached_bytes(), before);
    }

    #[test]
    fn blocks_round_trip_through_the_spill_codec() {
        let ctx = SpangleContext::new(2);
        let g = Graph::power_law(&ctx, 2048, 20_000, 5, 4);
        for super_sparse in [false, true] {
            let adj = AdjacencyMatrix::from_graph(&g, 256, super_sparse).unwrap();
            for (_, block) in adj.rdd().collect().unwrap() {
                let mut buf = Vec::new();
                block.spill_encode(&mut buf);
                let mut cursor = spangle_dataflow::SpillCursor::new(&buf);
                let back = AdjBlock::spill_decode(&mut cursor).expect("decodes");
                assert_eq!(cursor.remaining(), 0);
                match (&block, &back) {
                    (AdjBlock::Flat(a), AdjBlock::Flat(b)) => assert_eq!(a, b),
                    (AdjBlock::Hier(a), AdjBlock::Hier(b)) => assert_eq!(a, b),
                    _ => panic!("the block form changed in transit"),
                }
            }
        }
    }
}
