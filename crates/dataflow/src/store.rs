//! The tiered block store: every cached RDD partition and every shuffle
//! block, the analogue of Spark's block manager memory store.
//!
//! A block is keyed either as a shuffle block — `(shuffle_id, map_id,
//! reduce_id)`, see [`BlockId`] — or as a cached partition — `(rdd_id,
//! partition)`. `rdd.persist()` stores each computed partition the first
//! time an action needs it, and later jobs reuse the block instead of
//! recomputing the lineage. Map tasks deposit their buckets through
//! [`crate::shuffle::ShuffleService::commit_map_output`], and reduce tasks
//! read them back with [`BlockStore::fetch_shuffle`].
//!
//! Every block is attributed to the executor incarnation
//! ([`BlockOrigin`]) that produced it. Killing an executor
//! ([`crate::SpangleContext::kill_executor`]) discards its blocks of both
//! kinds and every tier: a dead incarnation's data is stale on disk and in
//! its worker too. A lost cached partition silently falls back to lineage
//! recomputation, the Spark fault-tolerance contract the paper's iterative
//! algorithms (PageRank, SGD) lean on; a lost shuffle block surfaces as a
//! typed [`FetchFailedError`] and the scheduler re-runs its map partition.
//!
//! # Memory tiers
//!
//! Blocks are deposited *resident*: the records stay on the heap behind an
//! `Arc` and are read zero-copy. They may be demoted to *spilled*: encoded
//! with the [`crate::MemSize`] spill codec and written to a framed,
//! checksummed file of the store's one [`SpillStore`], heap bytes freed. A
//! read that touches a spilled block *rehydrates* it: the file is read
//! back, verified, decoded, reinstated as resident, and deleted. This puts
//! a rung into the degradation ladder — resident hit, then disk hit, then
//! lineage recompute — so crossing the watermark costs IO before it costs
//! CPU. A torn spill file is the next rung down: a shuffle fetch fails
//! typed into map recovery, a cached read misses into lineage recompute.
//! Blocks whose element type opted out of the spill codec stay resident;
//! spilling is an optimisation, never a correctness requirement.
//!
//! Under [`crate::BackendKind::Proc`] a third tier, *remote*, replaces the
//! first for spillable blocks whose origin slot has a worker process: the
//! depositing task encodes the block with the same codec and `Put`s it in
//! that worker before it takes the store lock, and the store records only
//! where the bytes are. A read `Get`s and decodes them without reinstating
//! the block in the driver. A remote block counts in no driver resident
//! bytes and is never swept. A peer worker that is dead, torn, or lacks
//! the block is the torn-spill-file rung; a task whose *own* worker is
//! unreachable waits for the health plane to declare the slot lost (see
//! [`crate::backend`]). Unspillable types and degraded slots keep the
//! driver tiers.
//!
//! # The watermark
//!
//! Every operation that grows residency — a map-output commit, a cache
//! put, a rehydrate — does three things under the store's one write lock:
//! it installs the block, sweeps, and raises the memory high-water mark.
//! The sweep runs once resident bytes reach `memory_high_watermark_bytes`
//! and demotes blocks until residency is down to ¾ of it, so one deposit
//! riding the boundary does not thrash the tier. Victims are shuffle
//! blocks before cached partitions (a shuffle read already pays a fetch),
//! each coldest first by a touch clock that every read bumps. Because no
//! depositor can observe another's unswept bytes, the recorded peak stays
//! within the watermark whenever the resident blocks are spillable. The
//! store needs no reservations: an in-process block's bytes are already
//! allocated when it is deposited, so sweeping before the lock is released
//! is what bounds residency. The watermark counts driver-resident bytes
//! only; worker-held bytes are outside it.

use crate::executor::BlockOrigin;
use crate::metrics::MetricField;
use crate::shuffle::{BlockId, FetchFailedError};
use crate::spill::{SpillCodec, SpillStore};
use crate::sync::RwLock;
use crate::{Data, SpangleContext};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Kind index of shuffle blocks, for [`BlockStore::resident_bytes`] and
/// [`BlockStore::discard`]. Also the first rank of the spill order.
pub(crate) const SHUFFLE: usize = 0;
/// Kind index of cached partitions; spilled after every shuffle block.
pub(crate) const CACHED: usize = 1;

/// Key of one stored block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum BlockKey {
    /// One map task's bucket for one reduce partition.
    Shuffle(BlockId),
    /// One partition of a persisted RDD.
    Cached { rdd_id: usize, partition: usize },
}

impl BlockKey {
    /// [`SHUFFLE`] or [`CACHED`].
    fn kind(&self) -> usize {
        match self {
            BlockKey::Shuffle(_) => SHUFFLE,
            BlockKey::Cached { .. } => CACHED,
        }
    }
}

type Payload = Arc<dyn Any + Send + Sync>;

/// Where one block's records currently live.
enum Tier {
    /// On the heap; reads clone the `Arc`, not the records.
    Resident(Payload),
    /// Encoded in spill file `file`; `disk_len` is the framed file size,
    /// kept so removal can release the accounted bytes.
    Spilled { file: u64, disk_len: usize },
    /// Encoded in the worker process of executor `slot`, under `id`.
    Remote { slot: usize, id: u64 },
}

/// A block's encoded copy off the driver heap, read outside all locks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OffHeap {
    /// Spill file id.
    Disk(u64),
    /// Worker slot and block id.
    Worker(usize, u64),
}

impl Tier {
    fn off_heap(&self) -> Option<OffHeap> {
        match *self {
            Tier::Resident(_) => None,
            Tier::Spilled { file, .. } => Some(OffHeap::Disk(file)),
            Tier::Remote { slot, id } => Some(OffHeap::Worker(slot, id)),
        }
    }
}

/// One stored block with its tier, accounting, and spill identity.
struct Entry {
    tier: Tier,
    /// Deep size of the records: counted in its kind's resident bytes
    /// while resident, charged as shuffle volume for a shuffle block.
    bytes: usize,
    origin: BlockOrigin,
    /// Captured at deposit, where the element type is still concrete.
    /// `None` means the type opted out of spilling: the block is pinned
    /// resident.
    codec: Option<SpillCodec>,
    /// Last-access tick of the store clock; the sweep demotes the smallest
    /// first.
    touch: AtomicU64,
}

/// Outcome of [`BlockStore::get`].
pub(crate) enum Lookup<T> {
    /// The records (rehydrated or fetched if they were off the heap) and
    /// their deep size.
    Hit(Arc<Vec<T>>, usize),
    /// No such block.
    Absent,
    /// The block's spill file or worker copy is lost; the entry is gone
    /// now.
    Torn,
}

/// Blocks made ready by [`BlockStore::prepare`] for
/// [`BlockStore::install`]. Worker copies are already placed; dropping the
/// deposits uninstalled — a refused commit, or a task unwinding — removes
/// them again.
pub(crate) struct Deposits<'a> {
    ctx: &'a SpangleContext,
    entries: Vec<(BlockKey, Entry)>,
    /// Worker copies `(slot, id)` these deposits still own.
    placed: Vec<(usize, u64)>,
}

impl Drop for Deposits<'_> {
    fn drop(&mut self) {
        forget_remote(self.ctx, std::mem::take(&mut self.placed));
    }
}

/// Removes worker copies whose entries are gone.
fn forget_remote(ctx: &SpangleContext, copies: Vec<(usize, u64)>) {
    if let (Some(backend), false) = (&ctx.inner.backend, copies.is_empty()) {
        backend.remove(copies);
    }
}

/// Cached partitions and shuffle blocks in up to three tiers, bounded by
/// the memory watermark.
pub(crate) struct BlockStore {
    blocks: RwLock<HashMap<BlockKey, Entry>>,
    /// Resident bytes per kind ([`SHUFFLE`], [`CACHED`]). They only move
    /// under the `blocks` write lock, and debug builds check them against
    /// a walk of the map in every mutating operation.
    resident: [AtomicUsize; 2],
    /// Monotone access clock feeding each entry's `touch`.
    clock: AtomicU64,
    spill: SpillStore,
    /// Next worker block id; never reused, so a stale removal cannot hit
    /// a newer copy.
    next_remote: AtomicU64,
    /// Resident bytes at which the sweep starts (`usize::MAX`: never).
    watermark: usize,
    /// Whether the sweep may demote blocks at all.
    spill_enabled: bool,
}

impl BlockStore {
    /// An empty store that sweeps at `watermark` resident bytes when
    /// `spill_enabled`.
    pub(crate) fn new(watermark: usize, spill_enabled: bool) -> Self {
        BlockStore {
            blocks: RwLock::new(HashMap::new()),
            resident: Default::default(),
            clock: AtomicU64::new(0),
            spill: SpillStore::default(),
            next_remote: AtomicU64::new(0),
            watermark,
            spill_enabled,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Resident bytes of one kind, [`SHUFFLE`] or [`CACHED`] (spilled and
    /// remote blocks hold no heap bytes and do not count). Read under the
    /// read lock, so it never shows a deposit whose sweep is still running.
    pub(crate) fn resident_bytes(&self, kind: usize) -> usize {
        let _settled = self.blocks.read();
        self.resident[kind].load(Ordering::Relaxed)
    }

    /// Both kinds' resident bytes; exact only while the caller holds the
    /// lock.
    fn total_resident_bytes(&self) -> usize {
        self.resident
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .sum()
    }

    /// Bytes held by the disk tier (framed file sizes).
    pub(crate) fn disk_bytes(&self) -> usize {
        self.spill.disk_bytes()
    }

    /// Whether resident bytes sit at or above the watermark. Every deposit
    /// has already swept, so this holds only while the resident blocks
    /// cannot spill (spilling disabled, or pinned types): admission then
    /// counts memory as saturated.
    pub(crate) fn saturated(&self) -> bool {
        let _settled = self.blocks.read();
        self.total_resident_bytes() >= self.watermark
    }

    /// Asserts the per-kind counters against a walk of the map. The caller
    /// holds the write lock, so the comparison is exact.
    fn debug_check(&self, blocks: &HashMap<BlockKey, Entry>) {
        debug_assert_eq!(
            blocks
                .iter()
                .filter(|(_, e)| matches!(e.tier, Tier::Resident(_)))
                .fold([0usize; 2], |mut walk, (key, e)| {
                    walk[key.kind()] += e.bytes;
                    walk
                }),
            self.resident.each_ref().map(|r| r.load(Ordering::Relaxed)),
            "resident-bytes counters drifted from the block map"
        );
    }

    /// Releases one entry's accounting: its resident bytes or its spill
    /// file. A worker copy is queued on `copies` for [`forget_remote`]
    /// once the lock is released.
    fn release(&self, key: &BlockKey, entry: &Entry, copies: &mut Vec<(usize, u64)>) {
        match entry.tier {
            Tier::Resident(_) => {
                self.resident[key.kind()].fetch_sub(entry.bytes, Ordering::Relaxed);
            }
            Tier::Spilled { file, disk_len } => self.spill.remove(file, disk_len),
            Tier::Remote { slot, id } => copies.push((slot, id)),
        }
    }

    /// Readies blocks `(key, records, deep bytes)` attributed to `origin`
    /// for [`BlockStore::install`], taking no lock. Under the process
    /// backend a spillable block whose origin slot has a worker is encoded
    /// and `Put` in that worker here; every other block stays on the heap.
    pub(crate) fn prepare<'a, T: Data>(
        &self,
        ctx: &'a SpangleContext,
        blocks: impl IntoIterator<Item = (BlockKey, Arc<Vec<T>>, usize)>,
        origin: BlockOrigin,
    ) -> Deposits<'a> {
        let codec = SpillCodec::of::<T>();
        let worker = match (&ctx.inner.backend, codec, origin.executor_epoch()) {
            (Some(backend), Some(encoder), Some((slot, _))) if backend.hosts(slot) => {
                Some((backend, encoder, slot))
            }
            _ => None,
        };
        let mut deposits = Deposits {
            ctx,
            entries: Vec::new(),
            placed: Vec::new(),
        };
        for (key, records, bytes) in blocks {
            let tier = match worker {
                Some((backend, encoder, slot)) => {
                    let id = self.next_remote.fetch_add(1, Ordering::Relaxed);
                    // Owned before the call, so a task cancelled mid-`Put`
                    // removes the copy as it unwinds.
                    deposits.placed.push((slot, id));
                    if backend.put(slot, id, encoder.encode(records.as_ref())) {
                        Tier::Remote { slot, id }
                    } else {
                        Tier::Resident(records)
                    }
                }
                None => Tier::Resident(records),
            };
            let entry = Entry {
                tier,
                bytes,
                origin,
                codec,
                touch: AtomicU64::new(0),
            };
            deposits.entries.push((key, entry));
        }
        deposits
    }

    /// Installs prepared blocks, releasing any entry they replace, and
    /// settles the watermark before the lock is released.
    pub(crate) fn install(&self, mut deposits: Deposits<'_>) {
        let ctx = deposits.ctx;
        deposits.placed.clear();
        let mut replaced = Vec::new();
        let mut blocks = self.blocks.write();
        for (key, entry) in deposits.entries.drain(..) {
            if matches!(entry.tier, Tier::Resident(_)) {
                self.resident[key.kind()].fetch_add(entry.bytes, Ordering::Relaxed);
            }
            entry.touch.store(self.tick(), Ordering::Relaxed);
            if let Some(old) = blocks.insert(key, entry) {
                self.release(&key, &old, &mut replaced);
            }
        }
        self.settle(ctx, &mut blocks);
        drop(blocks);
        forget_remote(ctx, replaced);
    }

    /// [`BlockStore::prepare`] then [`BlockStore::install`].
    pub(crate) fn put<T: Data>(
        &self,
        ctx: &SpangleContext,
        blocks: impl IntoIterator<Item = (BlockKey, Arc<Vec<T>>, usize)>,
        origin: BlockOrigin,
    ) {
        self.install(self.prepare(ctx, blocks, origin));
    }

    /// Reads one block and bumps its touch. A spilled block is rehydrated,
    /// which grows residency and so settles the watermark like a deposit;
    /// a remote block is fetched and decoded, and stays remote.
    pub(crate) fn get<T: Data>(&self, ctx: &SpangleContext, key: BlockKey) -> Lookup<T> {
        loop {
            // Fast path: a resident block under the read lock. A block off
            // the heap is read and decoded outside all locks.
            let (copy, codec, bytes) = {
                let blocks = self.blocks.read();
                let Some(entry) = blocks.get(&key) else {
                    return Lookup::Absent;
                };
                entry.touch.store(self.tick(), Ordering::Relaxed);
                if let Tier::Resident(payload) = &entry.tier {
                    return Lookup::Hit(downcast(payload.clone()), entry.bytes);
                }
                let codec = entry.codec.expect("a block off the heap has a codec");
                let copy = entry
                    .tier
                    .off_heap()
                    .expect("every other tier is off the heap");
                (copy, codec, entry.bytes)
            };
            let encoded = match copy {
                OffHeap::Disk(file) => self.spill.read(file),
                OffHeap::Worker(slot, id) => {
                    ctx.inner.backend.as_ref().and_then(|b| b.get(slot, id))
                }
            };
            let decoded = match (copy, encoded.and_then(|e| codec.decode(&e))) {
                (OffHeap::Worker(..), Some(payload)) => {
                    return Lookup::Hit(downcast(payload), bytes)
                }
                (_, decoded) => decoded,
            };
            let mut blocks = self.blocks.write();
            let Some(entry) = blocks.get_mut(&key) else {
                return Lookup::Absent;
            };
            // Raced with another rehydrator, a re-spill or a re-deposit:
            // take the read path again.
            if entry.tier.off_heap() != Some(copy) {
                continue;
            }
            let Some(payload) = decoded else {
                let entry = blocks.remove(&key).expect("entry checked above");
                let mut lost = Vec::new();
                self.release(&key, &entry, &mut lost);
                self.debug_check(&blocks);
                drop(blocks);
                forget_remote(ctx, lost);
                return Lookup::Torn;
            };
            let Tier::Spilled { file, disk_len } = entry.tier else {
                unreachable!("only a spilled block is rehydrated");
            };
            entry.tier = Tier::Resident(payload.clone());
            self.resident[key.kind()].fetch_add(bytes, Ordering::Relaxed);
            self.spill.remove(file, disk_len);
            ctx.metrics().add(MetricField::BlocksRehydrated, 1);
            self.settle(ctx, &mut blocks);
            return Lookup::Hit(downcast(payload), bytes);
        }
    }

    /// Fetches one shuffle bucket and charges shuffle read volume. Reduce
    /// tasks iterate the shared `Arc` without cloning the vector. An
    /// absent block reads as an empty bucket when its map output is
    /// registered (the map produced nothing for this reduce partition).
    ///
    /// # Panics
    ///
    /// Panics with a [`FetchFailedError`] payload when the output existed
    /// and is lost: its spill file is torn, or the block is absent and its
    /// map unregistered in a shuffle whose map stage ran or that lineage
    /// GC tore down. The caller must not treat it as empty; the scheduler
    /// turns the panic into [`crate::TaskError::FetchFailed`] and recovers.
    pub(crate) fn fetch_shuffle<T: Data>(&self, ctx: &SpangleContext, id: BlockId) -> Arc<Vec<T>> {
        let shuffle = &ctx.inner.shuffle;
        let key = BlockKey::Shuffle(id);
        let lookup = match self.get::<T>(ctx, key) {
            // The map may have committed since that read: look again under
            // the registry lock, which commits hold while they install. An
            // absent bucket of a registered map is then really empty. A
            // present one is read after the lock is released: a worker
            // read may wait for the health plane, whose kills take it.
            Lookup::Absent => {
                let contains = || self.blocks.read().contains_key(&key);
                if shuffle.with_registration(id, |registered| registered && !contains()) {
                    Lookup::Hit(Arc::new(Vec::new()), 0)
                } else {
                    self.get::<T>(ctx, key)
                }
            }
            lookup => lookup,
        };
        match lookup {
            Lookup::Hit(records, bytes) => {
                ctx.metrics()
                    .add(MetricField::ShuffleReadBytes, bytes as u64);
                return records;
            }
            Lookup::Absent if !shuffle.has_run(id.shuffle_id) => return Arc::new(Vec::new()),
            Lookup::Absent => {}
            // The block is gone for real: deregister its map so the loss
            // surfaces exactly like executor loss, typed and recoverable.
            Lookup::Torn => shuffle.lose_map_output(id.shuffle_id, id.map_id),
        }
        std::panic::panic_any(FetchFailedError {
            shuffle_id: id.shuffle_id,
            map_id: id.map_id,
        })
    }

    /// The tail of every residency-growing operation, under the same write
    /// lock as its install: once resident bytes reach the watermark, sweep
    /// down to ¾ of it, then raise the high-water marks.
    fn settle(&self, ctx: &SpangleContext, blocks: &mut HashMap<BlockKey, Entry>) {
        let resident = self.total_resident_bytes();
        if self.spill_enabled && resident >= self.watermark {
            self.sweep(
                ctx,
                blocks,
                resident - (self.watermark - self.watermark / 4),
            );
        }
        self.debug_check(blocks);
        ctx.metrics().raise(
            MetricField::MemoryHighwaterBytes,
            self.total_resident_bytes() as u64,
        );
        ctx.metrics().raise(
            MetricField::CacheHighwaterBytes,
            self.resident[CACHED].load(Ordering::Relaxed) as u64,
        );
    }

    /// Demotes resident spillable blocks until `need` bytes are freed:
    /// shuffle blocks before cached partitions, each coldest first. Returns
    /// the bytes freed. An IO error stops the sweep; memory pressure is
    /// better than cascading disk failures.
    fn sweep(
        &self,
        ctx: &SpangleContext,
        blocks: &mut HashMap<BlockKey, Entry>,
        need: usize,
    ) -> usize {
        let mut victims: Vec<(usize, u64, BlockKey)> = blocks
            .iter()
            .filter(|(_, e)| e.codec.is_some() && matches!(e.tier, Tier::Resident(_)))
            .map(|(key, e)| (key.kind(), e.touch.load(Ordering::Relaxed), *key))
            .collect();
        victims.sort_unstable_by_key(|&(kind, touch, _)| (kind, touch));
        let (mut freed, mut spilled, mut disk) = (0usize, 0u64, 0u64);
        for (kind, _, key) in victims {
            if freed >= need {
                break;
            }
            let entry = blocks
                .get_mut(&key)
                .expect("victims are taken under the lock");
            let (Tier::Resident(payload), Some(codec)) = (&entry.tier, entry.codec) else {
                unreachable!("victims are resident and spillable");
            };
            let Ok((file, disk_len)) = self.spill.write(&codec.encode(payload.as_ref())) else {
                break;
            };
            entry.tier = Tier::Spilled { file, disk_len };
            self.resident[kind].fetch_sub(entry.bytes, Ordering::Relaxed);
            freed += entry.bytes;
            spilled += 1;
            disk += disk_len as u64;
        }
        if spilled > 0 {
            ctx.metrics().add(MetricField::BlocksSpilled, spilled);
            ctx.metrics().add(MetricField::SpillBytes, disk);
            ctx.metrics()
                .raise(MetricField::DiskResidentBytes, self.disk_bytes() as u64);
        }
        freed
    }

    /// Removes every block, of any tier, for which `doomed(key, origin)`
    /// holds; spilled ones have their files deleted and remote ones their
    /// worker copies. Returns the `(blocks, logical bytes)` dropped per
    /// kind, indexed by [`SHUFFLE`] and [`CACHED`].
    pub(crate) fn discard(
        &self,
        ctx: &SpangleContext,
        doomed: impl Fn(&BlockKey, BlockOrigin) -> bool,
    ) -> [(usize, usize); 2] {
        let mut dropped = [(0, 0); 2];
        let mut copies = Vec::new();
        let mut blocks = self.blocks.write();
        blocks.retain(|key, entry| {
            let keep = !doomed(key, entry.origin);
            if !keep {
                self.release(key, entry, &mut copies);
                let (count, bytes) = &mut dropped[key.kind()];
                *count += 1;
                *bytes += entry.bytes;
            }
            keep
        });
        self.debug_check(&blocks);
        drop(blocks);
        forget_remote(ctx, copies);
        dropped
    }

    /// Bytes deposited for each reduce partition of one shuffle, summed
    /// over its map-side blocks (logical record bytes, every tier). The
    /// planner reads this after a map stage completes to decide which
    /// reduce buckets are small enough to merge into one task
    /// ([`crate::SpangleContextBuilder::coalesce_partitions`]).
    pub(crate) fn reduce_bucket_bytes(&self, shuffle_id: usize, num_reduce: usize) -> Vec<usize> {
        let mut out = vec![0usize; num_reduce];
        for (key, entry) in self.blocks.read().iter() {
            if let BlockKey::Shuffle(id) = key {
                if id.shuffle_id == shuffle_id && id.reduce_id < num_reduce {
                    out[id.reduce_id] += entry.bytes;
                }
            }
        }
        out
    }

    /// Number of stored blocks, both kinds and every tier.
    #[cfg(test)]
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.read().len()
    }
}

fn downcast<T: Data>(payload: Payload) -> Arc<Vec<T>> {
    payload
        .downcast::<Vec<T>>()
        .expect("block type mismatch: read back as a different type than was deposited")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached(rdd_id: usize, partition: usize) -> BlockKey {
        BlockKey::Cached { rdd_id, partition }
    }

    fn shuffle(map_id: usize) -> BlockKey {
        BlockKey::Shuffle(BlockId {
            shuffle_id: 1,
            map_id,
            reduce_id: 0,
        })
    }

    fn hit<T: Data>(lookup: Lookup<T>) -> Arc<Vec<T>> {
        match lookup {
            Lookup::Hit(records, _) => records,
            Lookup::Absent => panic!("block absent"),
            Lookup::Torn => panic!("block torn"),
        }
    }

    /// A context whose blocks all stay in the driver: these tests assert
    /// the driver tiers, which the process backend bypasses.
    fn in_driver() -> SpangleContext {
        SpangleContext::builder()
            .executors(1)
            .backend(crate::BackendKind::InProc)
            .build()
    }

    /// An unbounded store; tests that spill call `sweep` directly.
    fn unbounded() -> BlockStore {
        BlockStore::new(usize::MAX, true)
    }

    fn sweep(store: &BlockStore, ctx: &SpangleContext, need: usize) -> usize {
        store.sweep(ctx, &mut store.blocks.write(), need)
    }

    #[test]
    fn cached_put_get_discard_roundtrip() {
        let ctx = in_driver();
        let store = unbounded();
        let key = cached(3, 1);
        assert!(matches!(store.get::<u64>(&ctx, key), Lookup::Absent));
        store.put(
            &ctx,
            [(key, Arc::new(vec![1u64, 2, 3]), 24)],
            BlockOrigin::DRIVER,
        );
        assert_eq!(*hit(store.get::<u64>(&ctx, key)), vec![1, 2, 3]);
        assert_eq!(store.resident_bytes(CACHED), 24);
        assert_eq!(store.discard(&ctx, |k, _| *k == key), [(0, 0), (1, 24)]);
        assert!(matches!(store.get::<u64>(&ctx, key), Lookup::Absent));
        assert_eq!(store.discard(&ctx, |k, _| *k == key), [(0, 0); 2]);
        assert_eq!(store.resident_bytes(CACHED), 0);
    }

    #[test]
    fn replacing_a_block_swaps_its_accounted_size() {
        let ctx = in_driver();
        let store = unbounded();
        store.put(
            &ctx,
            [(shuffle(0), Arc::new(vec![1u64, 2]), 16)],
            BlockOrigin::DRIVER,
        );
        store.put(
            &ctx,
            [(shuffle(0), Arc::new(vec![9u64]), 8)],
            BlockOrigin::DRIVER,
        );
        assert_eq!(store.resident_bytes(SHUFFLE), 8);
        assert_eq!(store.num_blocks(), 1);
    }

    #[test]
    fn discard_drops_only_matching_blocks_per_kind() {
        let ctx = in_driver();
        let store = unbounded();
        for p in 0..4 {
            let origin = BlockOrigin::executor(p % 2, 0);
            store.put(&ctx, [(cached(2, p), Arc::new(vec![p as u64]), 8)], origin);
            store.put(&ctx, [(shuffle(p), Arc::new(vec![p as u64]), 8)], origin);
        }
        store.put(
            &ctx,
            [(cached(8, 0), Arc::new(vec![0u64]), 8)],
            BlockOrigin::DRIVER,
        );
        assert_eq!(
            store.discard(&ctx, |_, origin| origin.lives_on(1)),
            [(2, 16), (2, 16)]
        );
        for p in 0..4 {
            let present = !matches!(store.get::<u64>(&ctx, cached(2, p)), Lookup::Absent);
            assert_eq!(present, p % 2 == 0);
        }
        assert_eq!(
            store.discard(&ctx, |key, _| matches!(
                key,
                BlockKey::Cached { rdd_id: 2, .. }
            )),
            [(0, 0), (2, 16)]
        );
        assert_eq!(
            store.discard(&ctx, |_, origin| origin.lives_on(5)),
            [(0, 0); 2],
            "unknown executor is a no-op"
        );
        assert_eq!(store.resident_bytes(CACHED), 8);
        assert_eq!(store.resident_bytes(SHUFFLE), 16);
    }

    #[test]
    fn spilled_blocks_rehydrate_bit_identically_with_accounting() {
        let ctx = in_driver();
        let store = unbounded();
        let records: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64 * 1.5)).collect();
        for map_id in 0..4 {
            store.put(
                &ctx,
                [(shuffle(map_id), Arc::new(records.clone()), 1600)],
                BlockOrigin::DRIVER,
            );
        }
        let before = ctx.metrics_snapshot();
        assert_eq!(
            sweep(&store, &ctx, 3000),
            3200,
            "two coldest blocks demoted"
        );
        assert_eq!(store.resident_bytes(SHUFFLE), 3200);
        assert!(store.disk_bytes() > 0);
        assert_eq!(store.num_blocks(), 4, "spilled blocks stay readable");
        let mid = ctx.metrics_snapshot();
        assert_eq!((mid - before).blocks_spilled, 2);
        assert!((mid - before).spill_bytes >= (mid - before).disk_resident_bytes);
        for map_id in 0..4 {
            assert_eq!(
                *hit(store.get::<(u64, f64)>(&ctx, shuffle(map_id))),
                records
            );
        }
        assert_eq!((ctx.metrics_snapshot() - mid).blocks_rehydrated, 2);
        assert_eq!(
            store.resident_bytes(SHUFFLE),
            6400,
            "rehydration restores the tier"
        );
        assert_eq!(store.disk_bytes(), 0, "rehydrated files are deleted");
    }

    #[test]
    fn the_sweep_takes_shuffle_blocks_before_cached_partitions_coldest_first() {
        let ctx = in_driver();
        let store = unbounded();
        // The cached partition is the coldest block of all.
        store.put(
            &ctx,
            [(cached(1, 0), Arc::new(vec![7u64; 4]), 32)],
            BlockOrigin::DRIVER,
        );
        for map_id in 0..3 {
            store.put(
                &ctx,
                [(shuffle(map_id), Arc::new(vec![map_id as u64; 4]), 32)],
                BlockOrigin::DRIVER,
            );
        }
        // Touch shuffle block 0 so block 1 becomes the coldest shuffle block.
        hit(store.get::<u64>(&ctx, shuffle(0)));
        assert_eq!(sweep(&store, &ctx, 1), 32);
        assert_eq!(
            store.resident_bytes(CACHED),
            32,
            "cached partitions go last"
        );
        let before = ctx.metrics_snapshot();
        assert_eq!(*hit(store.get::<u64>(&ctx, shuffle(1))), vec![1; 4]);
        assert_eq!((ctx.metrics_snapshot() - before).blocks_rehydrated, 1);
        // Only once every shuffle block is on disk do cached ones follow.
        assert_eq!(sweep(&store, &ctx, 3 * 32 + 1), 4 * 32);
        assert_eq!(store.resident_bytes(CACHED), 0);
        assert_eq!(*hit(store.get::<u64>(&ctx, cached(1, 0))), vec![7; 4]);
    }

    #[test]
    fn discarding_deletes_spill_files_too() {
        let ctx = in_driver();
        let store = unbounded();
        let origin = BlockOrigin::executor(0, 0);
        store.put(&ctx, [(cached(1, 0), Arc::new(vec![1u64, 2]), 16)], origin);
        sweep(&store, &ctx, usize::MAX);
        assert!(store.disk_bytes() > 0);
        assert_eq!(store.discard(&ctx, |_, o| o.lives_on(0)), [(0, 0), (1, 16)]);
        assert_eq!(store.disk_bytes(), 0, "the spill file goes with the block");
        assert!(matches!(
            store.get::<u64>(&ctx, cached(1, 0)),
            Lookup::Absent
        ));
    }

    #[test]
    fn unspillable_blocks_are_skipped_by_the_sweep() {
        let ctx = in_driver();
        let store = unbounded();
        store.put(
            &ctx,
            [(
                shuffle(0),
                Arc::new(vec!["static strings have no stable byte form"]),
                64,
            )],
            BlockOrigin::DRIVER,
        );
        assert_eq!(sweep(&store, &ctx, usize::MAX), 0);
        assert_eq!(store.resident_bytes(SHUFFLE), 64, "pinned resident");
        assert_eq!(store.disk_bytes(), 0);
    }

    /// Concurrent depositors and rehydrators each install, sweep and sample
    /// under one lock, so none of them can record another's unswept
    /// bytes: the peak stays within the watermark.
    #[test]
    fn concurrent_deposits_and_rehydrates_hold_the_watermark() {
        const WATERMARK: usize = 16 * 1024;
        const BLOCK: usize = 2 * 1024;
        const THREADS: usize = 4;
        const PER_THREAD: usize = 64;
        let ctx = in_driver();
        let store = BlockStore::new(WATERMARK, true);
        let key = |t: usize, i: usize| shuffle(t * PER_THREAD + i);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (ctx, store) = (&ctx, &store);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let records = Arc::new(vec![(t * PER_THREAD + i) as u64; BLOCK / 8]);
                        store.put(ctx, [(key(t, i), records, BLOCK)], BlockOrigin::DRIVER);
                    }
                });
            }
        });
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (ctx, store) = (&ctx, &store);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let got = hit(store.get::<u64>(ctx, key(t, i)));
                        assert_eq!(*got, vec![(t * PER_THREAD + i) as u64; BLOCK / 8]);
                    }
                });
            }
        });
        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "{snap:?}");
        assert!(snap.blocks_rehydrated > 0, "{snap:?}");
        assert!(
            snap.memory_highwater_bytes <= WATERMARK as u64,
            "recorded peak {} crossed the {WATERMARK} B watermark",
            snap.memory_highwater_bytes
        );
    }
}
