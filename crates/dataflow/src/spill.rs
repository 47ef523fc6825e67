//! On-disk spill tier of the block store.
//!
//! When resident cache + shuffle bytes cross the admission memory
//! watermark, cold blocks are *demoted*: their records are encoded with the
//! hand-rolled [`MemSize`] spill codec and written to a private temp
//! directory, freeing their heap bytes while keeping them fetchable. A later
//! read *rehydrates* the block — reads the file back, verifies the frame,
//! decodes, and reinstates the records in memory — instead of failing the
//! fetch or recomputing lineage.
//!
//! The store is deliberately primitive: one file per block, written whole
//! and read whole, so the per-chunk IO cost model used by the local-engine
//! baseline maps one-to-one onto real syscalls. Files are framed with a
//! magic, an explicit payload length, and an FNV-1a checksum so a torn or
//! truncated write is detected on read rather than decoded into garbage.

use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::{fs, io};

use crate::memsize::{put_len, SpillCursor};
use crate::Data;

/// Frame magic for spill files; bump when the framing changes.
const MAGIC: &[u8; 4] = b"SPL1";

/// Bytes of framing around each payload: magic + length + checksum.
const FRAME_OVERHEAD: usize = 4 + 8 + 8;

/// Process-wide sequence so two stores in one process (one per context, and
/// many test contexts) never share a directory.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// FNV-1a 64-bit over the payload — cheap, dependency-free corruption
/// check, shared with the worker wire frames.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Accounted directory of spill files. Each [`write`](SpillStore::write)
/// produces one file named by a monotone id; [`read`](SpillStore::read)
/// verifies the frame before returning the payload. Dropping the store
/// removes the whole directory.
pub(crate) struct SpillStore {
    root: PathBuf,
    next_file: AtomicU64,
    disk_bytes: AtomicUsize,
}

impl Default for SpillStore {
    fn default() -> Self {
        sweep_stale_spill_dirs();
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("spangle-spill-{}-{}", std::process::id(), seq));
        SpillStore {
            root,
            next_file: AtomicU64::new(0),
            disk_bytes: AtomicUsize::new(0),
        }
    }
}

/// Best-effort removal of `spangle-spill-<pid>-<seq>` sibling directories
/// left behind by crashed processes (their `Drop` never ran). A dir is
/// stale when its embedded pid no longer exists; liveness is checked via
/// `/proc`, so on platforms without it nothing is removed. Own-process
/// dirs are always kept — a sibling store in this process may still be
/// live.
fn sweep_stale_spill_dirs() {
    let Ok(entries) = fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    if !std::path::Path::new("/proc/self").exists() {
        return;
    }
    let own = std::process::id();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("spangle-spill-") else {
            continue;
        };
        let Some((pid, _seq)) = rest.split_once('-') else {
            continue;
        };
        let Ok(pid) = pid.parse::<u32>() else {
            continue;
        };
        if pid == own || std::path::Path::new(&format!("/proc/{pid}")).exists() {
            continue;
        }
        let _ = fs::remove_dir_all(entry.path());
    }
}

impl SpillStore {
    /// Frame `payload` and write it as a new file. Returns the file id and
    /// the on-disk length (framing included), which the caller must keep to
    /// account the later [`remove`](SpillStore::remove).
    pub(crate) fn write(&self, payload: &[u8]) -> io::Result<(u64, usize)> {
        // The directory is created lazily so contexts that never spill
        // leave no trace in the temp dir.
        fs::create_dir_all(&self.root)?;
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        fs::write(self.root.join(id.to_string()), &frame)?;
        self.disk_bytes.fetch_add(frame.len(), Ordering::Relaxed);
        Ok((id, frame.len()))
    }

    /// Read a spill file back, verifying magic, length, and checksum.
    /// Returns `None` when the file is missing, torn, or corrupt.
    pub(crate) fn read(&self, id: u64) -> Option<Vec<u8>> {
        let frame = fs::read(self.root.join(id.to_string())).ok()?;
        if frame.len() < FRAME_OVERHEAD || &frame[..4] != MAGIC {
            return None;
        }
        let len = u64::from_le_bytes(frame[4..12].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(frame[12..20].try_into().unwrap());
        let payload = &frame[FRAME_OVERHEAD..];
        if payload.len() != len || fnv1a64(payload) != sum {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Delete a spill file and release its accounted bytes. Best-effort:
    /// a file already gone (e.g. a racing rehydrate) is not an error.
    pub(crate) fn remove(&self, id: u64, disk_len: usize) {
        let _ = fs::remove_file(self.root.join(id.to_string()));
        self.disk_bytes.fetch_sub(disk_len, Ordering::Relaxed);
    }

    /// Bytes currently resident in this store's disk tier.
    pub(crate) fn disk_bytes(&self) -> usize {
        self.disk_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Type-erased encode/decode pair for one concrete `Vec<T>` block type.
///
/// The block stores hold payloads as `Arc<dyn Any>`, so by the time memory
/// pressure picks a victim the element type is gone. The codec is captured
/// at the deposit site — the only place `T` is still concrete — as a pair
/// of plain fn pointers, which keeps block entries `Copy`-cheap and avoids
/// boxing a closure per block.
#[derive(Clone, Copy)]
pub(crate) struct SpillCodec {
    encode: fn(&(dyn Any + Send + Sync)) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<Arc<dyn Any + Send + Sync>>,
}

impl SpillCodec {
    /// The codec for `Vec<T>` blocks, or `None` when `T` opted out of
    /// spilling (no stable byte representation, e.g. `&'static str`).
    pub(crate) fn of<T: Data>() -> Option<SpillCodec> {
        fn encode<T: Data>(payload: &(dyn Any + Send + Sync)) -> Vec<u8> {
            let records = payload
                .downcast_ref::<Vec<T>>()
                .expect("spill codec applied to a block of a different type");
            let mut out = Vec::new();
            put_len(&mut out, records.len());
            for record in records {
                record.spill_encode(&mut out);
            }
            out
        }
        fn decode<T: Data>(payload: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
            let mut cur = SpillCursor::new(payload);
            let count = cur.len_prefix()?;
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                records.push(T::spill_decode(&mut cur)?);
            }
            // A frame with trailing bytes is corrupt, not short.
            (cur.remaining() == 0).then_some(Arc::new(records) as Arc<dyn Any + Send + Sync>)
        }
        if !T::spillable() {
            return None;
        }
        Some(SpillCodec {
            encode: encode::<T>,
            decode: decode::<T>,
        })
    }

    pub(crate) fn encode(&self, payload: &(dyn Any + Send + Sync)) -> Vec<u8> {
        (self.encode)(payload)
    }

    pub(crate) fn decode(&self, payload: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        (self.decode)(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_accounts_bytes() {
        let store = SpillStore::default();
        let payload = vec![7u8; 100];
        let (id, disk_len) = store.write(&payload).unwrap();
        assert_eq!(disk_len, payload.len() + FRAME_OVERHEAD);
        assert_eq!(store.disk_bytes(), disk_len);
        assert_eq!(store.read(id).as_deref(), Some(&payload[..]));
        store.remove(id, disk_len);
        assert_eq!(store.disk_bytes(), 0);
        assert!(store.read(id).is_none());
    }

    #[test]
    fn corrupt_frames_read_as_none() {
        let store = SpillStore::default();
        let (id, _) = store.write(b"hello spill tier").unwrap();
        let path = store.root.join(id.to_string());

        // Flip one payload byte: checksum mismatch.
        let mut frame = fs::read(&path).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        fs::write(&path, &frame).unwrap();
        assert!(store.read(id).is_none());

        // Truncate mid-payload: length mismatch.
        frame.truncate(frame.len() - 4);
        fs::write(&path, &frame).unwrap();
        assert!(store.read(id).is_none());

        // Wrong magic.
        frame[0] = b'X';
        fs::write(&path, &frame).unwrap();
        assert!(store.read(id).is_none());
    }

    #[test]
    fn codec_roundtrips_pair_blocks() {
        let codec = SpillCodec::of::<(u64, f64)>().expect("pairs are spillable");
        let block: Vec<(u64, f64)> = (0..64).map(|i| (i, i as f64 * 0.5)).collect();
        let payload: Arc<dyn Any + Send + Sync> = Arc::new(block.clone());
        let bytes = codec.encode(payload.as_ref());
        let back = codec.decode(&bytes).expect("decode");
        assert_eq!(back.downcast_ref::<Vec<(u64, f64)>>().unwrap(), &block);
        // Truncated payloads are rejected, as are trailing bytes.
        assert!(codec.decode(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(codec.decode(&padded).is_none());
    }

    #[test]
    fn unspillable_types_have_no_codec() {
        assert!(SpillCodec::of::<&'static str>().is_none());
        assert!(SpillCodec::of::<(u64, &'static str)>().is_none());
    }

    #[test]
    fn stale_spill_dirs_of_dead_processes_are_swept() {
        if !std::path::Path::new("/proc/self").exists() {
            return; // liveness check needs procfs
        }
        let tmp = std::env::temp_dir();
        // Linux pids cap at 2^22, so this pid can never be alive.
        let stale = tmp.join("spangle-spill-999999999-0");
        let own = tmp.join(format!("spangle-spill-{}-999999", std::process::id()));
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("0"), b"leaked").unwrap();
        fs::create_dir_all(&own).unwrap();

        let _store = SpillStore::default();
        assert!(!stale.exists(), "dead process's spill dir must be removed");
        assert!(own.exists(), "own-process dirs are never swept");
        let _ = fs::remove_dir_all(&own);
    }

    #[test]
    fn dropping_the_store_removes_its_directory() {
        let store = SpillStore::default();
        store.write(b"ephemeral").unwrap();
        let root = store.root.clone();
        assert!(root.exists());
        drop(store);
        assert!(!root.exists());
    }
}
