//! The worker-process side of the process backend.
//!
//! A worker is one OS process holding one executor slot's tier of the
//! block store. It connects back to the driver's Unix socket, announces
//! itself with a `Hello { slot, epoch }` frame, then serves requests from
//! a sequential frame loop over a byte map: `Put` stores a block's
//! spill-codec bytes under a driver-chosen id, `Get` returns them,
//! `Remove` drops a batch of ids, `Stats` reports, `Shutdown` exits.
//! Every frame is checksummed, so bytes come back exactly as they went in
//! or not at all. A separate thread writes `Heartbeat` keepalives every
//! half heartbeat interval — with the bytes of a large reply, those are
//! the *only* liveness signal the driver has, so a `SIGKILL`ed worker goes
//! silent and is detected by missed heartbeats, exactly like a dead
//! executor process in a real cluster.
//!
//! The worker runs no task code and holds no lineage: task bodies stay on
//! driver threads. Every block it holds can be recomputed from lineage by
//! the driver, so losing the process loses data, never correctness.

use crate::sync::Mutex;
use crate::wire::{self, Frame, ReplyBody, RequestBody, WireError};
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What a worker process needs to come up: where to connect and who it is.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Path of the driver's Unix listener socket.
    pub socket: std::path::PathBuf,
    /// Executor slot this worker owns.
    pub slot: u64,
    /// Incarnation it was spawned for.
    pub epoch: u64,
    /// Keepalive spacing (already halved and clamped by the driver).
    pub heartbeat: Duration,
}

/// The worker's byte map.
struct WorkerState {
    epoch: u64,
    store: HashMap<u64, Vec<u8>>,
}

impl WorkerState {
    /// Serves one request; `None` for the unanswered `Remove` and
    /// `Shutdown`.
    fn handle(&mut self, body: RequestBody) -> Option<ReplyBody> {
        Some(match body {
            RequestBody::Put { id, bytes } => {
                self.store.insert(id, bytes);
                ReplyBody::Stored
            }
            RequestBody::Get { id } => match self.store.get(&id) {
                Some(bytes) => ReplyBody::Block(bytes.clone()),
                None => ReplyBody::NotFound,
            },
            RequestBody::Remove { ids } => {
                for id in ids {
                    self.store.remove(&id);
                }
                return None;
            }
            RequestBody::Stats => ReplyBody::Stats {
                blocks: self.store.len() as u64,
                bytes: self.store.values().map(|b| b.len() as u64).sum(),
                epoch: self.epoch,
                pid: std::process::id() as u64,
            },
            RequestBody::Shutdown => return None,
        })
    }
}

/// Runs the worker until the driver shuts it down or the connection dies;
/// returns the process exit code. Called by the `spangle_worker` binary.
pub fn worker_main(cfg: &WorkerConfig) -> i32 {
    let stream = match UnixStream::connect(&cfg.socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spangle_worker: connect {:?}: {e}", cfg.socket);
            return 1;
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spangle_worker: clone stream: {e}");
            return 1;
        }
    };
    let writer = Arc::new(Mutex::new(stream));
    let hello = Frame::Hello {
        slot: cfg.slot,
        epoch: cfg.epoch,
    };
    if wire::write_frame(&writer, &hello).is_err() {
        return 1;
    }

    {
        // Keepalives ride their own thread so a long request cannot
        // silence the worker: heartbeat silence must mean the *process*
        // is gone. The thread exits with the process when a write fails
        // (driver gone) — no join needed.
        let writer = Arc::clone(&writer);
        let interval = cfg.heartbeat;
        std::thread::spawn(move || {
            for beats in 1.. {
                if wire::write_frame(&writer, &Frame::Heartbeat { beats }).is_err() {
                    std::process::exit(0);
                }
                std::thread::sleep(interval);
            }
        });
    }

    let mut state = WorkerState {
        epoch: cfg.epoch,
        store: HashMap::new(),
    };
    loop {
        match wire::read_frame(&mut reader) {
            Ok(Frame::Request {
                body: RequestBody::Shutdown,
                ..
            }) => return 0,
            Ok(Frame::Request { req_id, body }) => {
                let Some(reply) = state.handle(body) else {
                    continue;
                };
                let frame = Frame::Reply {
                    req_id,
                    body: reply,
                };
                if wire::write_frame(&writer, &frame).is_err() {
                    return 0;
                }
            }
            // Workers only expect requests; a stray frame is ignored.
            Ok(_) => {}
            // The driver closed the socket (context drop): exit quietly.
            Err(WireError::Eof) => return 0,
            Err(e) => {
                eprintln!("spangle_worker[{}]: {e}", cfg.slot);
                return 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_byte_map_stores_returns_and_removes_blocks() {
        let mut state = WorkerState {
            epoch: 3,
            store: HashMap::new(),
        };
        let put = |id, bytes: &[u8]| RequestBody::Put {
            id,
            bytes: bytes.to_vec(),
        };
        assert_eq!(state.handle(put(9, &[1, 2, 3])), Some(ReplyBody::Stored));
        assert_eq!(state.handle(put(10, &[4])), Some(ReplyBody::Stored));
        assert_eq!(
            state.handle(RequestBody::Get { id: 9 }),
            Some(ReplyBody::Block(vec![1, 2, 3]))
        );
        assert_eq!(
            state.handle(RequestBody::Stats),
            Some(ReplyBody::Stats {
                blocks: 2,
                bytes: 4,
                epoch: 3,
                pid: std::process::id() as u64,
            })
        );
        // Removal is unanswered and tolerates ids that are not there.
        assert_eq!(state.handle(RequestBody::Remove { ids: vec![9, 77] }), None);
        assert_eq!(
            state.handle(RequestBody::Get { id: 9 }),
            Some(ReplyBody::NotFound)
        );
        assert_eq!(state.store.len(), 1);
    }
}
