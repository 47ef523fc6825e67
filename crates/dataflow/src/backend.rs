//! Executor backends: whether the block store has a tier in worker
//! processes.
//!
//! Scheduling and task bodies always run in the driver process over the
//! thread pool. The backend only decides where blocks can live:
//!
//! * [`BackendKind::InProc`] (the default) keeps every block in the
//!   driver, resident or spilled. No sockets, no processes — and no real
//!   failure domains.
//! * [`BackendKind::Proc`] gives every executor slot a real OS *worker
//!   process* spoken to over a Unix-domain socket with the
//!   `wire` frame protocol. The block store places spillable
//!   blocks produced on a slot in that slot's worker (its remote tier).
//!   Worker keepalives are stamped into the driver's `HealthBoard` by
//!   per-session reader threads, so the loss detector fires on genuine
//!   process death: a `SIGKILL`ed worker stops heartbeating, is declared
//!   lost once a task of its slot waits on it, its slot is killed through
//!   the standard recovery path, and this backend respawns a fresh
//!   incarnation — no `kill_executor` call anywhere.
//!
//! Selection: `SPANGLE_BACKEND=proc|inproc` seeds the builder default;
//! [`crate::SpangleContextBuilder::backend`] wins over the environment.
//! Under `proc`, `SPANGLE_PROC_MAX_WORKERS` caps how many slots get real
//! processes (the rest degrade to the driver tiers, covered by a stamper
//! thread so loss detection never fires on them), and
//! `SPANGLE_WORKER_BIN` points at the worker binary when automatic
//! discovery (alongside the current executable) cannot find it.

use crate::env::env_parse;
use crate::executor::{self, CancelledError};
use crate::health::{jittered_backoff, HealthBoard};
use crate::sync::channel::{unbounded, RecvTimeoutError, Sender};
use crate::sync::Mutex;
use crate::wire::{self, Frame, ReplyBody, RequestBody};
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which executor backend a context runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Every block stays in the driver process (the historical behavior).
    #[default]
    InProc,
    /// Every executor slot has a worker *process* reached over a Unix
    /// socket, holding that slot's spillable blocks; process death is a
    /// real failure domain.
    Proc,
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "inproc" | "in-process" | "thread" => Ok(BackendKind::InProc),
            "proc" | "process" | "multiproc" => Ok(BackendKind::Proc),
            other => Err(format!("unknown backend {other:?}")),
        }
    }
}

/// A worker store snapshot, for tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// Blocks held by the worker.
    pub blocks: u64,
    /// Total encoded bytes of those blocks.
    pub bytes: u64,
    /// Incarnation the worker was spawned for.
    pub epoch: u64,
    /// OS pid of the worker process.
    pub pid: u64,
}

/// `SPANGLE_BACKEND` seeds the builder default (invalid values warn once
/// through the knob parser and fall back to in-process).
pub(crate) fn backend_kind_from_env() -> BackendKind {
    env_parse::<BackendKind>("SPANGLE_BACKEND").unwrap_or_default()
}

/// One live worker connection: a locked writer for requests, a reader
/// thread routing replies by request id and stamping keepalives into the
/// health board.
struct Session {
    writer: Mutex<UnixStream>,
    pending: Mutex<HashMap<u64, Sender<ReplyBody>>>,
    /// Latched by the reader on EOF / torn frame, and by a failed write.
    /// A dead session fails calls immediately; it never kills the slot —
    /// loss detection is the health monitor's job, driven purely by
    /// heartbeat age.
    dead: AtomicBool,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Session {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        // Dropping the senders disconnects every waiting call.
        self.pending.lock().clear();
    }

    /// Writes one frame; a failed write latches the session dead.
    fn send(&self, frame: &Frame) -> bool {
        let sent =
            !self.dead.load(Ordering::SeqCst) && wire::write_frame(&self.writer, frame).is_ok();
        if !sent {
            self.mark_dead();
        }
        sent
    }

    /// Sends `frame` (a request) and waits for its reply, polling the
    /// dead latch and the calling task's cancellation between channel
    /// timeouts. `None` means the worker is unreachable. A cancelled task
    /// unwinds with [`CancelledError`].
    fn call(&self, req_id: u64, frame: &Frame) -> Option<ReplyBody> {
        let (tx, rx) = unbounded();
        self.pending.lock().insert(req_id, tx);
        if !self.send(frame) {
            return None;
        }
        let deadline = Instant::now() + CALL_DEADLINE;
        loop {
            match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(reply) => return Some(reply),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    let cancelled = executor::is_task_cancelled();
                    if cancelled || self.dead.load(Ordering::SeqCst) || Instant::now() > deadline {
                        self.pending.lock().remove(&req_id);
                        if cancelled {
                            std::panic::panic_any(CancelledError);
                        }
                        return None;
                    }
                }
            }
        }
    }
}

/// How one executor slot is served.
enum SlotMode {
    /// A real worker process (the child handle is kept for reaping and
    /// for the `SIGKILL` test hook).
    Remote {
        child: std::process::Child,
        session: Arc<Session>,
    },
    /// Degraded: past the worker cap, or the worker binary is
    /// unavailable. The slot's blocks stay in the driver, and the stamper
    /// thread keeps its heartbeats fresh so loss detection never fires on
    /// it.
    Local,
}

struct SlotState {
    epoch: u64,
    mode: SlotMode,
}

/// The worker processes of a [`BackendKind::Proc`] context.
pub(crate) struct ProcBackend {
    dir: std::path::PathBuf,
    socket: std::path::PathBuf,
    listener: Mutex<UnixListener>,
    /// Accepted connections whose `Hello` named a different slot than the
    /// spawner waiting on the listener (concurrent respawns): parked here
    /// for the right spawner to claim.
    parked: Mutex<Vec<(u64, u64, UnixStream)>>,
    slots: Vec<Mutex<SlotState>>,
    board: Arc<HealthBoard>,
    /// Which slots the stamper thread covers (the Local ones); shared
    /// with that thread and flipped on spawn/degrade transitions.
    local_flags: Arc<Vec<AtomicBool>>,
    /// Keepalive spacing passed to workers (half the heartbeat interval,
    /// clamped like the in-process heartbeater's step).
    keepalive: Duration,
    worker_bin: Option<std::path::PathBuf>,
    max_workers: usize,
    next_req: AtomicU64,
    stop: Arc<AtomicBool>,
    stamper: Mutex<Option<std::thread::JoinHandle<()>>>,
    shut_down: AtomicBool,
}

/// How long a spawner waits for a fresh worker's `Hello` before declaring
/// the spawn failed and degrading the slot.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);

/// Hard ceiling on one worker call; real waits end far earlier through
/// cancellation or the dead-session latch.
const CALL_DEADLINE: Duration = Duration::from_secs(600);

/// How long a task waits on its own unreachable worker for the health
/// plane to notice before failing outright. Generous: this ceiling is
/// only reached on the degraded ladder rung where health monitoring is
/// disabled and nobody will ever declare the slot lost.
const OWN_WORKER_DEADLINE: Duration = Duration::from_secs(30);

impl ProcBackend {
    pub(crate) fn start(
        executors: usize,
        board: Arc<HealthBoard>,
        heartbeat_interval: Duration,
    ) -> Self {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spangle-proc-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("failed to create backend socket dir");
        let socket = dir.join("driver.sock");
        let listener = UnixListener::bind(&socket).expect("failed to bind backend socket");
        listener
            .set_nonblocking(true)
            .expect("failed to configure backend socket");

        let worker_bin = find_worker_bin();
        if worker_bin.is_none() {
            warn_once(
                "spangle: SPANGLE_BACKEND=proc but no spangle_worker binary found \
                 (set SPANGLE_WORKER_BIN); keeping every block in the driver",
            );
        }
        let max_workers = env_parse::<usize>("SPANGLE_PROC_MAX_WORKERS").unwrap_or(executors);
        let keepalive =
            (heartbeat_interval / 2).clamp(Duration::from_millis(1), Duration::from_millis(50));

        let backend = ProcBackend {
            dir,
            socket,
            listener: Mutex::new(listener),
            parked: Mutex::new(Vec::new()),
            slots: (0..executors)
                .map(|_| {
                    Mutex::new(SlotState {
                        epoch: 0,
                        mode: SlotMode::Local,
                    })
                })
                .collect(),
            board,
            local_flags: Arc::new((0..executors).map(|_| AtomicBool::new(true)).collect()),
            keepalive,
            worker_bin,
            max_workers,
            next_req: AtomicU64::new(1),
            stop: Arc::new(AtomicBool::new(false)),
            stamper: Mutex::new(None),
            shut_down: AtomicBool::new(false),
        };

        // Eager spawn: loss detection exempts idle slots, so a slot must
        // have a keepalive source from the start — a lazily spawned
        // worker would leave long tasks on a silent slot looking dead.
        // Slots past the cap (or with no binary) stay Local.
        if backend.worker_bin.is_some() {
            for slot in 0..executors.min(backend.max_workers) {
                let mut state = backend.slots[slot].lock();
                backend.spawn_into(&mut state, slot, 0);
            }
        }
        backend.start_stamper();
        backend
    }

    /// The stamper covers Local slots (and only those): they have no
    /// worker process, so without it the health monitor would declare
    /// them lost under any task longer than the loss threshold.
    fn start_stamper(&self) {
        let board = Arc::clone(&self.board);
        let stop = Arc::clone(&self.stop);
        let local_flags = Arc::clone(&self.local_flags);
        let step = self.keepalive;
        let handle = std::thread::Builder::new()
            .name("spangle-proc-stamper".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    for (slot, flag) in local_flags.iter().enumerate() {
                        if flag.load(Ordering::SeqCst) {
                            board.stamp_heartbeat(slot);
                        }
                    }
                    std::thread::sleep(step);
                }
            })
            .expect("failed to spawn backend stamper thread");
        self.stamper.lock().replace(handle);
    }

    /// Spawns a worker for `(slot, epoch)` into `state`; on any failure
    /// the slot degrades to Local (and the stamper covers it).
    fn spawn_into(&self, state: &mut SlotState, slot: usize, epoch: u64) {
        state.epoch = epoch;
        let Some(bin) = &self.worker_bin else {
            self.set_local(state, slot);
            return;
        };
        let child = std::process::Command::new(bin)
            .arg(&self.socket)
            .arg(slot.to_string())
            .arg(epoch.to_string())
            .arg(self.keepalive.as_millis().to_string())
            .stdin(std::process::Stdio::null())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                warn_once(&format!(
                    "spangle: failed to spawn worker process ({e}); degrading to in-driver slots"
                ));
                self.set_local(state, slot);
                return;
            }
        };
        match self.accept_hello(slot as u64, epoch) {
            Some(stream) => {
                let session = self.install_session(slot, stream);
                state.mode = SlotMode::Remote { child, session };
                self.local_flags[slot].store(false, Ordering::SeqCst);
            }
            None => {
                let _ = child.kill();
                let _ = child.wait();
                warn_once(&format!(
                    "spangle: worker for slot {slot} never said hello; degrading the slot"
                ));
                self.set_local(state, slot);
            }
        }
    }

    fn set_local(&self, state: &mut SlotState, slot: usize) {
        state.mode = SlotMode::Local;
        self.local_flags[slot].store(true, Ordering::SeqCst);
        // A fresh heartbeat keeps the just-degraded slot from being
        // instantly declared lost before the stamper's next pass.
        self.board.stamp_heartbeat(slot);
    }

    /// Accepts connections until the `Hello` for `(slot, epoch)` arrives
    /// (checking the parked list first), with seeded backoff between
    /// polls. Hellos for *other* slots are parked for their spawners.
    fn accept_hello(&self, slot: u64, epoch: u64) -> Option<UnixStream> {
        let deadline = Instant::now() + SPAWN_DEADLINE;
        let mut attempt = 0usize;
        loop {
            {
                let mut parked = self.parked.lock();
                if let Some(idx) = parked
                    .iter()
                    .position(|(s, e, _)| *s == slot && *e == epoch)
                {
                    return Some(parked.swap_remove(idx).2);
                }
            }
            let accepted = self.listener.lock().accept();
            match accepted {
                Ok((stream, _)) => {
                    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
                    let mut reader = stream.try_clone().ok()?;
                    // Anything but a `Hello` on a fresh connection is a
                    // stranger and is dropped.
                    if let Ok(Frame::Hello { slot: s, epoch: e }) = wire::read_frame(&mut reader) {
                        stream.set_read_timeout(None).ok()?;
                        if s == slot && e == epoch {
                            return Some(stream);
                        }
                        // Someone else's worker: park it.
                        self.parked.lock().push((s, e, stream));
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline || self.stop.load(Ordering::SeqCst) {
                        return None;
                    }
                    attempt += 1;
                    std::thread::sleep(jittered_backoff(
                        Duration::from_millis(1),
                        Duration::from_millis(20),
                        attempt.min(8),
                        0x5EED_0C0D_u64 ^ slot ^ (epoch << 16) ^ attempt as u64,
                    ));
                }
                Err(_) => return None,
            }
        }
    }

    /// Wraps an accepted stream in a session and spawns its reader
    /// thread: replies route to waiting calls, keepalives stamp the
    /// health board, and connection death only latches the dead flag —
    /// deciding the *executor* is lost stays the health monitor's call.
    fn install_session(&self, slot: usize, stream: UnixStream) -> Arc<Session> {
        let mut read_half = stream.try_clone().expect("failed to clone worker stream");
        let session = Arc::new(Session {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            reader: Mutex::new(None),
        });
        let reader_session = Arc::downgrade(&session);
        let board = Arc::clone(&self.board);
        let handle = std::thread::Builder::new()
            .name(format!("spangle-worker-io-{slot}"))
            .spawn(move || loop {
                match wire::read_frame_with(&mut read_half, || board.stamp_heartbeat(slot)) {
                    Ok(Frame::Heartbeat { .. }) => board.stamp_heartbeat(slot),
                    Ok(Frame::Reply { req_id, body }) => {
                        if let Some(session) = reader_session.upgrade() {
                            if let Some(tx) = session.pending.lock().remove(&req_id) {
                                let _ = tx.send(body);
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        // EOF or torn frame: the connection is done. Fail
                        // the waiting calls and stop — no stamps, no
                        // kills; silence is the detection signal.
                        if let Some(session) = reader_session.upgrade() {
                            session.mark_dead();
                        }
                        return;
                    }
                }
            })
            .expect("failed to spawn worker io thread");
        session.reader.lock().replace(handle);
        session
    }

    /// The session serving `slot` right now, or `None` for Local slots.
    fn session_of(&self, slot: usize) -> Option<Arc<Session>> {
        match &self.slots.get(slot)?.lock().mode {
            SlotMode::Remote { session, .. } => Some(Arc::clone(session)),
            SlotMode::Local => None,
        }
    }

    /// Whether `slot` is served by a worker process (alive or not): the
    /// block store places the slot's spillable blocks there.
    pub(crate) fn hosts(&self, slot: usize) -> bool {
        self.session_of(slot).is_some()
    }

    /// Sends one request to `slot`'s worker and waits for the reply;
    /// `None` means the worker is unreachable or the slot is Local.
    ///
    /// On the slot's own executor thread an unreachable worker is not an
    /// answer: the task's own failure domain is gone, so it waits —
    /// cancellably, and without stamping the slot's heartbeat, which would
    /// hide the very death it waits on — until the health plane declares
    /// the slot lost. That kill cancels the task, which unwinds with
    /// [`CancelledError`] as an executor loss and replays on the
    /// replacement incarnation. A respawned worker answers the retry.
    fn call(&self, slot: usize, body: RequestBody) -> Option<ReplyBody> {
        let own = executor::current_slot() == Some(slot);
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::Request { req_id, body };
        let deadline = Instant::now() + OWN_WORKER_DEADLINE;
        loop {
            let session = self.session_of(slot)?;
            if let Some(reply) = session.call(req_id, &frame) {
                return Some(reply);
            }
            if !own {
                return None;
            }
            if executor::is_task_cancelled() {
                std::panic::panic_any(CancelledError);
            }
            if Instant::now() > deadline {
                panic!(
                    "worker process for executor {slot} unreachable and never declared \
                     lost (is health monitoring disabled?)"
                );
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stores `bytes` under `id` in `slot`'s worker; `false` when it could
    /// not (the slot degraded, or the call was not made from the slot's
    /// own executor and the worker is unreachable).
    pub(crate) fn put(&self, slot: usize, id: u64, bytes: Vec<u8>) -> bool {
        self.call(slot, RequestBody::Put { id, bytes }) == Some(ReplyBody::Stored)
    }

    /// The bytes stored under `id` in `slot`'s worker, or `None` when the
    /// worker no longer has them or cannot be reached.
    pub(crate) fn get(&self, slot: usize, id: u64) -> Option<Vec<u8>> {
        match self.call(slot, RequestBody::Get { id })? {
            ReplyBody::Block(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Drops worker copies `(slot, id)`, batched per slot, without waiting:
    /// each worker serves its frames in order, so any later request to it
    /// already sees them gone. Copies on unreachable workers died with
    /// them.
    pub(crate) fn remove(&self, copies: Vec<(usize, u64)>) {
        let mut per_slot: HashMap<usize, Vec<u64>> = HashMap::new();
        for (slot, id) in copies {
            per_slot.entry(slot).or_default().push(id);
        }
        for (slot, ids) in per_slot {
            if let Some(session) = self.session_of(slot) {
                session.send(&Frame::Request {
                    req_id: self.next_req.fetch_add(1, Ordering::Relaxed),
                    body: RequestBody::Remove { ids },
                });
            }
        }
    }

    /// Snapshot of `slot`'s worker, when it has a reachable one.
    pub(crate) fn stats(&self, slot: usize) -> Option<WorkerStats> {
        match self.call(slot, RequestBody::Stats)? {
            ReplyBody::Stats {
                blocks,
                bytes,
                epoch,
                pid,
            } => Some(WorkerStats {
                blocks,
                bytes,
                epoch,
                pid,
            }),
            _ => None,
        }
    }

    /// Called by `SpangleContext::kill_executor` after the pool seated a
    /// replacement incarnation: reap the dead worker and bring up a fresh
    /// one for `new_epoch`.
    pub(crate) fn on_executor_killed(&self, slot: usize, new_epoch: u64) {
        let mut state = self.slots[slot].lock();
        if let SlotMode::Remote { mut child, session } =
            std::mem::replace(&mut state.mode, SlotMode::Local)
        {
            session.mark_dead();
            let _ = child.kill();
            let _ = child.wait();
            if let Some(handle) = session.reader.lock().take() {
                let _ = handle.join();
            }
        }
        if self.shut_down.load(Ordering::SeqCst) {
            return;
        }
        if slot < self.max_workers {
            self.spawn_into(&mut state, slot, new_epoch);
        } else {
            // Capped slots stay in the driver across kills.
            state.epoch = new_epoch;
            self.set_local(&mut state, slot);
        }
    }

    /// OS pid of `slot`'s worker process, when one is running.
    pub(crate) fn worker_pid(&self, slot: usize) -> Option<u32> {
        match &self.slots[slot].lock().mode {
            SlotMode::Remote { child, .. } => Some(child.id()),
            SlotMode::Local => None,
        }
    }

    /// Test hook: `SIGKILL` the worker process of `slot` and tell no one.
    /// Signal only — no reaping, no session teardown, no respawn: the
    /// driver must *notice* through missed keepalives, exactly like a
    /// machine losing a process. Returns whether a process was signalled.
    pub(crate) fn sigkill_worker(&self, slot: usize) -> bool {
        match &mut self.slots[slot].lock().mode {
            SlotMode::Remote { child, .. } => child.kill().is_ok(),
            SlotMode::Local => false,
        }
    }

    /// Number of slots currently served by real worker processes.
    pub(crate) fn real_worker_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.lock().mode, SlotMode::Remote { .. }))
            .count()
    }

    /// Stops workers, joins session threads, removes sockets. Idempotent.
    fn shutdown(&self) {
        if self.shut_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for state in &self.slots {
            let mut state = state.lock();
            if let SlotMode::Remote { mut child, session } =
                std::mem::replace(&mut state.mode, SlotMode::Local)
            {
                // Ask politely (fire and forget), then make sure.
                session.send(&Frame::Request {
                    req_id: self.next_req.fetch_add(1, Ordering::Relaxed),
                    body: RequestBody::Shutdown,
                });
                let deadline = Instant::now() + Duration::from_millis(500);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
                session.mark_dead();
                // Closing our end unblocks the reader thread's read.
                let _ = session.writer.lock().shutdown(std::net::Shutdown::Both);
                if let Some(handle) = session.reader.lock().take() {
                    let _ = handle.join();
                }
            }
        }
        if let Some(handle) = self.stamper.lock().take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for ProcBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Finds the worker binary: `SPANGLE_WORKER_BIN`, else next to the
/// current executable (`target/<profile>/spangle_worker`, probing a few
/// ancestor directories to cover test executables under `deps/`).
fn find_worker_bin() -> Option<std::path::PathBuf> {
    if let Some(path) = std::env::var_os("SPANGLE_WORKER_BIN") {
        let path = std::path::PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
        warn_once(&format!(
            "spangle: SPANGLE_WORKER_BIN={path:?} does not exist; trying discovery"
        ));
    }
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1).take(4) {
        let candidate = dir.join("spangle_worker");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// Prints `msg` to stderr once per distinct message per process.
fn warn_once(msg: &str) {
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static SEEN: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(HashSet::new()));
    if seen.lock().insert(msg.to_string()) {
        eprintln!("{msg}");
    }
}
