//! The TCP front door: accept loop, per-connection reader/writer pairs,
//! quotas, graceful drain, and wire-triggered index reload.
//!
//! # Threading model
//!
//! One accept thread blocks in `accept` on the listener; nothing on the
//! connection lifecycle runs on a timer. Whoever begins a drain or a
//! shutdown wakes that thread once with a loopback connection to the
//! server's own address, which is dropped without being counted or
//! served. Each accepted
//! connection gets a **reader** thread (parses frames, enforces quotas,
//! submits batches) and a **writer** thread (the only thread that ever
//! writes to the socket). The reader blocks in `read` and exits on EOF —
//! the client hanging up, or [`Server::shutdown`] shutting down the read
//! half of the socket. The two communicate over an in-process
//! channel of `Work` items, so responses are written strictly in
//! request order per connection while the service computes many batches
//! concurrently — the reader keeps submitting (pipelining) while the
//! writer blocks on the oldest [`BatchTicket`]. Clients correlate by
//! `request_id` and must not assume cross-connection ordering.
//!
//! # Graceful drain
//!
//! [`Server::drain`] (or a wire `DRAIN` frame, or SIGTERM in the
//! `reach-served` binary) flips the draining flag and wakes the accept
//! thread, which exits: new QUERY/WITNESS/RELOAD frames are answered with
//! `SHUTTING_DOWN`, while every batch already ticketed completes and its
//! response is written. [`Server::shutdown`] then joins everything and
//! asserts the serving ledger (`submitted == answered + rejected +
//! shed`) via [`QueryService::shutdown`].

use std::io::Write;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reach_index::{storage, CompressedIndex, IndexSource, MmapIndex};
use reach_serve::{BatchOptions, BatchTicket, Priority, QueryService, ServeConfig};

use crate::quota::{QuotaConfig, TokenBucket};
use crate::wire::{self, opcode, ErrorCode, Frame, FrameReader, Polled, ReadError, WireStats};

/// Pause after a failed `accept` (EMFILE and friends), so a persistent
/// error cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Bound on the self-connect that wakes the accept thread. Loopback
/// connects complete or are refused at once; only a full backlog makes
/// one wait, and then the accept thread has connections to wake it.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How the server materializes a `.ridx` file — at startup (the
/// `reach-served` binary's `--compressed` / `--mmap` flags) and on
/// every wire-triggered RELOAD.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexMode {
    /// Decode fully into an in-memory [`reach_index::ReachIndex`]
    /// shared by every worker (v1 or v2 files).
    #[default]
    Ram,
    /// Hold the v2 image in memory in its compressed form and answer
    /// through streaming cursors (requires a v2 file).
    Compressed,
    /// Memory-map the v2 file and serve out-of-core: the index may
    /// exceed RAM (requires a v2 file).
    Mmap,
}

impl IndexMode {
    /// Loads `path` in this mode as a shareable [`IndexSource`].
    pub fn load(self, path: &Path) -> Result<Arc<dyn IndexSource>, storage::StorageError> {
        Ok(match self {
            IndexMode::Ram => Arc::new(storage::load_index(path)?),
            IndexMode::Compressed => Arc::new(CompressedIndex::load(path)?),
            IndexMode::Mmap => Arc::new(MmapIndex::open(path)?),
        })
    }

    /// Stable lowercase name (logs and startup banner).
    pub fn name(self) -> &'static str {
        match self {
            IndexMode::Ram => "ram",
            IndexMode::Compressed => "compressed",
            IndexMode::Mmap => "mmap",
        }
    }
}

/// Configuration of a [`Server`] (see `docs/OPERATIONS.md` for the
/// operator-facing description of every knob).
#[derive(Clone, Debug)]
pub struct ServedConfig {
    /// The wrapped [`QueryService`] configuration — workers, queue
    /// bounds, cache, deadlines, resilience, degradation.
    pub serve: ServeConfig,
    /// Per-connection quotas (in-flight window, batch cap, rate bucket).
    pub quota: QuotaConfig,
    /// Payload-size cap per frame; larger frames are rejected fatally.
    pub max_frame: u32,
    /// Default path a path-less RELOAD frame reloads from — normally the
    /// index the server was started with.
    pub reload_path: Option<PathBuf>,
    /// How RELOAD materializes the file it loads — kept consistent with
    /// the startup mode so a reload cannot silently change the serving
    /// form (and its memory footprint).
    pub index_mode: IndexMode,
}

impl Default for ServedConfig {
    fn default() -> Self {
        ServedConfig {
            serve: ServeConfig::default(),
            quota: QuotaConfig::default(),
            max_frame: wire::DEFAULT_MAX_FRAME,
            reload_path: None,
            index_mode: IndexMode::Ram,
        }
    }
}

/// Response-side work for a connection's writer thread.
enum Work {
    /// A pre-encoded frame to write as-is.
    Frame(Vec<u8>),
    /// A pending batch: wait the ticket, then write QUERY_OK or a typed
    /// error. `received` timestamps the request frame's parse, for the
    /// `served.request_ns` histogram.
    Query {
        request_id: u64,
        ticket: BatchTicket,
        received: Instant,
    },
    /// A fatal error frame: write it, then close the connection.
    Fatal(Vec<u8>),
}

/// State shared by the accept loop, every connection, and the handle.
struct Shared {
    svc: QueryService,
    cfg: ServedConfig,
    /// Where a self-connect reaches the listener (see [`wake_addr`]).
    wake_addr: SocketAddr,
    /// Set once: stop admitting new wire work (drain in progress).
    draining: AtomicBool,
    /// Set once: tear everything down (readers exit after the frame in
    /// hand; [`Server::shutdown`] ends their blocked reads).
    stop: AtomicBool,
    /// Open connections. `changed` is notified whenever the count falls
    /// or `draining` flips; whoever flips the flag takes this lock before
    /// notifying, so a waiter cannot read the flag and then miss the
    /// wake-up.
    open: Mutex<u64>,
    changed: Condvar,
    /// Live connections: the reader thread's handle (it joins its own
    /// writer and returns both threads' obs recording) and a clone of its
    /// socket, for [`Server::shutdown`] to end the blocked read with.
    /// The accept thread reaps finished entries.
    conns: Mutex<Vec<Conn>>,
}

type Conn = (JoinHandle<reach_obs::WorkerMetrics>, TcpStream);

impl Shared {
    /// Flips the draining flag. The call that flips it wakes the accept
    /// thread and everyone blocked in `wait_drained` / `wait_draining`,
    /// and returns `true`.
    fn begin_drain(&self) -> bool {
        if self.draining.swap(true, Ordering::SeqCst) {
            return false;
        }
        // Refused when the accept thread is already gone; either way
        // there is nobody left to wake.
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        let _open = self.open();
        self.changed.notify_all();
        true
    }

    /// A requested drain — [`Server::drain`] or a wire DRAIN frame — as
    /// opposed to the one [`Server::shutdown`] implies.
    fn drain(&self) {
        if self.begin_drain() {
            reach_obs::counter_add("served.drains", 1);
        }
    }

    /// The open-connection count, locked.
    fn open(&self) -> MutexGuard<'_, u64> {
        // Held only to add, subtract or wait: a panic cannot poison it.
        self.open.lock().expect("open-connection count lock")
    }
}

/// The loopback address that reaches a listener bound to `bound`: an
/// unspecified bind address (`0.0.0.0`, `::`) is not connectable, its
/// family's localhost is.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// A running wire server around a [`QueryService`]. Start with
/// [`Server::start`], stop with [`Server::shutdown`] (which asserts the
/// serving ledger). See the module docs for the threading and drain
/// model.
pub struct Server {
    inner: Arc<Shared>,
    accept: Option<JoinHandle<reach_obs::WorkerMetrics>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), starts
    /// the inner [`QueryService`] on `index`, and begins accepting
    /// connections. Serves exactly as [`Server::start_with_source`] does
    /// — the workers share `index` itself — and additionally keeps the
    /// decoded form reachable through
    /// [`QueryService::index_tagged`].
    pub fn start(
        index: Arc<reach_index::ReachIndex>,
        cfg: ServedConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let svc = QueryService::start(index, cfg.serve.clone());
        Server::start_with_service(svc, cfg, addr)
    }

    /// Like [`Server::start`], but serving any [`IndexSource`] — a
    /// compressed in-heap image or an mmap-backed file larger than RAM
    /// (the `reach-served` binary's `--compressed` / `--mmap` modes).
    pub fn start_with_source(
        source: Arc<dyn IndexSource>,
        cfg: ServedConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let svc = QueryService::start_with_source(source, cfg.serve.clone());
        Server::start_with_service(svc, cfg, addr)
    }

    fn start_with_service(
        svc: QueryService,
        cfg: ServedConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Shared {
            svc,
            cfg,
            wake_addr: wake_addr(addr),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            open: Mutex::new(0),
            changed: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("reach-served-accept".into())
                .spawn(move || reach_obs::scoped_worker(|| accept_loop(&inner, listener)).1)
                .expect("spawn accept thread")
        };
        Ok(Server {
            inner,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the wrapped service — tests use it to stage
    /// in-flight work ([`QueryService::pause`]) and to hot-swap without
    /// going through the wire.
    pub fn service(&self) -> &QueryService {
        &self.inner.svc
    }

    /// Begins a graceful drain: the listener stops accepting, new wire
    /// work is rejected with `SHUTTING_DOWN`, in-flight batches complete
    /// and their responses are written. Idempotent.
    pub fn drain(&self) {
        self.inner.drain();
    }

    /// Whether a drain has begun (locally or via a wire DRAIN frame).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Open client connections right now.
    pub fn active_connections(&self) -> u64 {
        *self.inner.open()
    }

    /// Blocks until a drain has begun, locally or via a wire DRAIN frame.
    pub fn wait_draining(&self) {
        let _open = self
            .inner
            .changed
            .wait_while(self.inner.open(), |_| !self.is_draining())
            .expect("open-connection count lock");
    }

    /// Blocks until a begun drain has quiesced — every connection closed
    /// — or `timeout` elapsed. Returns `true` when fully quiesced.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let open = self.inner.open();
        let (_open, wait) = self
            .inner
            .changed
            .wait_timeout_while(open, timeout, |open| !self.is_draining() || *open > 0)
            .expect("open-connection count lock");
        !wait.timed_out()
    }

    /// Tears the server down: stops accepting, unblocks every
    /// connection (in-flight responses are still written), joins all
    /// threads, folds their obs recordings into the calling thread, and
    /// shuts the inner service down — which asserts the
    /// `submitted == answered + rejected + shed` ledger.
    pub fn shutdown(mut self) -> reach_serve::ServeStats {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.begin_drain();
        if let Some(metrics) = self.accept.take().and_then(|h| h.join().ok()) {
            reach_obs::merge_worker(metrics);
        }
        // With the accept thread joined nothing adds to `conns`. A reader
        // blocked in `read` sees EOF on the shut-down half, drops its end
        // of the work channel, and its writer flushes what was queued.
        let conns = std::mem::take(&mut *self.inner.conns.lock().expect("connection list lock"));
        for (_, stream) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (handle, _) in conns {
            if let Ok(metrics) = handle.join() {
                reach_obs::merge_worker(metrics);
            }
        }
        let Server { inner, .. } = self;
        match Arc::try_unwrap(inner) {
            Ok(shared) => shared.svc.shutdown(),
            // Unreachable with every thread joined; keep a safe fallback
            // rather than a panic in teardown.
            Err(arc) => arc.svc.stats(),
        }
    }
}

/// Blocks in `accept` until stop/drain, spawning a connection thread per
/// accept. The flags are read after every return from `accept`, so the
/// self-connect from [`Shared::begin_drain`] — or a client that raced it —
/// is dropped unserved and uncounted.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return;
        }
        // The clone is `Server::shutdown`'s handle on the blocked read; a
        // connection that cannot have one (EMFILE) is not taken on.
        let accepted = accepted.and_then(|(stream, _peer)| Ok((stream.try_clone()?, stream)));
        match accepted {
            Ok((clone, stream)) => {
                reach_obs::counter_add("served.connections", 1);
                *shared.open() += 1;
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("reach-served-conn".into())
                    .spawn(move || {
                        let ((), metrics) =
                            reach_obs::scoped_worker(|| connection_loop(&conn_shared, stream));
                        *conn_shared.open() -= 1;
                        conn_shared.changed.notify_all();
                        metrics
                    })
                    .expect("spawn connection thread");
                let mut conns = shared.conns.lock().expect("connection list lock");
                conns.push((handle, clone));
                reap(&mut conns);
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Joins every finished connection thread — folding its obs recording
/// into the accept thread's own, and closing the socket clone — so
/// `conns` holds the live connections only however many have come and
/// gone.
fn reap(conns: &mut Vec<Conn>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].0.is_finished() {
            let (handle, _stream) = conns.swap_remove(i);
            if let Ok(metrics) = handle.join() {
                reach_obs::merge_worker(metrics);
            }
        } else {
            i += 1;
        }
    }
}

/// One connection's reader: parse frames, enforce quotas, dispatch, and
/// feed the writer. Exits on EOF (the client's, or the read-half
/// shutdown from [`Server::shutdown`]), fatal framing, socket error, or
/// server stop; always joins its writer before returning.
fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            // Dropping `stream` would not close it: `conns` holds a clone.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let (tx, rx) = std::sync::mpsc::channel::<Work>();
    let inflight = Arc::new(AtomicU32::new(0));
    let writer = {
        let inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name("reach-served-write".into())
            .spawn(move || {
                let ((), metrics) =
                    reach_obs::scoped_worker(|| writer_loop(write_half, rx, &inflight));
                metrics
            })
            .expect("spawn connection writer")
    };

    let mut reader = FrameReader::new(shared.cfg.max_frame);
    let mut bucket = shared.cfg.quota.queries_per_sec.map(TokenBucket::new);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.poll(&mut stream) {
            Ok(Polled::Frame(frame)) => {
                reach_obs::counter_add("served.frames.in", 1);
                reach_obs::counter_add(
                    "served.bytes.in",
                    (wire::HEADER_LEN + frame.payload.len()) as u64,
                );
                if !handle_frame(shared, &tx, &inflight, &mut bucket, frame) {
                    break;
                }
            }
            // EOF — clean between frames or a mid-frame disconnect; both
            // simply end the connection (there is nobody to answer).
            Err(ReadError::Eof { .. }) => break,
            Err(ReadError::Fatal { code, request_id }) => {
                reach_obs::counter_add("served.errors", 1);
                let msg = format!("fatal framing error: {code:?}");
                let _ = tx.send(Work::Fatal(wire::error_frame(request_id, code, &msg)));
                break;
            }
            // The socket has no read timeout, so `Pending` cannot come
            // back; were it to, it is a socket that cannot be read.
            Ok(Polled::Pending) | Err(ReadError::Io(_)) => break,
        }
    }
    drop(tx);
    if let Ok(metrics) = writer.join() {
        reach_obs::merge_worker(metrics);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Dispatches one parsed frame. Returns `false` when the connection must
/// close (a fatal response was queued).
fn handle_frame(
    shared: &Shared,
    tx: &Sender<Work>,
    inflight: &AtomicU32,
    bucket: &mut Option<TokenBucket>,
    frame: Frame,
) -> bool {
    let id = frame.request_id;
    let send_err = |code: ErrorCode, msg: &str| {
        reach_obs::counter_add("served.errors", 1);
        let _ = tx.send(Work::Frame(wire::error_frame(id, code, msg)));
    };
    match frame.opcode {
        opcode::QUERY => {
            let received = Instant::now();
            let req = match wire::decode_batch(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    send_err(ErrorCode::BadPayload, e.0);
                    return true;
                }
            };
            if let Some(msg) = check_batch_quotas(shared, inflight, bucket, req.pairs.len()) {
                send_err(msg.0, msg.1);
                return true;
            }
            if shared.draining.load(Ordering::SeqCst) {
                send_err(ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            let opts = BatchOptions {
                deadline: (req.deadline_ms > 0)
                    .then(|| Duration::from_millis(u64::from(req.deadline_ms))),
                priority: wire_priority(req.priority),
            };
            reach_obs::counter_add("served.queries", req.pairs.len() as u64);
            match shared.svc.submit_batch_opts(&req.pairs, opts) {
                Ok(ticket) => {
                    inflight.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(Work::Query {
                        request_id: id,
                        ticket,
                        received,
                    });
                }
                Err(e) => {
                    let (code, msg) = ErrorCode::from_serve_error(&e);
                    send_err(code, &msg);
                }
            }
        }
        opcode::WITNESS => {
            let req = match wire::decode_batch(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    send_err(ErrorCode::BadPayload, e.0);
                    return true;
                }
            };
            if let Some(msg) = check_batch_quotas(shared, inflight, bucket, req.pairs.len()) {
                send_err(msg.0, msg.1);
                return true;
            }
            if shared.draining.load(Ordering::SeqCst) {
                send_err(ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            // One atomic epoch snapshot: the backing and the generation
            // tag cannot straddle a concurrent reload. source_tagged()
            // works for every index mode (ram, compressed, mmap).
            let (idx, generation) = shared.svc.source_tagged();
            let n = idx.num_vertices();
            if let Some(&(s, t)) = req
                .pairs
                .iter()
                .find(|&&(s, t)| s as usize >= n || t as usize >= n)
            {
                let bad = if s as usize >= n { s } else { t };
                send_err(
                    ErrorCode::InvalidVertex,
                    &format!("invalid vertex {bad}: index covers {n} vertices"),
                );
                return true;
            }
            reach_obs::counter_add("served.witness.queries", req.pairs.len() as u64);
            let witnesses: Vec<_> = req
                .pairs
                .iter()
                .map(|&(s, t)| idx.query_witness(s, t))
                .collect();
            let payload = wire::encode_witness_ok(generation, &witnesses);
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::WITNESS_OK, id, payload).encode(),
            ));
        }
        opcode::RELOAD => {
            let path = match wire::decode_reload(&frame.payload) {
                Ok(p) => p,
                Err(e) => {
                    send_err(ErrorCode::BadPayload, e.0);
                    return true;
                }
            };
            if shared.draining.load(Ordering::SeqCst) {
                send_err(ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            let path: PathBuf = if path.is_empty() {
                match &shared.cfg.reload_path {
                    Some(p) => p.clone(),
                    None => {
                        send_err(
                            ErrorCode::ReloadFailed,
                            "empty reload path and no startup index path configured",
                        );
                        return true;
                    }
                }
            } else {
                PathBuf::from(path)
            };
            // Reload in the server's configured index mode. Every mode
            // installs one shared `IndexSource`; a ram-mode server goes
            // through `try_swap_index` so the decoded index stays
            // inspectable through `index_tagged` after the reload.
            let mode = shared.cfg.index_mode;
            let load_err = |e: storage::StorageError| {
                (
                    ErrorCode::ReloadFailed,
                    format!("cannot load {}: {e}", path.display()),
                )
            };
            let swap_err = |e: reach_serve::ServeError| ErrorCode::from_serve_error(&e);
            let swapped: Result<u64, (ErrorCode, String)> = match mode {
                IndexMode::Ram => storage::load_index(&path)
                    .map_err(load_err)
                    .and_then(|idx| shared.svc.try_swap_index(Arc::new(idx)).map_err(swap_err)),
                IndexMode::Compressed | IndexMode::Mmap => mode
                    .load(&path)
                    .map_err(load_err)
                    .and_then(|src| shared.svc.try_swap_source(src).map_err(swap_err)),
            };
            match swapped {
                Ok(generation) => {
                    reach_obs::counter_add("served.reloads", 1);
                    let payload = wire::encode_reload_ok(generation);
                    let _ = tx.send(Work::Frame(
                        Frame::new(opcode::RELOAD_OK, id, payload).encode(),
                    ));
                }
                Err((code, msg)) => send_err(code, &msg),
            }
        }
        opcode::DRAIN => {
            shared.drain();
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::DRAIN_OK, id, Vec::new()).encode(),
            ));
        }
        opcode::PING => {
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::PONG, id, Vec::new()).encode(),
            ));
        }
        opcode::STATS => {
            let s = shared.svc.stats();
            let stats = WireStats {
                generation: s.generation,
                submitted: s.submitted,
                answered: s.answered,
                rejected: s.rejected(),
                shed: s.shed,
                cache_hits: s.cache_hits,
                cache_misses: s.cache_misses,
                swaps: s.swaps,
                connections: *shared.open(),
            };
            let payload = wire::encode_stats_ok(&stats);
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::STATS_OK, id, payload).encode(),
            ));
        }
        other => {
            send_err(
                ErrorCode::UnknownOpcode,
                &format!(
                    "opcode 0x{other:02x} unknown to protocol version {}",
                    wire::VERSION
                ),
            );
        }
    }
    true
}

/// The quota gauntlet shared by QUERY and WITNESS: batch-size cap, the
/// in-flight window, then the rate bucket. Returns the rejection to send,
/// if any.
fn check_batch_quotas(
    shared: &Shared,
    inflight: &AtomicU32,
    bucket: &mut Option<TokenBucket>,
    batch_len: usize,
) -> Option<(ErrorCode, &'static str)> {
    let quota = &shared.cfg.quota;
    if batch_len > quota.max_batch as usize {
        return Some((
            ErrorCode::BatchTooLarge,
            "batch exceeds the per-frame query cap",
        ));
    }
    if inflight.load(Ordering::SeqCst) >= quota.max_inflight {
        reach_obs::counter_add("served.quota.rejected", 1);
        return Some((
            ErrorCode::QuotaExceeded,
            "per-connection in-flight window exhausted",
        ));
    }
    if let Some(bucket) = bucket {
        if !bucket.try_take(batch_len as u32) {
            reach_obs::counter_add("served.quota.rejected", 1);
            return Some((
                ErrorCode::QuotaExceeded,
                "per-connection query-rate budget exhausted",
            ));
        }
    }
    None
}

/// Maps the wire priority byte (already validated by the decoder).
fn wire_priority(p: u8) -> Priority {
    match p {
        wire::priority::LOW => Priority::Low,
        wire::priority::HIGH => Priority::High,
        _ => Priority::Normal,
    }
}

/// The writer: the single thread allowed to write this connection's
/// socket. Processes work strictly in order; a write failure or a fatal
/// frame ends the connection (remaining tickets are dropped — their
/// batches still complete server-side and stay correctly accounted).
fn writer_loop(mut stream: TcpStream, rx: Receiver<Work>, inflight: &AtomicU32) {
    let mut write = |bytes: &[u8]| -> bool {
        let ok = stream
            .write_all(bytes)
            .and_then(|()| stream.flush())
            .is_ok();
        if ok {
            reach_obs::counter_add("served.frames.out", 1);
            reach_obs::counter_add("served.bytes.out", bytes.len() as u64);
        }
        ok
    };
    for work in rx {
        match work {
            Work::Frame(bytes) => {
                if !write(&bytes) {
                    break;
                }
            }
            Work::Query {
                request_id,
                ticket,
                received,
            } => {
                let frame = match ticket.wait_tagged() {
                    Ok((answers, generation)) => Frame::new(
                        opcode::QUERY_OK,
                        request_id,
                        wire::encode_query_ok(generation, &answers),
                    )
                    .encode(),
                    Err(e) => {
                        reach_obs::counter_add("served.errors", 1);
                        let (code, msg) = ErrorCode::from_serve_error(&e);
                        wire::error_frame(request_id, code, &msg)
                    }
                };
                inflight.fetch_sub(1, Ordering::SeqCst);
                let ok = write(&frame);
                reach_obs::record("served.request_ns", received.elapsed().as_nanos() as u64);
                if !ok {
                    break;
                }
            }
            Work::Fatal(bytes) => {
                let _ = write(&bytes);
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Response, WireClient};

    #[test]
    fn wake_addr_maps_unspecified_to_localhost() {
        for (bound, wake) in [
            ("0.0.0.0:7411", "127.0.0.1:7411"),
            ("[::]:7411", "[::1]:7411"),
            ("10.1.2.3:9", "10.1.2.3:9"),
            ("127.0.0.1:80", "127.0.0.1:80"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
    }

    #[test]
    fn finished_connections_are_reaped_not_hoarded() {
        let g = reach_datasets::generators::hierarchy(12, 24, 0.9, 5);
        let index = reach_serve::testing::closure_index(&g);
        let server = Server::start(index, ServedConfig::default(), "127.0.0.1:0").unwrap();
        let mut keep = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(keep.call_ping().unwrap(), Response::Pong);

        // A connection thread counts as finished a moment after its client
        // hangs up, so the accept that follows may find it still winding
        // down: the list is bounded by the live connection plus those few
        // stragglers, not by how many have come and gone.
        let mut longest = 0;
        for _ in 0..1_000 {
            let mut client = WireClient::connect(server.local_addr()).unwrap();
            assert_eq!(client.call_ping().unwrap(), Response::Pong);
            longest = longest.max(server.inner.conns.lock().unwrap().len());
        }
        assert!(longest <= 32, "{longest} connections kept of 1 000 closed");

        drop(keep);
        // Under `--features obs` a reaped thread's recording rides the
        // accept thread's to `shutdown`; none is lost with its handle.
        // (Scoped, so only this server's counters are in the snapshot.)
        reach_obs::scoped_worker(|| {
            assert!(server.shutdown().is_balanced());
            if let Some(snapshot) = reach_obs::snapshot() {
                assert_eq!(snapshot.counter("served.connections"), 1_001);
                assert_eq!(snapshot.counter("served.frames.out"), 1_001);
            }
        });
    }
}
