//! The multi-threaded query service: worker pool, bounded per-worker
//! queues, batch tickets, deadlines, and the result cache.
//!
//! # Lifecycle
//!
//! [`QueryService::start`] (or [`QueryService::start_with_source`])
//! puts an `Arc`-shared [`IndexSource`] behind the epoch slot — no
//! label is copied — and spawns the worker threads, each with its own
//! queue; a query is routed to queue `s % workers`. Submitters
//! call [`QueryService::reachable`] / [`QueryService::submit_batch`] (or
//! the non-blocking [`QueryService::submit_batch_async`], which returns a
//! [`BatchTicket`]); [`QueryService::shutdown`] closes the queues, lets
//! the workers drain every admitted batch (nothing is silently dropped),
//! joins them, and folds their `reach-obs` recordings into the calling
//! thread.
//!
//! # Determinism
//!
//! Answers are computed from an immutable label store, each query's
//! result is written to its submission position, and a batch completes
//! only when every sub-batch has. Worker count, scheduling, and cache
//! state therefore cannot change any answer — the property the
//! `service_determinism` proptest pins across graphs × seeds × thread
//! counts, with and without the cache.
//!
//! # Hot-swap
//!
//! [`QueryService::swap_index`] installs a rebuilt index behind a
//! generation-tagged [`Swappable`] slot — one `Arc` store, whatever the
//! backing — without draining anything:
//! in-flight batches keep the epoch they pinned, queued batches pin the
//! current epoch at **first worker pickup** (raced sub-batches agree via
//! a `OnceLock`), and the result cache keys on the generation so one
//! epoch's answers can never satisfy another's probes. Every batch is
//! therefore answered entirely by a single index — the no-torn-batches
//! property `tests/hot_swap.rs` pins differentially against
//! `ReachIndex::query` on the pinned generation.
//!
//! # Resilience
//!
//! With [`ServeConfig::resilience`] set, workers run under the
//! [`supervisor`](crate::supervisor): heartbeats, crash detection,
//! exactly-once requeue of a dead worker's in-flight sub-batch, and
//! respawn — optionally under a seeded
//! [`ServeFaultPlan`](crate::fault::ServeFaultPlan) injecting crashes,
//! stalls, slow shards, and swap-install failures (chaos mode). With
//! [`ServeConfig::degrade`] set, admission sheds work by
//! [`Priority`] tier under sustained overload, optionally serving
//! cache-only answers. Both default to `None`, leaving the original
//! code path untouched. `docs/RESILIENCE.md` has the full model.
//!
//! # Accounting
//!
//! [`ServeStats`] counts every submission exactly once into a terminal
//! bucket: `submitted == answered + rejected + shed` holds whenever the
//! service is quiescent, and [`QueryService::shutdown`] asserts it — a
//! batch can be neither lost nor double-answered without tripping it
//! (the batch state additionally panics on a double-finished sub-batch).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reach_graph::VertexId;
use reach_index::{IndexSource, ReachIndex};

use crate::cache::ShardedLruCache;
use crate::fault::{InjectedFault, WorkerFaultStream};
use crate::supervisor::{Resilience, ResilienceConfig, WorkerExit, WorkerSlot};
use crate::swap::{Swappable, Tagged};
use crate::{DegradeTier, ServeError};

/// One served index epoch. Every backing — a decoded [`ReachIndex`], a
/// compressed image, an mmap'd file — is served through the same shared
/// [`IndexSource`]; workers only ever see `source`.
pub(crate) struct Epoch {
    source: Arc<dyn IndexSource>,
    /// The same allocation as `source` when the epoch was installed as a
    /// decoded index, so [`QueryService::index_tagged`] can hand it back.
    decoded: Option<Arc<ReachIndex>>,
}

impl Epoch {
    fn ram(index: Arc<ReachIndex>) -> Self {
        Epoch {
            source: Arc::clone(&index) as Arc<dyn IndexSource>,
            decoded: Some(index),
        }
    }

    fn source(source: Arc<dyn IndexSource>) -> Self {
        Epoch {
            source,
            decoded: None,
        }
    }
}

/// A pinned epoch handle: the tagged value batches hold onto.
type EpochRef = Arc<Tagged<Epoch>>;

/// Tuning knobs of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads, each draining its own queue. Must be ≥ 1.
    pub workers: usize,
    /// Bounded per-shard request queue, in sub-batches; a full queue
    /// rejects new batches with [`ServeError::Overloaded`]. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Total result-cache entries across cache shards; `0` disables the
    /// cache entirely.
    pub cache_capacity: usize,
    /// Independent cache shards (each its own lock). Must be ≥ 1 when the
    /// cache is enabled.
    pub cache_shards: usize,
    /// Seed fixing the cache's key-to-shard spread.
    pub cache_seed: u64,
    /// Deadline applied to batches submitted without an explicit one;
    /// `None` means such batches never expire.
    pub default_deadline: Option<Duration>,
    /// Enables supervised workers (heartbeats, crash recovery, respawn)
    /// and, through the embedded fault plan, chaos mode. `None` (the
    /// default) runs the original unsupervised worker pool.
    pub resilience: Option<ResilienceConfig>,
    /// Enables graceful-degradation tiers under sustained overload.
    /// `None` (the default) admits purely by queue capacity.
    pub degrade: Option<DegradeConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 1024,
            cache_capacity: 1 << 14,
            cache_shards: 8,
            cache_seed: 0x5eed_cafe,
            default_deadline: None,
            resilience: None,
            degrade: None,
        }
    }
}

impl ServeConfig {
    /// The default configuration with `workers` worker threads.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }

    /// Disables the result cache.
    pub fn no_cache(mut self) -> Self {
        self.cache_capacity = 0;
        self
    }

    /// Runs the workers under supervision (see [`ResilienceConfig`]).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Enables overload degradation tiers (see [`DegradeConfig`]).
    pub fn with_degrade(mut self, degrade: DegradeConfig) -> Self {
        self.degrade = Some(degrade);
        self
    }
}

/// Client-visible importance of a batch, consulted only by the
/// degradation tiers: under sustained overload the service sheds
/// [`Priority::Low`] work first, then serves [`Priority::Normal`] work
/// cache-only (or sheds it), while [`Priority::High`] work always
/// reaches normal admission. Without a [`DegradeConfig`] every priority
/// is treated identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// First to be shed under overload (background / speculative work).
    Low,
    /// The default tier.
    Normal,
    /// Never shed by the degradation tiers (may still see
    /// [`ServeError::Overloaded`] when a queue is physically full).
    High,
}

/// Per-batch submission options for
/// [`QueryService::submit_batch_opts`].
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Overrides [`ServeConfig::default_deadline`] when set.
    pub deadline: Option<Duration>,
    /// Degradation-tier priority of the batch.
    pub priority: Priority,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            deadline: None,
            priority: Priority::Normal,
        }
    }
}

impl BatchOptions {
    /// Default options with the given deadline.
    pub fn deadline(deadline: Duration) -> Self {
        BatchOptions {
            deadline: Some(deadline),
            ..BatchOptions::default()
        }
    }

    /// Default options at the given priority.
    pub fn priority(priority: Priority) -> Self {
        BatchOptions {
            priority,
            ..BatchOptions::default()
        }
    }
}

/// Graceful-degradation thresholds, expressed as *pressure* — total
/// queued sub-batches over total queue capacity (`workers ×
/// queue_capacity`), sampled at admission.
///
/// Tiers escalate immediately when pressure crosses an entry watermark
/// and de-escalate only once pressure falls `resume_margin` below it
/// (hysteresis), so a service hovering at a watermark does not flap:
///
/// | tier | entered at | behavior |
/// |---|---|---|
/// | 0 | — | normal admission |
/// | 1 ([`DegradeTier::SheddingLow`]) | `shed_low_at` | [`Priority::Low`] batches rejected with [`ServeError::Degraded`] |
/// | 2 ([`DegradeTier::CacheOnly`]) | `cache_only_at` | additionally, [`Priority::Normal`] batches are answered from the result cache alone when every query hits, else rejected with [`ServeError::Degraded`] |
#[derive(Clone, Debug)]
pub struct DegradeConfig {
    /// Pressure at which tier 1 (shed low-priority work) engages.
    pub shed_low_at: f64,
    /// Pressure at which tier 2 (cache-only normal work) engages.
    pub cache_only_at: f64,
    /// A tier disengages once pressure drops this far below its entry
    /// watermark.
    pub resume_margin: f64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            shed_low_at: 0.75,
            cache_only_at: 0.95,
            resume_margin: 0.25,
        }
    }
}

/// Counters exposed by [`QueryService::stats`]. All values are cumulative
/// since service start and remain available after [`QueryService::shutdown`]
/// (which returns the final snapshot). Unlike the `serve.*` obs metrics
/// these are always compiled in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches submitted (every [`QueryService::submit_batch_opts`]
    /// entry, before validation). Each lands in exactly one terminal
    /// bucket: [`answered`](ServeStats::answered), one of the
    /// `rejected_*` counters, or [`shed`](ServeStats::shed) — the
    /// balance [`ServeStats::is_balanced`] checks and shutdown asserts.
    pub submitted: u64,
    /// Batches whose every query was answered (including empty batches
    /// and cache-only degraded serves).
    pub answered: u64,
    /// Queries answered (cache hits included).
    pub queries: u64,
    /// Batches admitted past admission control (every sub-batch
    /// enqueued). A batch rejected mid-enqueue is *not* counted here.
    pub batches: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (label scans performed with the cache on).
    pub cache_misses: u64,
    /// Batches rejected with [`ServeError::Overloaded`].
    pub rejected_overload: u64,
    /// Batches rejected with [`ServeError::DeadlineExceeded`] — at
    /// admission or when a worker found the deadline already past.
    /// Counted once per batch, however many sub-batches expired.
    pub rejected_deadline: u64,
    /// Batches rejected with [`ServeError::InvalidVertex`] — at
    /// admission, or at a worker after a shrinking hot-swap.
    pub rejected_invalid: u64,
    /// Batches rejected with [`ServeError::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Batches shed by a degradation tier ([`ServeError::Degraded`]).
    pub shed: u64,
    /// High-water mark of total queued sub-batches observed at admission.
    pub max_queue_depth: u64,
    /// Index hot-swaps performed ([`QueryService::swap_index`]).
    pub swaps: u64,
    /// Swap installs failed by fault injection
    /// ([`QueryService::try_swap_index`]); never counted in
    /// [`swaps`](ServeStats::swaps).
    pub swap_failures: u64,
    /// The generation being served when this snapshot was taken (0 until
    /// the first swap; equals [`ServeStats::swaps`] because generations
    /// are assigned consecutively by a single slot).
    pub generation: u64,
    /// Workers respawned or replaced by the supervisor.
    pub respawns: u64,
    /// In-flight sub-batches requeued from dead workers — each exactly
    /// once.
    pub requeued: u64,
    /// Injected worker crashes ([`crate::fault::ServeFaultPlan`]).
    pub injected_crashes: u64,
    /// Injected worker stalls.
    pub injected_stalls: u64,
}

impl ServeStats {
    /// Cache hits over cache probes, or 0.0 before any probe.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Batches rejected for any reason (overload, deadline, invalid
    /// vertex, shutdown).
    pub fn rejected(&self) -> u64 {
        self.rejected_overload
            + self.rejected_deadline
            + self.rejected_invalid
            + self.rejected_shutdown
    }

    /// The conservation law of batch accounting: every submission ends
    /// in exactly one terminal bucket. Holds whenever the service is
    /// quiescent (no submission mid-flight); [`QueryService::shutdown`]
    /// asserts it, so a lost or double-counted batch fails every test
    /// that shuts its service down.
    pub fn is_balanced(&self) -> bool {
        self.submitted == self.answered + self.rejected() + self.shed
    }
}

#[derive(Default)]
struct StatsInner {
    submitted: AtomicU64,
    answered: AtomicU64,
    queries: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_invalid: AtomicU64,
    rejected_shutdown: AtomicU64,
    shed: AtomicU64,
    max_queue_depth: AtomicU64,
    swaps: AtomicU64,
    swap_failures: AtomicU64,
    respawns: AtomicU64,
    requeued: AtomicU64,
    injected_crashes: AtomicU64,
    injected_stalls: AtomicU64,
}

impl StatsInner {
    /// The counters, with `generation` as read from the epoch slot by
    /// the caller — the slot is its only store.
    fn snapshot(&self, generation: u64) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            swap_failures: self.swap_failures.load(Ordering::Relaxed),
            generation,
            respawns: self.respawns.load(Ordering::Relaxed),
            requeued: self.requeued.load(Ordering::Relaxed),
            injected_crashes: self.injected_crashes.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
        }
    }

    fn raise_max_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts a batch's terminal rejection into its per-cause bucket.
    fn count_rejection(&self, err: &ServeError) {
        match err {
            ServeError::Overloaded { .. } => {
                self.rejected_overload.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.rejected.overload", 1);
            }
            ServeError::DeadlineExceeded => {
                self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.rejected.deadline", 1);
            }
            ServeError::InvalidVertex { .. } => {
                self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.rejected.invalid", 1);
            }
            ServeError::ShuttingDown => {
                self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.rejected.shutdown", 1);
            }
            ServeError::Degraded { .. } => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.degrade.shed", 1);
            }
            // Swap failures are not batch outcomes; nothing to count.
            ServeError::SwapFailed { .. } => {}
        }
    }
}

/// Completion state shared between a batch's ticket and its sub-batches.
struct BatchState {
    /// One slot per submitted query, written at the query's submission
    /// position by whichever shard answers it.
    results: Mutex<Vec<bool>>,
    progress: Mutex<Progress>,
    done: Condvar,
    /// The epoch this batch is answered by, pinned once by the first
    /// worker to pick up any of its sub-batches; raced pickups agree
    /// because only one initializer can win. Pinning at pickup (not
    /// admission) means a batch that waited in queue across a swap is
    /// answered by the freshest index — but still by exactly one.
    pinned: OnceLock<EpochRef>,
}

#[derive(Debug)]
struct Progress {
    /// Sub-batches still outstanding.
    remaining: usize,
    /// First failure, sticky; later sub-batches of a failed batch skip
    /// their compute.
    failed: Option<ServeError>,
}

impl BatchState {
    fn new(num_results: usize, sub_batches: usize) -> Self {
        BatchState {
            results: Mutex::new(vec![false; num_results]),
            progress: Mutex::new(Progress {
                remaining: sub_batches,
                failed: None,
            }),
            done: Condvar::new(),
            pinned: OnceLock::new(),
        }
    }

    fn fail(&self, err: ServeError) {
        let mut p = self.progress.lock().unwrap();
        if p.failed.is_none() {
            p.failed = Some(err);
        }
        self.done.notify_all();
    }

    fn failed_already(&self) -> bool {
        self.progress.lock().unwrap().failed.is_some()
    }

    /// Marks one sub-batch finished (successfully or not) and reports
    /// what that did to the batch, so the caller can count its terminal
    /// bucket exactly once.
    fn finish_sub(&self, outcome: Result<(), ServeError>) -> FinishOutcome {
        let mut p = self.progress.lock().unwrap();
        // The exactly-once backstop: a requeued sub-batch served twice, or
        // one harvested from a live worker, would drive `remaining`
        // negative here — fail loudly instead of double-answering.
        assert!(
            p.remaining > 0,
            "sub-batch finished twice — a batch would be double-answered"
        );
        let mut first_failure = None;
        if let Err(e) = outcome {
            if p.failed.is_none() {
                p.failed = Some(e.clone());
                first_failure = Some(e);
            }
        }
        p.remaining -= 1;
        let completed = p.remaining == 0 && p.failed.is_none();
        if p.remaining == 0 || p.failed.is_some() {
            self.done.notify_all();
        }
        FinishOutcome {
            first_failure,
            completed,
        }
    }
}

/// What one [`BatchState::finish_sub`] call did to its batch.
struct FinishOutcome {
    /// `Some(e)` iff this call recorded the batch's **first** failure —
    /// the caller should count the batch rejected (once).
    first_failure: Option<ServeError>,
    /// True iff this call completed the batch successfully — the caller
    /// should count the batch answered (once).
    completed: bool,
}

/// A pending batch returned by [`QueryService::submit_batch_async`].
///
/// [`BatchTicket::wait`] blocks until every result is in (or the batch
/// failed) and returns the answers **in submission order** — position `i`
/// answers the `i`-th submitted query, whatever shard computed it.
///
/// Dropping a ticket without waiting is allowed: the batch still runs to
/// completion (admitted work is never cancelled mid-compute), its results
/// are simply discarded.
#[must_use = "a ticket must be waited on to observe the batch outcome"]
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket")
            .field(
                "generation",
                &self.state.pinned.get().map(|e| e.generation()),
            )
            .finish_non_exhaustive()
    }
}

impl BatchTicket {
    /// Blocks until the batch completes; returns answers in submission
    /// order or the batch's typed failure.
    pub fn wait(self) -> Result<Vec<bool>, ServeError> {
        self.wait_tagged().map(|(answers, _)| answers)
    }

    /// Like [`BatchTicket::wait`], but also returns the **generation** of
    /// the index epoch that answered the batch — the handle the hot-swap
    /// differential harness compares answers against. Every answer in the
    /// returned vector was computed from exactly this generation's index.
    pub fn wait_tagged(self) -> Result<(Vec<bool>, u64), ServeError> {
        let mut p = self.state.progress.lock().unwrap();
        loop {
            if let Some(e) = &p.failed {
                return Err(e.clone());
            }
            if p.remaining == 0 {
                break;
            }
            p = self.state.done.wait(p).unwrap();
        }
        drop(p);
        self.take_results()
    }

    /// Like [`BatchTicket::wait`], but gives up after `timeout` with
    /// [`ServeError::DeadlineExceeded`]. The timeout bounds only this
    /// *wait*: an admitted batch still runs to completion server-side
    /// (and is still counted answered); its results are discarded with
    /// the ticket, exactly as on drop.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<bool>, ServeError> {
        self.wait_tagged_timeout(timeout)
            .map(|(answers, _)| answers)
    }

    /// [`BatchTicket::wait_tagged`] with a bound on the wait, as in
    /// [`BatchTicket::wait_timeout`].
    pub fn wait_tagged_timeout(self, timeout: Duration) -> Result<(Vec<bool>, u64), ServeError> {
        let give_up = Instant::now() + timeout;
        let mut p = self.state.progress.lock().unwrap();
        loop {
            if let Some(e) = &p.failed {
                return Err(e.clone());
            }
            if p.remaining == 0 {
                break;
            }
            let now = Instant::now();
            if now >= give_up {
                return Err(ServeError::DeadlineExceeded);
            }
            let (guard, _) = self.state.done.wait_timeout(p, give_up - now).unwrap();
            p = guard;
        }
        drop(p);
        self.take_results()
    }

    /// Non-blocking completion probe for async windows: `true` once the
    /// batch has completed (successfully or not), i.e. once a `wait` call
    /// would return without blocking.
    pub fn try_complete(&self) -> bool {
        let p = self.state.progress.lock().unwrap();
        p.remaining == 0 || p.failed.is_some()
    }

    fn take_results(self) -> Result<(Vec<bool>, u64), ServeError> {
        let generation = self
            .state
            .pinned
            .get()
            .expect("a completed batch has pinned its epoch")
            .generation();
        let answers = std::mem::take(&mut *self.state.results.lock().unwrap());
        Ok((answers, generation))
    }
}

/// The shard-local work unit: the slice of one batch owned by one shard.
/// Queued and held behind an `Arc` so a supervised worker's in-flight
/// claim and the queue can share it without copying.
pub(crate) struct SubBatch {
    state: Arc<BatchState>,
    deadline: Option<Instant>,
    admitted_at: Instant,
    /// Queries routed to this shard's queue (`s % workers`).
    queries: Vec<(VertexId, VertexId)>,
    /// Submission position of each query, for order restoration.
    positions: Vec<u32>,
}

enum PushError {
    Full,
    Closed,
}

/// Outcome of a bounded-wait pop on a [`ShardQueue`].
enum Popped {
    /// A sub-batch to serve.
    Item(Arc<SubBatch>),
    /// Nothing arrived within the wait bound (or the queue is paused);
    /// the caller should refresh its heartbeat and poll again.
    TimedOut,
    /// Closed and fully drained: the worker is done.
    Drained,
}

/// A bounded MPSC queue of sub-batches with pause support (used by tests
/// and the bench harness to stage deterministic overload/deadline
/// scenarios).
struct ShardQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner {
    items: VecDeque<Arc<SubBatch>>,
    closed: bool,
    paused: bool,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                paused: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admission: enqueues unless the queue is full or closed. Returns
    /// the depth after the push.
    fn try_push(&self, sub: Arc<SubBatch>) -> Result<usize, PushError> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(PushError::Closed);
        }
        if g.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        g.items.push_back(sub);
        let depth = g.items.len();
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Requeues a sub-batch harvested from a dead worker at the **front**
    /// of the queue, bypassing capacity (the work was already admitted;
    /// re-rejecting it would break exactly-once) and preserving its
    /// position ahead of later admissions. Works on a closed queue so
    /// recovery still functions during shutdown drain.
    fn requeue_front(&self, sub: Arc<SubBatch>) {
        self.inner.lock().unwrap().items.push_front(sub);
        self.ready.notify_one();
    }

    /// Blocks for the next sub-batch; `None` once the queue is closed and
    /// drained. Close overrides pause so shutdown always drains.
    fn pop(&self) -> Option<Arc<SubBatch>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return g.items.pop_front();
            }
            if !g.paused {
                if let Some(sub) = g.items.pop_front() {
                    return Some(sub);
                }
            }
            g = self.ready.wait(g).unwrap();
        }
    }

    /// [`ShardQueue::pop`] with a bounded wait, for supervised workers
    /// that must keep refreshing their heartbeat while idle.
    fn pop_timeout(&self, wait: Duration) -> Popped {
        let mut g = self.inner.lock().unwrap();
        let give_up = Instant::now() + wait;
        loop {
            if g.closed {
                return match g.items.pop_front() {
                    Some(sub) => Popped::Item(sub),
                    None => Popped::Drained,
                };
            }
            if !g.paused {
                if let Some(sub) = g.items.pop_front() {
                    return Popped::Item(sub);
                }
            }
            let now = Instant::now();
            if now >= give_up {
                return Popped::TimedOut;
            }
            let (guard, _) = self.ready.wait_timeout(g, give_up - now).unwrap();
            g = guard;
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    fn set_paused(&self, paused: bool) {
        self.inner.lock().unwrap().paused = paused;
        self.ready.notify_all();
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// State shared between submitters and workers.
struct Shared {
    /// The served epoch: swapped atomically, pinned per batch.
    epochs: Swappable<Epoch>,
    cache: Option<ShardedLruCache>,
    queues: Vec<ShardQueue>,
    stats: StatsInner,
    /// Admission sequence number, indexing the `serve.queue.depth` series.
    admissions: AtomicU64,
    /// The supervision/fault-injection layer; `None` runs the original
    /// unsupervised worker pool byte-for-byte.
    resilience: Option<Resilience>,
    /// Current degradation tier (0 = normal), updated at admission with
    /// hysteresis. Advisory only when [`ServeConfig::degrade`] is `None`.
    degrade_tier: AtomicU8,
}

impl Shared {
    /// Total queued sub-batches over total queue capacity, the pressure
    /// signal of the degradation tiers.
    fn pressure(&self) -> f64 {
        let depth: usize = self.queues.iter().map(ShardQueue::len).sum();
        let capacity = self.queues.len() * self.queues[0].capacity;
        depth as f64 / capacity as f64
    }

    /// Re-evaluates the degradation tier against current pressure:
    /// escalation is immediate, de-escalation requires pressure to fall
    /// `resume_margin` below the tier's entry watermark (hysteresis).
    fn update_degrade_tier(&self, cfg: &DegradeConfig) -> u8 {
        let pressure = self.pressure();
        let current = self.degrade_tier.load(Ordering::Relaxed);
        let mut tier = current;
        if pressure >= cfg.cache_only_at {
            tier = 2;
        } else if pressure >= cfg.shed_low_at {
            tier = tier.max(1);
        }
        if tier == 2 && pressure < cfg.cache_only_at - cfg.resume_margin {
            tier = 1;
        }
        if tier == 1 && pressure < cfg.shed_low_at - cfg.resume_margin {
            tier = 0;
        }
        if tier != current {
            self.degrade_tier.store(tier, Ordering::Relaxed);
            reach_obs::counter_add("serve.degrade.transitions", 1);
        }
        tier
    }
}

/// The concurrent reachability query service. See the crate
/// docs for the design and [`ServeConfig`] for the knobs.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<reach_obs::WorkerMetrics>>,
    /// The supervisor thread, when [`ServeConfig::resilience`] is set; the
    /// supervised worker handles live in the resilience registry instead
    /// of `workers`.
    supervisor: Option<JoinHandle<()>>,
    config: ServeConfig,
}

impl QueryService {
    /// Starts a service over a decoded index. Equivalent to
    /// [`QueryService::start_with_source`] — the workers share `index`
    /// itself, nothing is copied — except that the service remembers the
    /// decoded form, so [`QueryService::index_tagged`] can hand it back.
    pub fn start(index: Arc<ReachIndex>, config: ServeConfig) -> Self {
        QueryService::start_with_epoch(Epoch::ram(index), config)
    }

    /// Starts a service over any [`IndexSource`] — a compressed
    /// [`CompressedIndex`](reach_index::CompressedIndex), an out-of-core
    /// [`MmapIndex`](reach_index::MmapIndex), or a plain decoded index.
    /// Every worker answers from the shared source, so start and swap
    /// are O(1) in the index size. [`QueryService::index_tagged`] is
    /// unavailable on a generation installed this way — witness paths
    /// use [`QueryService::source_tagged`] instead.
    pub fn start_with_source(source: Arc<dyn IndexSource>, config: ServeConfig) -> Self {
        QueryService::start_with_epoch(Epoch::source(source), config)
    }

    fn start_with_epoch(epoch: Epoch, config: ServeConfig) -> Self {
        assert!(config.workers >= 1, "a service needs at least one worker");
        assert!(config.queue_capacity >= 1, "queue capacity must be >= 1");
        let cache = (config.cache_capacity > 0).then(|| {
            ShardedLruCache::new(
                config.cache_capacity,
                config.cache_shards,
                config.cache_seed,
            )
        });
        let resilience = config
            .resilience
            .clone()
            .map(|cfg| Resilience::new(cfg, config.workers));
        let shared = Arc::new(Shared {
            epochs: Swappable::new(epoch),
            cache,
            queues: (0..config.workers)
                .map(|_| ShardQueue::new(config.queue_capacity))
                .collect(),
            stats: StatsInner::default(),
            admissions: AtomicU64::new(0),
            resilience,
            degrade_tier: AtomicU8::new(0),
        });
        let (workers, supervisor) = if let Some(res) = &shared.resilience {
            {
                let mut registry = res.registry.lock().unwrap();
                for shard in 0..config.workers {
                    let slot = spawn_supervised(&shared, shard);
                    registry.push(slot);
                }
            }
            let sup_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("reach-serve-supervisor".into())
                .spawn(move || supervisor_loop(&sup_shared))
                .expect("spawn service supervisor");
            (Vec::new(), Some(handle))
        } else {
            let workers = (0..config.workers)
                .map(|k| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("reach-serve-{k}"))
                        .spawn(move || {
                            let ((), metrics) =
                                reach_obs::scoped_worker(|| worker_loop(&shared, k));
                            metrics
                        })
                        .expect("spawn service worker")
                })
                .collect();
            (workers, None)
        };
        QueryService {
            shared,
            workers,
            supervisor,
            config,
        }
    }

    /// The generation currently being served: 0 at start, +1 per
    /// [`QueryService::swap_index`]. Batches already in flight may still
    /// be answering under an earlier generation.
    pub fn generation(&self) -> u64 {
        self.shared.epochs.generation()
    }

    /// The currently served decoded index together with its generation,
    /// read from **one** epoch load, so the pair cannot straddle a
    /// concurrent [`QueryService::swap_index`].
    ///
    /// # Panics
    ///
    /// When the current generation was installed as a bare source
    /// ([`QueryService::start_with_source`] /
    /// [`QueryService::swap_source`]): there is no decoded
    /// [`ReachIndex`] to hand out. Use [`QueryService::source_tagged`]
    /// there.
    pub fn index_tagged(&self) -> (Arc<ReachIndex>, u64) {
        let epoch = self.shared.epochs.load();
        match &epoch.value().decoded {
            Some(index) => (Arc::clone(index), epoch.generation()),
            None => panic!(
                "index_tagged() is unavailable on a source-backed service; use source_tagged()"
            ),
        }
    }

    /// The currently served backing as an [`IndexSource`], with its
    /// generation, from **one** epoch load — available on every
    /// generation, whatever installed it. The wire server's witness path
    /// snapshots its epoch through this so every witness response is
    /// internally consistent and correctly generation-tagged.
    pub fn source_tagged(&self) -> (Arc<dyn IndexSource>, u64) {
        let epoch = self.shared.epochs.load();
        (Arc::clone(&epoch.value().source), epoch.generation())
    }

    /// Atomically replaces the served index with `index` and returns the
    /// new generation number. Equivalent to
    /// [`QueryService::swap_source`], plus remembering the decoded form
    /// for [`QueryService::index_tagged`].
    ///
    /// The swap never drains and never blocks queries: batches whose
    /// compute already pinned the old epoch finish on it (the old index
    /// stays alive until its last batch drops it), batches still queued
    /// pin the new epoch at pickup, and every batch is answered entirely
    /// by one generation either way. The result cache needs no flush —
    /// the generation is part of its key.
    ///
    /// # Panics
    ///
    /// If an active [`ServeFaultPlan`](crate::fault::ServeFaultPlan)
    /// injects a swap failure (chaos drivers should call
    /// [`QueryService::try_swap_index`] instead).
    pub fn swap_index(&self, index: Arc<ReachIndex>) -> u64 {
        self.try_swap_index(index)
            .expect("swap install failed by injected fault; use try_swap_index in chaos runs")
    }

    /// [`QueryService::swap_index`] with injected swap failures surfaced
    /// as [`ServeError::SwapFailed`] instead of a panic. A failed install
    /// is **atomic-nothing**: the failure coin is drawn before any
    /// install work, the generation does not advance, and the previous
    /// epoch keeps serving untouched.
    pub fn try_swap_index(&self, index: Arc<ReachIndex>) -> Result<u64, ServeError> {
        self.try_install(Epoch::ram(index))
    }

    /// Atomically replaces the served backing with any [`IndexSource`]
    /// — e.g. hot-swapping to a freshly written compressed or
    /// mmap-backed v2 file. Same epoch semantics as
    /// [`QueryService::swap_index`]; decoded and bare-source generations
    /// may alternate freely over a service's lifetime.
    ///
    /// # Panics
    ///
    /// Like [`QueryService::swap_index`], if an active fault plan
    /// injects a swap failure; chaos drivers use
    /// [`QueryService::try_swap_source`].
    pub fn swap_source(&self, source: Arc<dyn IndexSource>) -> u64 {
        self.try_swap_source(source)
            .expect("swap install failed by injected fault; use try_swap_source in chaos runs")
    }

    /// [`QueryService::swap_source`] with injected swap failures
    /// surfaced as [`ServeError::SwapFailed`]; atomic-nothing on
    /// failure, like [`QueryService::try_swap_index`].
    pub fn try_swap_source(&self, source: Arc<dyn IndexSource>) -> Result<u64, ServeError> {
        self.try_install(Epoch::source(source))
    }

    /// Draws the chaos swap-failure coin, then installs `epoch` and
    /// books the swap.
    fn try_install(&self, epoch: Epoch) -> Result<u64, ServeError> {
        if let Some(res) = &self.shared.resilience {
            if res.draw_swap_failure() {
                self.shared
                    .stats
                    .swap_failures
                    .fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.fault.swap_failures", 1);
                return Err(ServeError::SwapFailed {
                    generation: self.generation(),
                });
            }
        }
        let t0 = Instant::now();
        let generation = self.shared.epochs.swap(epoch);
        self.shared.stats.swaps.fetch_add(1, Ordering::Relaxed);
        reach_obs::counter_add("serve.swap.count", 1);
        reach_obs::record("serve.swap.install_ns", t0.elapsed().as_nanos() as u64);
        Ok(generation)
    }

    /// Worker-thread count.
    pub fn num_workers(&self) -> usize {
        self.config.workers
    }

    /// Answers one query, blocking until a worker serves it.
    pub fn reachable(&self, s: VertexId, t: VertexId) -> Result<bool, ServeError> {
        let answers = self.submit_batch(&[(s, t)], None)?;
        Ok(answers[0])
    }

    /// Submits a batch and blocks for its results (submission order).
    /// `deadline` overrides [`ServeConfig::default_deadline`].
    pub fn submit_batch(
        &self,
        queries: &[(VertexId, VertexId)],
        deadline: Option<Duration>,
    ) -> Result<Vec<bool>, ServeError> {
        self.submit_batch_async(queries, deadline)?.wait()
    }

    /// Non-blocking submission: validates, applies admission control, and
    /// routes each query to worker queue `s % workers`. Errors returned
    /// here ([`ServeError::Overloaded`], [`ServeError::DeadlineExceeded`]
    /// for an already-expired deadline, [`ServeError::InvalidVertex`])
    /// reject the whole batch — no partial results are ever produced.
    pub fn submit_batch_async(
        &self,
        queries: &[(VertexId, VertexId)],
        deadline: Option<Duration>,
    ) -> Result<BatchTicket, ServeError> {
        self.submit_batch_opts(
            queries,
            BatchOptions {
                deadline,
                priority: Priority::Normal,
            },
        )
    }

    /// [`QueryService::submit_batch_async`] with full per-batch options
    /// (deadline **and** degradation-tier [`Priority`]). Every submission
    /// enters the [`ServeStats::submitted`] ledger here and leaves it
    /// through exactly one terminal bucket.
    pub fn submit_batch_opts(
        &self,
        queries: &[(VertexId, VertexId)],
        opts: BatchOptions,
    ) -> Result<BatchTicket, ServeError> {
        let shared = &*self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        reach_obs::counter_add("serve.submitted", 1);
        let reject = |err: ServeError| -> Result<BatchTicket, ServeError> {
            shared.stats.count_rejection(&err);
            Err(err)
        };
        // Validate against the generation current at submission; a batch
        // pinned to a later (shrunken) epoch at pickup is re-checked by
        // the worker against its pinned generation.
        let epoch = shared.epochs.load();
        let n = epoch.value().source.num_vertices();
        for &(s, t) in queries {
            for v in [s, t] {
                if v as usize >= n {
                    return reject(ServeError::InvalidVertex {
                        vertex: v,
                        num_vertices: n,
                    });
                }
            }
        }
        let admitted_at = Instant::now();
        // A deadline too far out to represent is no deadline at all.
        let deadline = opts
            .deadline
            .or(self.config.default_deadline)
            .and_then(|d| admitted_at.checked_add(d));
        if let Some(dl) = deadline {
            if admitted_at >= dl {
                return reject(ServeError::DeadlineExceeded);
            }
        }
        // Degradation tiers: shed by priority before touching any queue.
        if let Some(cfg) = &self.config.degrade {
            let tier = shared.update_degrade_tier(cfg);
            if tier >= 1 && opts.priority == Priority::Low {
                return reject(ServeError::Degraded {
                    tier: DegradeTier::SheddingLow,
                });
            }
            if tier >= 2 && opts.priority == Priority::Normal {
                // Cache-only: answer without workers iff every query hits
                // the result cache at the current generation; shed
                // otherwise. Hits are real answers (the cache is keyed on
                // the generation), so the batch counts as answered.
                let generation = epoch.generation();
                let cached: Option<Vec<bool>> = shared.cache.as_ref().and_then(|c| {
                    queries
                        .iter()
                        .map(|&(s, t)| c.get(generation, s, t))
                        .collect()
                });
                let Some(answers) = cached else {
                    return reject(ServeError::Degraded {
                        tier: DegradeTier::CacheOnly,
                    });
                };
                let state = Arc::new(BatchState::new(queries.len(), 0));
                *state.results.lock().unwrap() = answers;
                let _ = state.pinned.set(epoch);
                let n = queries.len() as u64;
                shared.stats.cache_hits.fetch_add(n, Ordering::Relaxed);
                shared.stats.queries.fetch_add(n, Ordering::Relaxed);
                shared.stats.answered.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.cache.hits", n);
                reach_obs::counter_add("serve.queries", n);
                reach_obs::counter_add("serve.degrade.cache_only", 1);
                reach_obs::counter_add("serve.answered", 1);
                return Ok(BatchTicket { state });
            }
        }

        // Route each query to worker queue `s % workers` — a pure
        // function of the query, so routing stays valid no matter which
        // epoch the batch later pins. Each queue gets its slice of the
        // batch plus the submission positions its answers must land at.
        type RoutedShard = (Vec<(VertexId, VertexId)>, Vec<u32>);
        let shards = shared.queues.len();
        let mut routed: Vec<RoutedShard> = (0..shards).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, &(s, t)) in queries.iter().enumerate() {
            let k = s as usize % shards;
            routed[k].0.push((s, t));
            routed[k].1.push(i as u32);
        }
        let sub_batches = routed.iter().filter(|(q, _)| !q.is_empty()).count();
        let state = Arc::new(BatchState::new(queries.len(), sub_batches));
        if sub_batches == 0 {
            // An empty batch is never picked up by a worker, so pin its
            // epoch and settle its accounting here: completion (and its
            // tag) must not dangle.
            let _ = state.pinned.set(epoch);
            shared.stats.batches.fetch_add(1, Ordering::Relaxed);
            shared.stats.answered.fetch_add(1, Ordering::Relaxed);
            reach_obs::counter_add("serve.batches", 1);
            reach_obs::counter_add("serve.answered", 1);
            return Ok(BatchTicket { state });
        }

        let seq = shared.admissions.fetch_add(1, Ordering::Relaxed);
        for (k, (queries, positions)) in routed.into_iter().enumerate() {
            if queries.is_empty() {
                continue;
            }
            let sub = Arc::new(SubBatch {
                state: Arc::clone(&state),
                deadline,
                admitted_at,
                queries,
                positions,
            });
            match shared.queues[k].try_push(sub) {
                Ok(_) => {}
                Err(kind) => {
                    let err = match kind {
                        PushError::Full => ServeError::Overloaded {
                            shard: k,
                            capacity: self.config.queue_capacity,
                        },
                        PushError::Closed => ServeError::ShuttingDown,
                    };
                    // Poison the batch so sub-batches already enqueued on
                    // other shards skip their compute, then reject it. The
                    // rejection is counted here, once; the poisoned
                    // sub-batches finish with `Ok` and count nothing.
                    state.fail(err.clone());
                    return reject(err);
                }
            }
        }
        // Admission succeeded in full — only now does the batch count as
        // admitted (a batch rejected mid-enqueue never reaches here).
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        reach_obs::counter_add("serve.batches", 1);
        reach_obs::record("serve.batch.size", queries.len() as u64);
        let depth: usize = shared.queues.iter().map(ShardQueue::len).sum();
        shared.stats.raise_max_depth(depth as u64);
        reach_obs::series_add("serve.queue.depth", seq as usize, depth as u64);
        Ok(BatchTicket { state })
    }

    /// Cumulative service counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot(self.generation())
    }

    /// Holds all workers before their next sub-batch. Queued work stays
    /// queued (and admission control keeps counting it), which lets tests
    /// and the bench harness stage deterministic overload and
    /// deadline-expiry scenarios.
    pub fn pause(&self) {
        for q in &self.shared.queues {
            q.set_paused(true);
        }
    }

    /// Releases a [`QueryService::pause`].
    pub fn resume(&self) {
        for q in &self.shared.queues {
            q.set_paused(false);
        }
    }

    /// Detection-to-respawn latency of every supervised recovery so far
    /// (crash respawns and stall replacements), in order of occurrence.
    /// Empty without [`ServeConfig::resilience`]. The chaos bench folds
    /// these into its recovery-time histogram.
    pub fn recovery_log(&self) -> Vec<Duration> {
        match &self.shared.resilience {
            Some(res) => res
                .recovery_ns
                .lock()
                .unwrap()
                .iter()
                .map(|&ns| Duration::from_nanos(ns))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Stops admission, drains every already-admitted batch (recovering
    /// workers that crash during the drain), joins the workers, folds
    /// their obs recordings into the calling thread, and returns the
    /// final stats snapshot.
    ///
    /// # Panics
    ///
    /// If the terminal accounting does not balance
    /// ([`ServeStats::is_balanced`]) — a batch was lost or counted twice.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        for q in &self.shared.queues {
            q.close();
        }
        if let Some(res) = &self.shared.resilience {
            res.stop.store(true, Ordering::Release);
        }
        if let Some(handle) = self.supervisor.take() {
            handle.join().expect("service supervisor panicked");
        }
        if let Some(res) = &self.shared.resilience {
            for metrics in res.reaped_metrics.lock().unwrap().drain(..) {
                reach_obs::merge_worker(metrics);
            }
        }
        for handle in self.workers.drain(..) {
            let metrics = handle.join().expect("service worker panicked");
            reach_obs::merge_worker(metrics);
        }
        // The conservation check: with admission stopped and every worker
        // drained, every submission must sit in exactly one terminal
        // bucket. Skipped mid-panic so a failing test reports its own
        // assertion instead of aborting on a double panic.
        if !std::thread::panicking() {
            let s = self.stats();
            assert!(
                s.is_balanced(),
                "serve accounting out of balance at shutdown: submitted={} answered={} \
                 rejected={} shed={}",
                s.submitted,
                s.answered,
                s.rejected(),
                s.shed
            );
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One worker: drain its queue until close, answering each sub-batch.
fn worker_loop(shared: &Shared, shard: usize) {
    while let Some(sub) = shared.queues[shard].pop() {
        serve_sub_batch(shared, &sub);
    }
}

/// Spawns one supervised worker incarnation on `shard` and returns its
/// registry slot. The caller (startup or the supervisor) owns the
/// registry locking.
fn spawn_supervised(shared: &Arc<Shared>, shard: usize) -> WorkerSlot {
    let res = shared.resilience.as_ref().expect("supervised spawn");
    let incarnation = res.incarnations[shard].fetch_add(1, Ordering::Relaxed);
    let heartbeat = Arc::new(AtomicU64::new(res.now_ns()));
    let inflight: Arc<Mutex<Option<Arc<SubBatch>>>> = Arc::new(Mutex::new(None));
    let retired = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let heartbeat = Arc::clone(&heartbeat);
        let inflight = Arc::clone(&inflight);
        let retired = Arc::clone(&retired);
        std::thread::Builder::new()
            .name(format!("reach-serve-{shard}.{incarnation}"))
            .spawn(move || {
                reach_obs::scoped_worker(|| {
                    supervised_worker_loop(
                        &shared,
                        shard,
                        incarnation,
                        &heartbeat,
                        &inflight,
                        &retired,
                    )
                })
            })
            .expect("spawn supervised service worker")
    };
    WorkerSlot {
        shard,
        heartbeat,
        inflight,
        retired,
        handle,
    }
}

/// The supervised worker body: poll with a bounded wait (refreshing the
/// heartbeat each round), claim the sub-batch into the in-flight slot
/// **before** drawing injected faults, and clear the slot only after the
/// sub-batch is fully finished. An injected crash therefore always leaves
/// the claimed sub-batch behind for the supervisor — and a served one is
/// never left claimable.
fn supervised_worker_loop(
    shared: &Shared,
    shard: usize,
    incarnation: u64,
    heartbeat: &AtomicU64,
    inflight: &Mutex<Option<Arc<SubBatch>>>,
    retired: &AtomicBool,
) -> WorkerExit {
    let res = shared.resilience.as_ref().expect("supervised worker");
    let mut faults = WorkerFaultStream::new(&res.plan, shard, incarnation);
    loop {
        if retired.load(Ordering::Acquire) {
            return WorkerExit::Drained;
        }
        heartbeat.store(res.now_ns(), Ordering::Release);
        let sub = match shared.queues[shard].pop_timeout(res.supervisor.check_interval) {
            Popped::Drained => return WorkerExit::Drained,
            Popped::TimedOut => continue,
            Popped::Item(sub) => sub,
        };
        // Claim first: from here until the slot is cleared, this
        // incarnation owns the sub-batch exclusively.
        *inflight.lock().unwrap() = Some(Arc::clone(&sub));
        heartbeat.store(res.now_ns(), Ordering::Release);
        // Fault injection happens at pickup, before any compute or
        // accounting for the claimed sub-batch.
        match faults.at_pickup() {
            Some(InjectedFault::Crash) if res.take_crash_budget() => {
                shared
                    .stats
                    .injected_crashes
                    .fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.fault.crashes", 1);
                // Die with the in-flight slot occupied: the supervisor
                // harvests and requeues it exactly once.
                return WorkerExit::Crashed;
            }
            Some(InjectedFault::Stall(d)) if res.take_stall_budget() => {
                shared.stats.injected_stalls.fetch_add(1, Ordering::Relaxed);
                reach_obs::counter_add("serve.fault.stalls", 1);
                // Sleep without refreshing the heartbeat — a stall longer
                // than the supervisor's threshold triggers a replacement.
                std::thread::sleep(d);
            }
            _ => {}
        }
        if let Some(delay) = res.plan.slow_delay_for(shard) {
            std::thread::sleep(delay);
        }
        heartbeat.store(res.now_ns(), Ordering::Release);
        serve_sub_batch(shared, &sub);
        *inflight.lock().unwrap() = None;
    }
}

/// The supervisor: scan the worker registry every `check_interval`,
/// reap finished incarnations (harvesting and requeueing a crashed
/// worker's in-flight sub-batch, then respawning), supersede stalled
/// ones, and keep recovering until shutdown has fully drained.
fn supervisor_loop(shared: &Arc<Shared>) {
    let res = shared.resilience.as_ref().expect("supervisor");
    loop {
        std::thread::sleep(res.supervisor.check_interval);
        let stall_ns = res.supervisor.stall_timeout.as_nanos() as u64;
        let mut registry = res.registry.lock().unwrap();
        let mut k = 0;
        while k < registry.len() {
            if registry[k].handle.is_finished() {
                let slot = registry.swap_remove(k);
                let crashed = reap_worker(shared, res, slot);
                if let Some(shard) = crashed {
                    registry.push(spawn_supervised(shared, shard));
                }
                continue; // re-examine index k (swap_remove moved a slot in)
            }
            let slot = &registry[k];
            let busy =
                slot.inflight.lock().unwrap().is_some() || shared.queues[slot.shard].len() > 0;
            let stale = res
                .now_ns()
                .saturating_sub(slot.heartbeat.load(Ordering::Acquire));
            if busy && stale > stall_ns && !slot.retired.load(Ordering::Acquire) {
                // Stalled: supersede, never harvest — the stalled thread
                // is alive and still owns its claimed sub-batch. It will
                // finish it, see the retired flag, and exit Drained.
                slot.retired.store(true, Ordering::Release);
                let shard = slot.shard;
                record_recovery(shared, res, stale);
                reach_obs::counter_add("serve.respawn.stall", 1);
                registry.push(spawn_supervised(shared, shard));
            }
            k += 1;
        }
        let done = registry.is_empty();
        drop(registry);
        if done && res.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Joins a finished worker incarnation: banks its metrics, and for a
/// crash (injected, or a genuine panic) harvests its in-flight sub-batch
/// back onto the front of its shard queue. Returns the shard to respawn
/// on, or `None` for a clean drain.
fn reap_worker(shared: &Shared, res: &Resilience, slot: WorkerSlot) -> Option<usize> {
    let WorkerSlot {
        shard,
        heartbeat,
        inflight,
        handle,
        ..
    } = slot;
    let crashed = match handle.join() {
        Ok((exit, metrics)) => {
            res.reaped_metrics.lock().unwrap().push(metrics);
            exit == WorkerExit::Crashed
        }
        // A genuine worker panic is handled like an injected crash: the
        // batch state may be poisoned, but the service must not hang.
        Err(_) => true,
    };
    if !crashed {
        return None;
    }
    // The thread is provably dead (joined), so this take is the only
    // possible transfer of ownership: the sub-batch is requeued exactly
    // once, and the dead incarnation never finished it.
    if let Some(sub) = inflight.lock().unwrap().take() {
        shared.queues[shard].requeue_front(sub);
        shared.stats.requeued.fetch_add(1, Ordering::Relaxed);
        reach_obs::counter_add("serve.respawn.requeued", 1);
    }
    let detect_ns = res
        .now_ns()
        .saturating_sub(heartbeat.load(Ordering::Acquire));
    record_recovery(shared, res, detect_ns);
    reach_obs::counter_add("serve.respawn.crash", 1);
    Some(shard)
}

fn record_recovery(shared: &Shared, res: &Resilience, latency_ns: u64) {
    shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
    res.recovery_ns.lock().unwrap().push(latency_ns);
    reach_obs::counter_add("serve.respawn.count", 1);
    reach_obs::record("serve.respawn.latency_ns", latency_ns);
}

fn serve_sub_batch(shared: &Shared, sub: &SubBatch) {
    // A sibling sub-batch already failed the batch (overload poisoning):
    // just account for this one, the ticket holder has its error.
    if sub.state.failed_already() {
        finish_sub_batch(shared, sub, Ok(()));
        return;
    }
    // Per-batch deadline, re-checked at pickup time: queue wait counts.
    if let Some(dl) = sub.deadline {
        if Instant::now() >= dl {
            finish_sub_batch(shared, sub, Err(ServeError::DeadlineExceeded));
            return;
        }
    }
    // Pin the batch's epoch: the first sub-batch picked up decides, every
    // sibling (on any worker, at any later time) reuses the same one.
    let epoch = sub
        .state
        .pinned
        .get_or_init(|| shared.epochs.load())
        .clone();
    let generation = epoch.generation();
    let backing = &epoch.value().source;
    // Submission validated against the epoch current back then; the
    // pinned one may cover fewer vertices (a shrinking swap), so re-check
    // before touching label arrays.
    let pinned_n = backing.num_vertices();
    if let Some(v) = sub
        .queries
        .iter()
        .flat_map(|&(s, t)| [s, t])
        .find(|&v| v as usize >= pinned_n)
    {
        finish_sub_batch(
            shared,
            sub,
            Err(ServeError::InvalidVertex {
                vertex: v,
                num_vertices: pinned_n,
            }),
        );
        return;
    }
    let mut answers = Vec::with_capacity(sub.queries.len());
    let (mut hits, mut misses) = (0u64, 0u64);
    for &(s, t) in &sub.queries {
        let answer = match shared.cache.as_ref().and_then(|c| c.get(generation, s, t)) {
            Some(cached) => {
                hits += 1;
                cached
            }
            None => {
                let (computed, scanned) = backing.query_scan(s, t);
                reach_obs::record("serve.query.scan_len", scanned as u64);
                if let Some(c) = &shared.cache {
                    misses += 1;
                    c.insert(generation, s, t, computed);
                }
                computed
            }
        };
        reach_obs::record(
            "serve.request.latency_ns",
            sub.admitted_at.elapsed().as_nanos() as u64,
        );
        answers.push(answer);
    }
    reach_obs::series_add(
        "serve.swap.queries",
        generation as usize,
        answers.len() as u64,
    );
    shared
        .stats
        .queries
        .fetch_add(answers.len() as u64, Ordering::Relaxed);
    reach_obs::counter_add("serve.queries", answers.len() as u64);
    if hits > 0 {
        shared.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        reach_obs::counter_add("serve.cache.hits", hits);
    }
    if misses > 0 {
        shared
            .stats
            .cache_misses
            .fetch_add(misses, Ordering::Relaxed);
        reach_obs::counter_add("serve.cache.misses", misses);
    }
    {
        let mut results = sub.state.results.lock().unwrap();
        for (answer, &pos) in answers.iter().zip(&sub.positions) {
            results[pos as usize] = *answer;
        }
    }
    finish_sub_batch(shared, sub, Ok(()));
}

/// Finishes one sub-batch and settles whatever terminal accounting that
/// implies for its batch: the first failure counts the batch rejected,
/// the successful completion counts it answered — each exactly once, on
/// whichever worker happens to trigger it.
fn finish_sub_batch(shared: &Shared, sub: &SubBatch, outcome: Result<(), ServeError>) {
    let fin = sub.state.finish_sub(outcome);
    if let Some(err) = fin.first_failure {
        shared.stats.count_rejection(&err);
    }
    if fin.completed {
        shared.stats.answered.fetch_add(1, Ordering::Relaxed);
        reach_obs::counter_add("serve.answered", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_graph::{fixtures, TransitiveClosure};

    /// A trivially valid cover: `L_out(s) = DES(s)`, `L_in(t) = {t}`.
    fn closure_index(g: &reach_graph::DiGraph) -> Arc<ReachIndex> {
        let n = g.num_vertices();
        let out: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|v| reach_graph::traverse::descendants(g, v))
            .collect();
        let ins: Vec<Vec<VertexId>> = (0..n as VertexId).map(|v| vec![v]).collect();
        Arc::new(ReachIndex::from_labels(ins, out))
    }

    #[test]
    fn single_queries_match_direct_query_at_every_worker_count() {
        let g = fixtures::paper_graph();
        let idx = closure_index(&g);
        let tc = TransitiveClosure::compute(&g);
        for workers in [1, 2, 3, 4, 5, 8] {
            let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(workers));
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(svc.reachable(s, t).unwrap(), tc.reaches(s, t), "q({s},{t})");
                }
            }
            let stats = svc.shutdown();
            assert_eq!(stats.queries, 11 * 11);
            assert_eq!(stats.batches, 11 * 11);
        }
    }

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let g = fixtures::paper_graph();
        let idx = closure_index(&g);
        let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(4));
        // Sources deliberately interleave shards (4 workers, id-modulo).
        let batch: Vec<(VertexId, VertexId)> =
            (0..11).flat_map(|s| (0..11).map(move |t| (s, t))).collect();
        let got = svc.submit_batch(&batch, None).unwrap();
        let expect: Vec<bool> = batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
        assert_eq!(got, expect);
        svc.shutdown();
    }

    #[test]
    fn empty_batches_complete_immediately() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(idx, ServeConfig::with_workers(2));
        assert_eq!(svc.submit_batch(&[], None).unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn invalid_vertices_are_rejected_not_panicked() {
        let idx = closure_index(&fixtures::diamond()); // 4 vertices
        let svc = QueryService::start(idx, ServeConfig::with_workers(2));
        let err = svc.submit_batch(&[(0, 9)], None).unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidVertex {
                vertex: 9,
                num_vertices: 4
            }
        );
        let err = svc.reachable(7, 0).unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidVertex {
                vertex: 7,
                num_vertices: 4
            }
        );
    }

    #[test]
    fn expired_deadline_is_rejected_at_admission() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(idx, ServeConfig::with_workers(1));
        let err = svc
            .submit_batch(&[(0, 3)], Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(svc.stats().rejected_deadline, 1);
        assert_eq!(svc.stats().batches, 0, "rejected before admission");
    }

    #[test]
    fn deadline_expiring_in_queue_is_detected_by_the_worker() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(idx, ServeConfig::with_workers(1));
        svc.pause();
        let ticket = svc
            .submit_batch_async(&[(0, 3)], Some(Duration::from_millis(1)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        svc.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        // The worker wakes the waiter before it books the rejection, so
        // read the count once shutdown has joined it.
        assert_eq!(svc.shutdown().rejected_deadline, 1);
    }

    #[test]
    fn overload_is_typed_and_queued_work_still_completes() {
        let idx = closure_index(&fixtures::diamond());
        let mut cfg = ServeConfig::with_workers(1);
        cfg.queue_capacity = 2;
        let svc = QueryService::start(Arc::clone(&idx), cfg);
        svc.pause();
        let t1 = svc.submit_batch_async(&[(0, 3)], None).unwrap();
        let t2 = svc.submit_batch_async(&[(1, 2)], None).unwrap();
        let err = svc.submit_batch_async(&[(2, 3)], None).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                shard: 0,
                capacity: 2
            }
        );
        assert_eq!(svc.stats().rejected_overload, 1);
        svc.resume();
        assert_eq!(t1.wait().unwrap(), vec![idx.query(0, 3)]);
        assert_eq!(t2.wait().unwrap(), vec![idx.query(1, 2)]);
        let stats = svc.shutdown();
        assert_eq!(stats.queries, 2, "rejected batch never computed");
        assert_eq!(stats.max_queue_depth, 2);
    }

    #[test]
    fn overload_poisons_sub_batches_already_enqueued_elsewhere() {
        // 2 workers; shard 1's queue is saturated first, then a batch
        // spanning both shards is submitted: its shard-0 slice enqueues,
        // its shard-1 slice is rejected, and the whole batch must fail
        // without computing anything.
        let idx = closure_index(&fixtures::diamond());
        let mut cfg = ServeConfig::with_workers(2);
        cfg.queue_capacity = 1;
        let svc = QueryService::start(Arc::clone(&idx), cfg);
        svc.pause();
        let t1 = svc.submit_batch_async(&[(1, 3)], None).unwrap(); // shard 1
        let err = svc.submit_batch_async(&[(0, 3), (1, 2)], None).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                shard: 1,
                capacity: 1
            }
        );
        svc.resume();
        assert_eq!(t1.wait().unwrap(), vec![idx.query(1, 3)]);
        let stats = svc.shutdown();
        assert_eq!(stats.queries, 1, "poisoned sub-batch skipped its compute");
    }

    #[test]
    fn cache_hits_accumulate_without_changing_answers() {
        let g = fixtures::paper_graph();
        let idx = closure_index(&g);
        let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2));
        let batch: Vec<(VertexId, VertexId)> = vec![(1, 6), (8, 0), (1, 6), (1, 6)];
        let expect: Vec<bool> = batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
        for _ in 0..3 {
            assert_eq!(svc.submit_batch(&batch, None).unwrap(), expect);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.cache_hits + stats.cache_misses, 12);
        assert_eq!(stats.cache_misses, 2, "only (1,6) and (8,0) ever scan");
        assert!(stats.cache_hit_rate() > 0.8);
    }

    #[test]
    fn no_cache_config_never_probes() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(idx, ServeConfig::with_workers(1).no_cache());
        for _ in 0..4 {
            svc.reachable(0, 3).unwrap();
        }
        let stats = svc.shutdown();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.queries, 4);
    }

    #[test]
    fn shutdown_drains_admitted_batches() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2));
        svc.pause();
        let tickets: Vec<BatchTicket> = (0..8)
            .map(|i| {
                svc.submit_batch_async(&[(i % 4, (i + 1) % 4)], None)
                    .unwrap()
            })
            .collect();
        // Shutdown with work still queued and workers paused: close
        // overrides pause, every ticket resolves.
        let results: Vec<_> = {
            let stats = svc.shutdown();
            assert_eq!(stats.queries, 8);
            tickets.into_iter().map(|t| t.wait().unwrap()).collect()
        };
        for (i, r) in results.iter().enumerate() {
            let (s, t) = ((i as u32) % 4, ((i + 1) as u32) % 4);
            assert_eq!(r, &vec![idx.query(s, t)]);
        }
    }

    #[test]
    fn stats_balance_in_every_terminal_scenario() {
        let idx = closure_index(&fixtures::diamond());
        let mut cfg = ServeConfig::with_workers(2);
        cfg.queue_capacity = 1;
        let svc = QueryService::start(Arc::clone(&idx), cfg);
        svc.submit_batch(&[(0, 3)], None).unwrap(); // answered
        svc.submit_batch(&[], None).unwrap(); // empty, answered
        let _ = svc.submit_batch(&[(0, 99)], None).unwrap_err(); // invalid
        let _ = svc
            .submit_batch(&[(0, 3)], Some(Duration::ZERO))
            .unwrap_err(); // deadline at admission
        svc.pause();
        let t = svc.submit_batch_async(&[(1, 3)], None).unwrap();
        let _ = svc.submit_batch_async(&[(1, 2)], None).unwrap_err(); // overload
        svc.resume();
        t.wait().unwrap();
        let stats = svc.shutdown(); // shutdown also asserts the balance
        assert!(stats.is_balanced());
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.answered, 3);
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.rejected_overload, 1);
    }

    #[test]
    fn deadline_in_queue_is_counted_once_across_shards() {
        // A batch spanning 4 shards expires in queue: every shard's
        // sub-batch sees the stale deadline, but the batch must count as
        // exactly one deadline rejection.
        let g = fixtures::paper_graph();
        let idx = closure_index(&g);
        let svc = QueryService::start(idx, ServeConfig::with_workers(4));
        svc.pause();
        let ticket = svc
            .submit_batch_async(
                &[(0, 1), (1, 2), (2, 3), (3, 4)],
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        svc.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        let stats = svc.shutdown();
        assert_eq!(stats.rejected_deadline, 1, "one batch, one rejection");
        assert!(stats.is_balanced());
    }

    #[test]
    fn wait_timeout_bounds_the_wait_not_the_batch() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(1));
        svc.pause();
        let ticket = svc.submit_batch_async(&[(0, 3)], None).unwrap();
        assert!(!ticket.try_complete());
        let err = ticket.wait_timeout(Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        svc.resume();
        // The batch itself was not cancelled: it still completes and
        // counts as answered, so shutdown's balance assert passes.
        let stats = svc.shutdown();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.answered, 1);
        assert!(stats.is_balanced());
    }

    #[test]
    fn wait_timeout_returns_results_when_in_time() {
        let idx = closure_index(&fixtures::diamond());
        let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2));
        let ticket = svc.submit_batch_async(&[(0, 3), (1, 2)], None).unwrap();
        let (answers, generation) = ticket.wait_tagged_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(answers, vec![idx.query(0, 3), idx.query(1, 2)]);
        assert_eq!(generation, 0);
        svc.shutdown();
    }

    fn supervised_config(workers: usize, plan: crate::fault::ServeFaultPlan) -> ServeConfig {
        use crate::supervisor::SupervisorConfig;
        ServeConfig::with_workers(workers).with_resilience(ResilienceConfig {
            fault_plan: plan,
            supervisor: SupervisorConfig {
                check_interval: Duration::from_millis(1),
                stall_timeout: Duration::from_millis(10),
            },
        })
    }

    #[test]
    fn supervised_workers_with_inert_plan_behave_identically() {
        let g = fixtures::paper_graph();
        let idx = closure_index(&g);
        let svc = QueryService::start(
            Arc::clone(&idx),
            supervised_config(2, crate::fault::ServeFaultPlan::new(0)),
        );
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(svc.reachable(s, t).unwrap(), idx.query(s, t));
            }
        }
        let stats = svc.shutdown();
        assert_eq!(stats.queries, 121);
        assert_eq!(stats.respawns, 0, "no faults, no respawns");
        assert_eq!(stats.requeued, 0);
        assert!(stats.is_balanced());
    }

    #[test]
    fn injected_crashes_are_recovered_without_losing_answers() {
        let g = fixtures::paper_graph();
        let idx = closure_index(&g);
        let plan = crate::fault::ServeFaultPlan::new(11).with_worker_crashes(0.5, 3);
        let svc = QueryService::start(Arc::clone(&idx), supervised_config(2, plan));
        let batch: Vec<(VertexId, VertexId)> =
            (0..11).flat_map(|s| (0..11).map(move |t| (s, t))).collect();
        let expect: Vec<bool> = batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
        for _ in 0..16 {
            assert_eq!(svc.submit_batch(&batch, None).unwrap(), expect);
        }
        let recoveries = svc.recovery_log();
        let stats = svc.shutdown();
        // The exact crash count depends on which incarnations served how
        // many pickups (scheduling), but the budget caps it and with 32+
        // pickups at p=0.5 at least one crash fires on any interleaving.
        assert!((1..=3).contains(&stats.injected_crashes));
        assert!(stats.respawns >= stats.injected_crashes);
        assert_eq!(
            stats.requeued, stats.injected_crashes,
            "every crash left exactly one sub-batch to requeue"
        );
        assert_eq!(
            recoveries.len() as u64,
            stats.respawns,
            "every respawn logged a recovery latency"
        );
        assert!(stats.is_balanced());
    }

    #[test]
    fn stalled_worker_is_superseded_and_its_batch_answered_once() {
        let idx = closure_index(&fixtures::diamond());
        let plan = crate::fault::ServeFaultPlan::new(5).with_worker_stalls(
            1.0,
            Duration::from_millis(40),
            1,
        );
        let svc = QueryService::start(Arc::clone(&idx), supervised_config(1, plan));
        let expect = idx.query(0, 3);
        for _ in 0..4 {
            assert_eq!(svc.reachable(0, 3).unwrap(), expect);
        }
        let recoveries = svc.recovery_log();
        let stats = svc.shutdown();
        assert_eq!(stats.injected_stalls, 1);
        assert!(stats.respawns >= 1, "the stall outlived the threshold");
        assert_eq!(recoveries.len() as u64, stats.respawns);
        assert!(
            recoveries.iter().all(|d| *d >= Duration::from_millis(10)),
            "stall detection latency is at least the threshold"
        );
        assert!(stats.is_balanced());
    }

    #[test]
    fn slow_shards_add_latency_without_triggering_recovery() {
        let idx = closure_index(&fixtures::diamond());
        let plan =
            crate::fault::ServeFaultPlan::new(3).with_slow_shard(0, Duration::from_micros(500));
        let svc = QueryService::start(Arc::clone(&idx), supervised_config(2, plan));
        for _ in 0..8 {
            svc.reachable(0, 3).unwrap();
        }
        let stats = svc.shutdown();
        assert_eq!(stats.respawns, 0, "slow is not stalled");
        assert!(stats.is_balanced());
    }

    #[test]
    fn injected_swap_failures_are_atomic_nothing() {
        let idx = closure_index(&fixtures::diamond());
        let plan = crate::fault::ServeFaultPlan::new(2).with_swap_failures(1.0);
        let svc = QueryService::start(Arc::clone(&idx), supervised_config(1, plan));
        let err = svc.try_swap_index(Arc::clone(&idx)).unwrap_err();
        assert_eq!(err, ServeError::SwapFailed { generation: 0 });
        assert_eq!(svc.generation(), 0, "failed install changed nothing");
        assert_eq!(svc.reachable(0, 3).unwrap(), idx.query(0, 3));
        let stats = svc.shutdown();
        assert_eq!(stats.swap_failures, 1);
        assert_eq!(stats.swaps, 0);
        assert!(stats.is_balanced());
    }

    fn degrade_setup() -> (Arc<ReachIndex>, QueryService) {
        // 1 worker × capacity 4: pressure 0.25 per queued sub-batch.
        let idx = closure_index(&fixtures::diamond());
        let mut cfg = ServeConfig::with_workers(1).with_degrade(DegradeConfig {
            shed_low_at: 0.5,
            cache_only_at: 0.75,
            resume_margin: 0.25,
        });
        cfg.queue_capacity = 4;
        let svc = QueryService::start(Arc::clone(&idx), cfg);
        (idx, svc)
    }

    #[test]
    fn degrade_tier1_sheds_low_priority_only() {
        let (idx, svc) = degrade_setup();
        svc.pause();
        let tickets: Vec<_> = (0..2)
            .map(|_| svc.submit_batch_async(&[(0, 3)], None).unwrap())
            .collect();
        // Pressure now 0.5 ⇒ tier 1: Low is shed, Normal still admitted.
        let err = svc
            .submit_batch_opts(&[(1, 2)], BatchOptions::priority(Priority::Low))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Degraded {
                tier: crate::DegradeTier::SheddingLow
            }
        );
        let t = svc
            .submit_batch_opts(&[(1, 2)], BatchOptions::default())
            .unwrap();
        svc.resume();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap(), vec![idx.query(0, 3)]);
        }
        assert_eq!(t.wait().unwrap(), vec![idx.query(1, 2)]);
        let stats = svc.shutdown();
        assert_eq!(stats.shed, 1);
        assert!(stats.is_balanced());
    }

    #[test]
    fn degrade_tier2_serves_normal_work_cache_only() {
        let (idx, svc) = degrade_setup();
        // Warm the cache at generation 0.
        assert_eq!(svc.reachable(0, 3).unwrap(), idx.query(0, 3));
        svc.pause();
        let tickets: Vec<_> = (0..3)
            .map(|_| svc.submit_batch_async(&[(1, 2)], None).unwrap())
            .collect();
        // Pressure 0.75 ⇒ tier 2: Normal work answers from cache or sheds.
        let (answers, generation) = svc
            .submit_batch_opts(&[(0, 3)], BatchOptions::default())
            .unwrap()
            .wait_tagged()
            .unwrap();
        assert_eq!(answers, vec![idx.query(0, 3)], "cache-only hit");
        assert_eq!(generation, 0);
        let err = svc
            .submit_batch_opts(&[(2, 3)], BatchOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Degraded {
                tier: crate::DegradeTier::CacheOnly
            }
        );
        // High priority still reaches the workers.
        let t = svc
            .submit_batch_opts(&[(2, 3)], BatchOptions::priority(Priority::High))
            .unwrap();
        svc.resume();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        assert_eq!(t.wait().unwrap(), vec![idx.query(2, 3)]);
        let stats = svc.shutdown();
        assert_eq!(stats.shed, 1);
        assert!(stats.is_balanced());
    }

    #[test]
    fn resume_margin_controls_tier_disengagement() {
        // Hysteresis: tier 1 disengages only once pressure falls below
        // `shed_low_at − resume_margin`. With margin == watermark that
        // threshold is 0.0 (pressure is never *below* it), so the tier is
        // sticky even on a fully drained queue; with a smaller margin the
        // drained queue disengages it.
        let idx = closure_index(&fixtures::diamond());
        for (margin, still_shedding_when_drained) in [(0.5, true), (0.25, false)] {
            let mut cfg = ServeConfig::with_workers(1).with_degrade(DegradeConfig {
                shed_low_at: 0.5,
                cache_only_at: 2.0, // out of reach; tier 2 not under test
                resume_margin: margin,
            });
            cfg.queue_capacity = 4;
            let svc = QueryService::start(Arc::clone(&idx), cfg);
            let low = BatchOptions::priority(Priority::Low);
            svc.pause();
            let t1 = svc.submit_batch_async(&[(0, 3)], None).unwrap();
            let t2 = svc.submit_batch_async(&[(0, 3)], None).unwrap();
            assert!(
                svc.submit_batch_opts(&[(1, 2)], low).is_err(),
                "tier 1 engages at pressure 0.5"
            );
            svc.resume();
            t1.wait().unwrap();
            t2.wait().unwrap();
            // Both sub-batches were picked up (their waits returned), so
            // the queue is drained: pressure 0.
            let shed = svc.submit_batch_opts(&[(1, 2)], low).is_err();
            assert_eq!(shed, still_shedding_when_drained, "margin {margin}");
            let stats = svc.shutdown();
            assert!(stats.is_balanced());
        }
    }
}
