//! Reusable swap-consistency harness for the hot-swap guarantee.
//!
//! The property under test: while [`QueryService::swap_index`] cycles
//! through a sequence of indices, **every** batch's answers must equal
//! direct [`ReachIndex::query`] calls on the one generation the batch was
//! pinned to — no torn batches, no stale cache hits, no blocking of
//! in-flight work. This module packages the driver-plus-submitters
//! machinery so the integration suite (`tests/hot_swap.rs`), the
//! `swap_bench` load harness, and future stress tests all assert the same
//! invariant the same way.
//!
//! The harness is deliberately timing-agnostic: swaps race freely against
//! submission and pickup, and whatever interleaving the scheduler
//! produces, each batch's pinned generation is reported by
//! [`BatchTicket::wait_tagged`](crate::BatchTicket::wait_tagged) and its
//! answers are checked against exactly that index. Generations map to
//! indices deterministically (`indices[generation % K]`) because the
//! driver is the only swapper and installs them round-robin.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use reach_graph::{traverse, DiGraph, VertexId};
use reach_index::ReachIndex;

use crate::fault::ServeFaultPlan;
use crate::retry::RetryPolicy;
use crate::service::BatchOptions;
use crate::supervisor::{ResilienceConfig, SupervisorConfig};
use crate::{QueryService, ServeConfig, ServeError, ServeStats};

/// A trivially valid 2-hop cover built from BFS: `L_out(s) = DES(s)`,
/// `L_in(t) = {t}` — so `L_out(s) ∩ L_in(t) ≠ ∅ ⇔ t ∈ DES(s) ⇔ s → t`.
/// The standard test index; cheap to build on any graph, correct by
/// construction.
pub fn closure_index(g: &DiGraph) -> Arc<ReachIndex> {
    let n = g.num_vertices();
    let out: Vec<Vec<VertexId>> = (0..n as VertexId)
        .map(|v| traverse::descendants(g, v))
        .collect();
    let ins: Vec<Vec<VertexId>> = (0..n as VertexId).map(|v| vec![v]).collect();
    Arc::new(ReachIndex::from_labels(ins, out))
}

/// Knobs of [`run_swap_consistency`].
#[derive(Clone, Debug)]
pub struct SwapHarnessConfig {
    /// Service worker threads.
    pub workers: usize,
    /// Whether the result cache is on (its default capacity) or off.
    pub cache: bool,
    /// The driver performs a swap each time this many more batches have
    /// completed — the swap cadence. Must be ≥ 1.
    pub swap_every: usize,
    /// Concurrent submitter threads splitting the batch list round-robin.
    pub submitters: usize,
}

impl Default for SwapHarnessConfig {
    fn default() -> Self {
        SwapHarnessConfig {
            workers: 2,
            cache: true,
            swap_every: 4,
            submitters: 2,
        }
    }
}

/// What a [`run_swap_consistency`] run observed. The run itself panics on
/// any answer that differs from its pinned generation's index — a
/// returned report means the differential check passed.
#[derive(Clone, Debug)]
pub struct SwapReport {
    /// Batches submitted and verified.
    pub batches: usize,
    /// Individual answers verified against the pinned generation.
    pub answers_checked: usize,
    /// Distinct generations that answered at least one batch.
    pub generations_observed: BTreeSet<u64>,
    /// Swaps the driver performed.
    pub swaps: u64,
    /// Final service counters.
    pub stats: ServeStats,
}

/// Runs the differential swap-consistency check: serves `batches` through
/// a [`QueryService`] starting on `indices[0]` while a driver thread hot-
/// swaps through `indices` round-robin (generation `g` is served by
/// `indices[g % K]`), and asserts every completed batch's answers equal
/// `ReachIndex::query` on the generation it was pinned to.
///
/// All indices must cover the same vertex set (the evolving-graph
/// sequences built by `reach_datasets::edge_fraction_slices` do). Panics
/// with a descriptive message on the first divergent answer.
pub fn run_swap_consistency(
    indices: &[Arc<ReachIndex>],
    batches: &[Vec<(VertexId, VertexId)>],
    cfg: &SwapHarnessConfig,
) -> SwapReport {
    assert!(!indices.is_empty(), "need at least one index");
    assert!(cfg.swap_every >= 1, "swap cadence must be >= 1");
    assert!(cfg.submitters >= 1, "need at least one submitter");
    let k = indices.len();
    let mut serve_cfg = ServeConfig::with_workers(cfg.workers);
    if !cfg.cache {
        serve_cfg = serve_cfg.no_cache();
    }
    let svc = QueryService::start(Arc::clone(&indices[0]), serve_cfg);

    let completed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let observed = Mutex::new(BTreeSet::new());
    let checked = AtomicUsize::new(0);
    let mut swaps = 0u64;

    std::thread::scope(|scope| {
        // Submitters: split the batch list round-robin, verify each batch
        // against the generation it reports.
        let submitter_handles: Vec<_> = (0..cfg.submitters)
            .map(|me| {
                let svc = &svc;
                let completed = &completed;
                let observed = &observed;
                let checked = &checked;
                scope.spawn(move || {
                    let mut local_gens = BTreeSet::new();
                    for batch in batches.iter().skip(me).step_by(cfg.submitters) {
                        let ticket = svc
                            .submit_batch_async(batch, None)
                            .expect("harness stays below admission limits");
                        let (answers, generation) = ticket.wait_tagged().expect("batch completes");
                        let expect = &indices[generation as usize % k];
                        assert_eq!(answers.len(), batch.len());
                        for (i, (&(s, t), &got)) in batch.iter().zip(&answers).enumerate() {
                            assert_eq!(
                                got,
                                expect.query(s, t),
                                "torn batch: q({s},{t}) at position {i} disagrees with \
                                 generation {generation}'s index"
                            );
                        }
                        checked.fetch_add(answers.len(), Ordering::Relaxed);
                        local_gens.insert(generation);
                        completed.fetch_add(1, Ordering::Release);
                    }
                    observed.lock().unwrap().extend(local_gens);
                })
            })
            .collect();

        // Driver: swap to the next index each time `swap_every` more
        // batches have completed, racing freely with the submitters.
        let svc = &svc;
        let completed = &completed;
        let done = &done;
        let driver = scope.spawn(move || {
            let mut swaps = 0u64;
            let mut threshold = cfg.swap_every;
            loop {
                if completed.load(Ordering::Acquire) >= threshold {
                    let generation = svc.swap_index(Arc::clone(&indices[(swaps as usize + 1) % k]));
                    swaps += 1;
                    assert_eq!(generation, swaps, "driver is the only swapper");
                    threshold += cfg.swap_every;
                } else if done.load(Ordering::Acquire) {
                    // Every crossed threshold has been honoured (the
                    // threshold check precedes this exit), so a run always
                    // performs at least `batches / swap_every` swaps no
                    // matter how the scheduler interleaved it.
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
            swaps
        });

        // Join submitters first (collecting any verification panic so the
        // driver can still be stopped cleanly), then stop the driver.
        let mut verification_panic = None;
        for handle in submitter_handles {
            if let Err(panic) = handle.join() {
                verification_panic = Some(panic);
            }
        }
        done.store(true, Ordering::Release);
        swaps = driver.join().expect("driver thread panicked");
        if let Some(panic) = verification_panic {
            std::panic::resume_unwind(panic);
        }
    });

    let stats = svc.shutdown();
    assert_eq!(stats.swaps, swaps, "every swap is counted");
    SwapReport {
        batches: batches.len(),
        answers_checked: checked.into_inner(),
        generations_observed: observed.into_inner().unwrap(),
        swaps,
        stats,
    }
}

/// Knobs of [`run_chaos_consistency`]: the swap-harness shape plus a
/// fault plan, supervision cadence, and an optional client retry policy.
#[derive(Clone, Debug)]
pub struct ChaosHarnessConfig {
    /// Service worker threads.
    pub workers: usize,
    /// Whether the result cache is on (its default capacity) or off.
    pub cache: bool,
    /// Swap cadence in completed batches; `0` disables the swap driver
    /// (pure fault-recovery run).
    pub swap_every: usize,
    /// Concurrent submitter threads splitting the batch list round-robin.
    pub submitters: usize,
    /// The seeded fault schedule the service runs under. Must be
    /// *recoverable* (bounded crash/stall budgets — the builders enforce
    /// budgets by construction).
    pub fault_plan: ServeFaultPlan,
    /// Supervision cadence; the default detects within ~10 ms.
    pub supervisor: SupervisorConfig,
    /// When set, submitters go through
    /// [`RetryPolicy::submit_with_retries_tagged`] with this policy (a
    /// generous budget), exercising backoff under chaos; otherwise they
    /// submit directly and expect admission to succeed.
    pub retry: Option<RetryPolicy>,
}

impl Default for ChaosHarnessConfig {
    fn default() -> Self {
        ChaosHarnessConfig {
            workers: 2,
            cache: true,
            swap_every: 4,
            submitters: 2,
            fault_plan: ServeFaultPlan::new(0),
            supervisor: SupervisorConfig {
                check_interval: Duration::from_millis(1),
                stall_timeout: Duration::from_millis(10),
            },
            retry: None,
        }
    }
}

/// What a [`run_chaos_consistency`] run observed; returned only if every
/// differential and accounting check passed.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Batches submitted and verified.
    pub batches: usize,
    /// Individual answers verified against the pinned generation.
    pub answers_checked: usize,
    /// Distinct generations that answered at least one batch.
    pub generations_observed: BTreeSet<u64>,
    /// Successful swaps the driver performed.
    pub swaps: u64,
    /// Swap installs failed by injection.
    pub swap_failures: u64,
    /// Detection-to-respawn latency of every supervised recovery.
    pub recoveries: Vec<Duration>,
    /// Final service counters.
    pub stats: ServeStats,
}

/// The chaos differential check: [`run_swap_consistency`]'s invariant —
/// every completed batch's answers equal `ReachIndex::query` on the one
/// generation the batch pinned — must additionally survive an arbitrary
/// *recoverable* fault schedule: worker crashes (requeue + respawn),
/// stalls (supersede), slow shards, and swap-install failures, all racing
/// the hot-swaps and each other. On top of the answer check it asserts
/// the exactly-once ledger: every submission lands in one terminal
/// bucket, every crash requeues exactly one sub-batch, and every
/// recovery is logged.
///
/// Generations map to indices exactly as in the swap harness
/// (`indices[generation % K]`): failed installs do not advance the
/// generation, and the driver re-targets the same index until it lands.
pub fn run_chaos_consistency(
    indices: &[Arc<ReachIndex>],
    batches: &[Vec<(VertexId, VertexId)>],
    cfg: &ChaosHarnessConfig,
) -> ChaosReport {
    assert!(!indices.is_empty(), "need at least one index");
    assert!(cfg.submitters >= 1, "need at least one submitter");
    let k = indices.len();
    let mut serve_cfg = ServeConfig::with_workers(cfg.workers).with_resilience(ResilienceConfig {
        fault_plan: cfg.fault_plan.clone(),
        supervisor: cfg.supervisor.clone(),
    });
    if !cfg.cache {
        serve_cfg = serve_cfg.no_cache();
    }
    let svc = QueryService::start(Arc::clone(&indices[0]), serve_cfg);

    let completed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let observed = Mutex::new(BTreeSet::new());
    let checked = AtomicUsize::new(0);
    let mut swaps = 0u64;

    std::thread::scope(|scope| {
        let submitter_handles: Vec<_> = (0..cfg.submitters)
            .map(|me| {
                let svc = &svc;
                let completed = &completed;
                let observed = &observed;
                let checked = &checked;
                let retry = cfg.retry.clone();
                scope.spawn(move || {
                    let mut local_gens = BTreeSet::new();
                    for batch in batches.iter().skip(me).step_by(cfg.submitters) {
                        let (answers, generation) = match &retry {
                            Some(policy) => policy
                                .submit_with_retries_tagged(
                                    svc,
                                    batch,
                                    BatchOptions::default(),
                                    Duration::from_secs(60),
                                )
                                .expect("retries exhaust only on a stuck service"),
                            None => svc
                                .submit_batch_async(batch, None)
                                .expect("harness stays below admission limits")
                                .wait_tagged()
                                .expect("batch completes despite faults"),
                        };
                        let expect = &indices[generation as usize % k];
                        assert_eq!(answers.len(), batch.len());
                        for (i, (&(s, t), &got)) in batch.iter().zip(&answers).enumerate() {
                            assert_eq!(
                                got,
                                expect.query(s, t),
                                "chaos torn batch: q({s},{t}) at position {i} disagrees \
                                 with generation {generation}'s index"
                            );
                        }
                        checked.fetch_add(answers.len(), Ordering::Relaxed);
                        local_gens.insert(generation);
                        completed.fetch_add(1, Ordering::Release);
                    }
                    observed.lock().unwrap().extend(local_gens);
                })
            })
            .collect();

        // Driver: attempt a swap each time `swap_every` more batches
        // complete; injected install failures simply leave the threshold
        // crossed and the same index is re-targeted on the next attempt.
        let svc = &svc;
        let completed = &completed;
        let done = &done;
        let driver = scope.spawn(move || {
            let mut swaps = 0u64;
            if cfg.swap_every == 0 {
                return swaps;
            }
            let mut threshold = cfg.swap_every;
            loop {
                if completed.load(Ordering::Acquire) >= threshold {
                    match svc.try_swap_index(Arc::clone(&indices[(swaps as usize + 1) % k])) {
                        Ok(generation) => {
                            swaps += 1;
                            assert_eq!(generation, swaps, "driver is the only swapper");
                            threshold += cfg.swap_every;
                        }
                        Err(ServeError::SwapFailed { generation }) => {
                            assert_eq!(generation, swaps, "a failed install changes nothing");
                        }
                        Err(other) => panic!("unexpected swap error: {other}"),
                    }
                } else if done.load(Ordering::Acquire) {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
            swaps
        });

        let mut verification_panic = None;
        for handle in submitter_handles {
            if let Err(panic) = handle.join() {
                verification_panic = Some(panic);
            }
        }
        done.store(true, Ordering::Release);
        swaps = driver.join().expect("driver thread panicked");
        if let Some(panic) = verification_panic {
            std::panic::resume_unwind(panic);
        }
    });

    let recoveries = svc.recovery_log();
    let stats = svc.shutdown();
    assert_eq!(stats.swaps, swaps, "every successful swap is counted");
    assert!(stats.is_balanced(), "terminal accounting balances");
    assert_eq!(
        stats.requeued, stats.injected_crashes,
        "every injected crash requeued exactly one sub-batch"
    );
    assert_eq!(
        recoveries.len() as u64,
        stats.respawns,
        "every recovery has a logged latency"
    );
    ChaosReport {
        batches: batches.len(),
        answers_checked: checked.into_inner(),
        generations_observed: observed.into_inner().unwrap(),
        swaps,
        swap_failures: stats.swap_failures,
        recoveries,
        stats,
    }
}
