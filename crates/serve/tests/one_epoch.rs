//! One epoch form: a decoded index is served as the caller's own `Arc`
//! (no copy of the labels is made at start or swap), decoded and
//! bare-source generations alternate behind one slot, and the reported
//! generation has a single store.

use std::sync::{Arc, Barrier};

use reach_graph::VertexId;
use reach_index::{CodecId, IndexSource, MmapIndex, ReachIndex};
use reach_serve::testing::closure_index;
use reach_serve::{QueryService, ServeConfig};

const WORKERS: usize = 2;

fn test_index(seed: u64) -> Arc<ReachIndex> {
    closure_index(&reach_datasets::citation_dag(60, 180, seed))
}

/// One query per worker queue, so waiting for it means every worker has
/// dropped whatever sub-batch it served before.
fn touch_every_worker(svc: &QueryService) {
    let batch: Vec<(VertexId, VertexId)> = (0..WORKERS as VertexId).map(|s| (s, 0)).collect();
    svc.submit_batch(&batch, None).unwrap();
}

fn same_allocation(source: &Arc<dyn IndexSource>, index: &Arc<ReachIndex>) -> bool {
    std::ptr::eq(
        Arc::as_ptr(source) as *const u8,
        Arc::as_ptr(index) as *const u8,
    )
}

#[test]
fn a_decoded_index_is_served_in_place_and_released_on_swap() {
    let (idx, idx2) = (test_index(1), test_index(2));
    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(WORKERS));
    assert!(Arc::ptr_eq(&svc.index_tagged().0, &idx));
    assert!(same_allocation(&svc.source_tagged().0, &idx));
    touch_every_worker(&svc);

    assert_eq!(svc.swap_index(Arc::clone(&idx2)), 1);
    assert!(Arc::ptr_eq(&svc.index_tagged().0, &idx2));
    assert!(same_allocation(&svc.source_tagged().0, &idx2));
    touch_every_worker(&svc);
    assert_eq!(
        Arc::strong_count(&idx),
        1,
        "the replaced index is held by nobody but its caller"
    );
    svc.shutdown();
}

/// A service taken through ram (0) → mmap (1) → ram (2), stopped at
/// `generation`, with the index each generation serves.
fn ram_mmap_ram(generation: u64) -> (QueryService, Arc<ReachIndex>) {
    let (idx, idx2) = (test_index(3), test_index(4));
    let path = std::env::temp_dir().join(format!(
        "reach-one-epoch-{}-{generation}.ridx",
        std::process::id()
    ));
    reach_index::save_index_v2(&idx, &path, CodecId::DeltaVarint, None).unwrap();
    let mmapped: Arc<dyn IndexSource> = Arc::new(MmapIndex::open(&path).unwrap());
    std::fs::remove_file(&path).ok();

    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(WORKERS));
    if generation >= 1 {
        assert_eq!(svc.swap_source(mmapped), 1);
    }
    if generation >= 2 {
        assert_eq!(svc.swap_index(Arc::clone(&idx2)), 2);
        return (svc, idx2);
    }
    (svc, idx)
}

#[test]
fn every_generation_answers_witnesses_and_ram_ones_hand_back_the_index() {
    for generation in 0..=2 {
        let (svc, want) = ram_mmap_ram(generation);
        let (source, tag) = svc.source_tagged();
        assert_eq!(tag, generation);
        let n = want.num_vertices() as VertexId;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(source.query_witness(s, t), want.query_witness(s, t));
            }
        }
        if generation != 1 {
            let (index, tag) = svc.index_tagged();
            assert!(Arc::ptr_eq(&index, &want));
            assert_eq!(tag, generation);
        }
        svc.shutdown();
    }
}

#[test]
#[should_panic(expected = "index_tagged() is unavailable on a source-backed service")]
fn index_tagged_panics_on_a_source_generation() {
    let (svc, _) = ram_mmap_ram(1);
    let _ = svc.index_tagged();
}

#[test]
fn racing_swaps_leave_one_generation_count() {
    const THREADS: usize = 8;
    const SWAPS_EACH: usize = 50;
    let idx = test_index(5);
    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(WORKERS));
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..SWAPS_EACH {
                    svc.swap_index(Arc::clone(&idx));
                }
            });
        }
    });
    let total = (THREADS * SWAPS_EACH) as u64;
    let stats = svc.stats();
    assert_eq!(svc.generation(), total);
    assert_eq!(stats.generation, total);
    assert_eq!(stats.swaps, total);
    svc.shutdown();
}
