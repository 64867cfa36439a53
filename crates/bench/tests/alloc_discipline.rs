//! Heap-allocation discipline of the warm inference path, measured with a
//! counting `#[global_allocator]` (this binary's allocator only — the
//! unit-test binaries are unaffected).
//!
//! The arena's own counters prove limb checkouts stop missing the pool
//! (`fresh == 0`, pinned in `athena-core`'s `arena_discipline` tests);
//! this test closes the loop at the allocator itself: a steady-state run
//! on a warm session must perform strictly fewer global heap allocations
//! than the cold run that populated the pool. Limb buffers dominate the
//! hot path's allocation count, so pooling them must show up here — if it
//! doesn't, the pool is leaking misses somewhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use athena_core::pipeline::AthenaEngine;
use athena_core::plan::InferenceSession;
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn reference_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[2, 1, 3, 3], conv_w),
                    bias: vec![1, -2],
                    stride: 1,
                    padding: 0,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 0.5,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[3, 18, 1, 1], fc_w),
                    bias: vec![0, 1, -1],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: None,
            },
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One test function: the global allocator's counter is process-wide, so
/// concurrent tests in this binary would double-attribute.
#[test]
fn warm_run_allocates_less_than_the_cold_run_that_filled_the_pool() {
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 42);
    let model = reference_model();
    let img = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let mut sampler = Sampler::from_seed(555);

    // Compile + keygen outside both measurements, so the comparison is
    // cold-pool execution vs warm-pool execution of the *same* step
    // program.
    session.plan_for(&model, img.shape());

    let cold = count_allocs(|| {
        session
            .run_encrypted(&model, &img, &mut sampler)
            .expect("cold run");
    });

    // `alloc_stats::measure` exists with the feature off too (it reads
    // all-zero counters), so only the arena-counter asserts are gated.
    let ((), arena_counts) = athena_math::stats::alloc_stats::measure(|| {
        let warm = count_allocs(|| {
            session
                .run_encrypted(&model, &img, &mut sampler)
                .expect("warm run");
        });
        assert!(
            warm < cold,
            "warm run must allocate strictly less: warm {warm} vs cold {cold}"
        );
    });
    assert!(arena_counts.takes > 0, "the run must use the arena");
    assert_eq!(
        arena_counts.fresh, 0,
        "steady state: every limb checkout must hit the pool"
    );
}
