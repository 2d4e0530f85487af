//! Property tests for the work-stealing pool: exactly-once execution, no
//! deadlock on degenerate shapes (empty, single-item, nested pools), and
//! panic isolation — a worker blown up by a fault injector must surface a
//! typed error, never hang or abort the process.

use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

use dnasim_core::DnasimError;
use dnasim_faults::{FaultyReader, ReaderFaultPlan};
use dnasim_par::ThreadPool;
use dnasim_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_item_executes_exactly_once(len in 0usize..257, threads in 1usize..9) {
        let counters: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..len).collect();
        ThreadPool::new(threads)
            .par_map_indexed(&items, |index, &item| {
                prop_assert_eq_unreachable(index, item);
                counters[index].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        for (index, counter) in counters.iter().enumerate() {
            prop_assert_eq!(counter.load(Ordering::Relaxed), 1, "item {}", index);
        }
    }

    #[test]
    fn map_preserves_order_for_any_shape(len in 0usize..200, threads in 1usize..9) {
        let items: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let out = ThreadPool::new(threads)
            .par_map_indexed(&items, |index, &item| (index, item.rotate_left(7)))
            .unwrap();
        let expected: Vec<(usize, u64)> = items
            .iter()
            .enumerate()
            .map(|(index, &item)| (index, item.rotate_left(7)))
            .collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn nested_pools_do_not_deadlock(outer in 1usize..5, inner in 1usize..5, len in 0usize..24) {
        let items: Vec<usize> = (0..len).collect();
        let totals = ThreadPool::new(outer)
            .par_map_indexed(&items, |_, &item| {
                let sub: Vec<usize> = (0..item % 7).collect();
                ThreadPool::new(inner)
                    .par_map_indexed(&sub, |_, &x| x * 2)
                    .unwrap()
                    .iter()
                    .sum::<usize>()
            })
            .unwrap();
        prop_assert_eq!(totals.len(), len);
    }
}

/// Helper used inside the exactly-once property: index and item must agree
/// by construction; a mismatch means the pool handed a worker the wrong
/// slot, which would corrupt results silently. Panics (rather than
/// returning a TestCaseResult) because it runs inside pool workers.
fn prop_assert_eq_unreachable(index: usize, item: usize) {
    assert_eq!(index, item, "pool delivered item {item} under index {index}");
}

#[test]
fn empty_and_single_item_inputs_complete() {
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let empty: Vec<u8> = Vec::new();
        assert_eq!(pool.par_map_indexed(&empty, |_, &b| b).unwrap(), Vec::<u8>::new());
        assert_eq!(pool.par_map_indexed(&[41u8], |_, &b| b + 1).unwrap(), vec![42]);
    }
}

/// A worker panic provoked by a `crates/faults` injector ([`FaultyReader`]
/// raising a mid-stream I/O error that the worker `expect`s away) must come
/// back as a typed [`DnasimError::Degraded`], not a hang or a process
/// abort.
#[test]
fn injected_worker_panic_yields_typed_error() {
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let payload = vec![0xABu8; 256];
    // Item 7 gets a reader that fails 16 bytes in; everyone else reads
    // clean. The worker's `expect` turns the injected fault into a panic
    // inside the pool.
    let items: Vec<u64> = (0..32).collect();
    let result = ThreadPool::new(4).par_map_indexed(&items, |index, _| {
        let plan = if index == 7 {
            ReaderFaultPlan::io_error(16)
        } else {
            ReaderFaultPlan::truncation(u64::MAX)
        };
        let mut reader = FaultyReader::new(payload.as_slice(), plan);
        let mut buf = Vec::new();
        reader
            .read_to_end(&mut buf)
            .expect("injected stream fault");
        buf.len()
    });

    std::panic::set_hook(previous_hook);

    let err = result.unwrap_err();
    assert!(
        err.to_string().contains("injected stream fault"),
        "pool error should carry the worker's panic message: {err}"
    );
    match DnasimError::from(err) {
        DnasimError::Degraded { missing, .. } => assert!(missing >= 1),
        other => panic!("expected Degraded, got {other:?}"),
    }
}
