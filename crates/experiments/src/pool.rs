//! A deterministic scoped-thread worker pool.
//!
//! The experiment harness fans independent simulations (scheme × workload ×
//! configuration cells) across CPU cores. Each cell is a pure function of
//! its inputs, so the only parallelism requirement is *order-preserving
//! collection*: the result vector must be byte-identical to a serial run,
//! regardless of thread count or scheduling. This module provides exactly
//! that on `std::thread::scope` — no work stealing, no channels, no
//! external crates.
//!
//! Workers pull item indices from a shared atomic counter and write results
//! into the slot matching the item's position, so output order never
//! depends on completion order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Worker threads to use: `RENUCA_THREADS` when set, otherwise the
/// machine's available parallelism (at least 1). A set `RENUCA_THREADS`
/// must be a positive integer (surrounding whitespace is fine); anything
/// else prints an error naming the variable and its value and exits with
/// status 2, like a malformed `RENUCA_WARMUP`.
pub fn default_threads() -> usize {
    let value = match std::env::var("RENUCA_THREADS") {
        Ok(v) => threads(Some(&v)),
        Err(std::env::VarError::NotPresent) => threads(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!("RENUCA_THREADS={v:?} is not UTF-8")),
    };
    match value {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    }
}

/// The worker count a `RENUCA_THREADS` value (`None` = unset) asks for:
/// `None` when unset, the count when it is a positive integer, else an
/// error naming the variable and its value.
fn threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = value else { return Ok(None) };
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "RENUCA_THREADS={v:?} is not a thread count (a positive integer)"
        )),
    }
}

/// Lock a mutex whether or not it is poisoned. The pool catches worker
/// panics itself (re-raising the first one), so a poisoned lock carries no
/// information here — recovering the guard keeps sibling slots readable
/// instead of replacing the original panic with a `PoisonError` abort.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Apply `f` to every item on up to [`default_threads`] workers, returning
/// results in item order (identical to `items.iter().map(f).collect()`).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_threads(items, default_threads(), f)
}

/// [`parallel_map`] with an explicit worker count. `threads <= 1` runs
/// serially on the caller's thread.
pub fn parallel_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if panicked.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // Catch the panic on the worker so (a) the original payload
                // survives to be re-raised on the caller's thread and (b) no
                // mutex is poisoned mid-store, which would turn siblings'
                // results into `PoisonError` aborts.
                match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(r) => *lock_unpoisoned(&slots[i]) = Some(r),
                    Err(p) => {
                        let mut first = lock_unpoisoned(&payload);
                        if first.is_none() {
                            *first = Some(p);
                        }
                        panicked.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some(p) = lock_unpoisoned(&payload).take() {
        // Re-raise the first worker's panic with its payload intact.
        resume_unwind(p);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| panic!("pool: slot {i} never filled"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            let par = parallel_map_threads(&items, threads, |x| x * x);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn renuca_threads_is_a_positive_integer_or_an_error() {
        assert_eq!(threads(None), Ok(None));
        assert_eq!(threads(Some("4")), Ok(Some(4)));
        assert_eq!(
            threads(Some(" 3 ")),
            Ok(Some(3)),
            "surrounding whitespace is fine"
        );
        for bad in ["all", "0", "-3", "4x", "", " "] {
            let err = threads(Some(bad)).expect_err(bad);
            assert!(
                err.contains(&format!("RENUCA_THREADS={bad:?}")),
                "error must name the variable and value: {err}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates_original_message() {
        let items: Vec<u64> = (0..64).collect();
        let err = std::panic::catch_unwind(|| {
            parallel_map_threads(&items, 4, |&x| {
                if x == 13 {
                    panic!("boom at item {x}");
                }
                x * 2
            })
        })
        .expect_err("a worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("boom at item 13"),
            "original panic payload must survive, got {msg:?}"
        );
    }

    #[test]
    fn one_of_many_panics_surfaces_without_poison_abort() {
        // Several workers panic concurrently: exactly one original payload
        // (any of them) must come back — never a PoisonError panic.
        let items: Vec<u64> = (0..128).collect();
        let err = std::panic::catch_unwind(|| {
            parallel_map_threads(&items, 8, |&x| {
                if x % 2 == 1 {
                    panic!("odd item {x}");
                }
                x
            })
        })
        .expect_err("panics must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("odd item "), "got {msg:?}");
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Later items finish first; order must hold anyway.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map_threads(&items, 8, |&x| {
            let spins = (31 - x) * 10_000;
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }
}
