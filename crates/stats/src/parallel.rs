//! Order-preserving parallel map over independent work items.
//!
//! The studies' runs are pure functions of their seeds, and the
//! server's journal shards are pure functions of their directories:
//! each item builds its own state and shares nothing. This helper
//! hands such items to every core and returns the results in item
//! order, so an output does not depend on how many threads produced it
//! — which is why the worker count is taken from the host and is not
//! an option anywhere. It lives beside the splittable RNG for the same
//! reason that exists: results must not depend on scheduling.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// One worker per available CPU.
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item and returns the results in item order.
///
/// At most `workers` threads (and never more than there are items) take
/// items one at a time from a shared index, so a slow item delays only
/// the worker that drew it. The calling thread is one of the workers:
/// with one worker nothing is spawned and `f` runs inline, through the
/// same code. A panic in `f` becomes the call's panic once the other
/// workers have drained the remaining items; no partial result is
/// returned.
pub fn ordered_map<T, R, F>(
    workers: usize,
    items: impl IntoIterator<Item = T>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Each item sits in its own slot until the worker that draws its
    // index takes it; the slot's lock is what hands the item over, so
    // the index itself publishes nothing and can be relaxed.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let item = slot
                .lock()
                .expect("a slot is only locked to take its item")
                .take()
                .expect("each index is drawn once");
            done.push((i, f(item)));
        }
        done
    };
    let mut done = thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(slots.len()))
            .map(|_| scope.spawn(work))
            .collect();
        // If this thread's share panics, the scope still joins the
        // others before the panic leaves it.
        let mut done = work();
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(panic) => resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 100] {
            let out = ordered_map(workers, 0..57u64, |i| i * i);
            assert_eq!(
                out,
                (0..57u64).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
        assert_eq!(ordered_map(4, Vec::<u8>::new(), |b| b), Vec::<u8>::new());
    }

    /// Items are handed out by mutable reference too: each is visited
    /// exactly once whatever the interleaving.
    #[test]
    fn every_item_is_visited_once() {
        let mut hits = vec![0u32; 200];
        ordered_map(8, hits.iter_mut(), |h| *h += 1);
        assert!(hits.iter().all(|&h| h == 1));
    }

    /// With as many workers as items, every item must be in flight at
    /// once for the barrier to open: the workers really run side by
    /// side, and the calling thread is one of them.
    #[test]
    fn workers_run_concurrently_and_the_caller_is_one_of_them() {
        let n = 4;
        let barrier = Barrier::new(n);
        let caller = thread::current().id();
        let ids = ordered_map(n, 0..n, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert!(ids.contains(&caller));
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), n);
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids = ordered_map(1, 0..5, |_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    /// A panicking item fails the whole call — whichever thread drew it
    /// — with the item's own message, and the call returns (no hang).
    #[test]
    fn a_panicking_item_fails_the_call() {
        for workers in [1, 2, 8] {
            for bad in [0, 13, 39] {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    ordered_map(workers, 0..40, |i| {
                        assert!(i != bad, "item {i} is broken");
                        i
                    })
                }));
                let panic = result.expect_err("the call must not return a result");
                let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.contains(&format!("item {bad} is broken")),
                    "{workers} workers, bad item {bad}: {msg:?}"
                );
            }
        }
    }
}
