//! Deterministic parallelism shared across the workspace: fork-join sharding
//! and a two-stage pipeline, both on `std` alone.
//!
//! Experiment sweeps are embarrassingly parallel across their points, so
//! they shard through [`parallel_map`]: `std::thread::scope` workers pull
//! indices off a shared atomic counter and write each result into its own
//! `std::sync::Mutex` slot — no `unsafe`, no cloning of inputs, and results
//! are always returned in input order, so parallel callers are bit-identical
//! to sequential ones.
//!
//! [`pipeline`] covers the orthogonal shape: a *sequence* of stages where
//! stage `k + 1`'s first half can start before stage `k`'s second half has
//! finished. A dedicated scoped producer thread runs `produce(i)` for every
//! index in order and sends into a `std::sync::mpsc::sync_channel` of depth
//! `K`; the calling thread receives items in order and runs
//! `consume(i, item)` — so the producer runs up to `K` finished items (plus
//! one in flight) ahead of the consumer while order, results, and the first
//! error are exactly those of the plain sequential interleaving, at any
//! depth. The `sm-server` dynamic simulator uses it with one batch of 16
//! epochs per item, planning up to `K` batches ahead of materialization
//! (`DynamicConfig::plan_ahead`): an item should carry enough work to pay
//! for the consumer's wake-up on each receive. A stage may
//! freely call [`parallel_map`] internally (stage threads are *not* marked as
//! workers), while a `pipeline` call from inside a `parallel_map` worker runs
//! inline so nesting never oversubscribes the machine.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

std::thread_local! {
    /// `true` while the current thread is a `parallel_map` worker: nested
    /// calls (an experiment sweep point running the pipelined server, say)
    /// run sequentially instead of oversubscribing the machine with
    /// `threads²` scoped threads.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Applies `f` to every item, using up to `available_parallelism` threads.
/// Results are returned in input order. Falls back to sequential execution
/// for tiny inputs and when called from inside another `parallel_map`
/// (the outer call already saturates the cores).
///
/// # Panics
/// Re-raises a worker's panic with its original payload.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 || IN_WORKER.get() {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    // A slot's critical section is one store that cannot panic, so a
    // poisoned slot still holds a consistent value.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let work = || {
            IN_WORKER.set(true);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            }
        };
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        // Joined explicitly so a worker's panic surfaces with its own
        // payload rather than `scope`'s generic one.
        for worker in workers {
            worker.join().unwrap_or_else(|panic| resume_unwind(panic));
        }
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner));
    // sm-lint: allow(no-panic-surface) — every worker was joined, and each worker fills its claimed slots before exiting
    results.map(|r| r.expect("every slot filled")).collect()
}

/// Runs a two-stage pipeline over the indices `0..n`: `produce(i)` executes
/// on a dedicated scoped thread, `consume(i, item)` on the calling thread, a
/// `sync_channel(depth)` holding at most `depth` finished-but-unconsumed
/// items between them. With `depth == 1` the classic overlap is realized —
/// `produce(k + 1)` runs while `consume(k)` does; a larger depth lets a
/// bursty producer run up to `depth` items (plus one in flight) ahead of a
/// slow consumer before backpressure blocks it, never further.
///
/// Semantics are exactly those of the sequential interleaving
/// `produce(0), consume(0), produce(1), consume(1), …`:
///
/// * items are consumed in index order;
/// * the returned `Vec` holds `consume`'s results in index order;
/// * the first error *in that interleaving* is returned — a `produce(k + 1)`
///   error is only surfaced after `consume(k)` succeeded, and a `consume(k)`
///   error wins over any concurrent later `produce` error;
/// * after an error, no later `consume` runs (the producer may have run
///   ahead by up to `depth + 1` items whose results are discarded).
///
/// Each stage owns one end of the channel, so either stage returning or
/// unwinding hangs up on the other: the consumer's receive loop ends after
/// the last item the producer sent, and a blocked `send` fails once the
/// consumer is gone.
///
/// The stage threads are deliberately **not** marked as `parallel_map`
/// workers: each stage may shard its own inner work across threads.
/// Conversely, calling `pipeline` from *inside* a `parallel_map` worker
/// runs both stages inline on the worker — same results, no thread
/// explosion. `n <= 1` also runs inline: there is nothing to overlap.
///
/// # Panics
/// Panics if `depth == 0`, and propagates panics from either stage.
pub fn pipeline<U, R, E, P, C>(
    n: usize,
    depth: usize,
    mut produce: P,
    mut consume: C,
) -> Result<Vec<R>, E>
where
    U: Send,
    E: Send,
    P: FnMut(usize) -> Result<U, E> + Send,
    C: FnMut(usize, U) -> Result<R, E>,
{
    // sm-lint: allow(no-panic-surface) — documented `# Panics` API precondition; a zero-depth channel cannot make progress
    assert!(depth >= 1, "pipeline depth must be at least 1");
    if n <= 1 || IN_WORKER.get() {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let item = produce(i)?;
            out.push(consume(i, item)?);
        }
        return Ok(out);
    }

    std::thread::scope(|scope| {
        // The buffer is allocated up front and never holds more than `n`.
        let (tx, rx) = mpsc::sync_channel(depth.min(n));
        let producer = scope.spawn(move || {
            for i in 0..n {
                if tx.send(produce(i)?).is_err() {
                    break; // the consumer hung up; its error wins
                }
            }
            Ok(())
        });
        let mut out = Vec::with_capacity(n);
        // Stops at the first `consume` error, or once the producer hung
        // up: after all `n` items, or after every item it sent before its
        // own error or panic — sequential error order.
        let consumed = rx
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| consume(i, item).map(|r| out.push(r)));
        // Hang up before joining, so a producer blocked in `send` stops.
        drop(rx);
        let produced = producer.join().unwrap_or_else(|panic| resume_unwind(panic));
        consumed.and(produced).map(|()| out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn works_on_small_inputs() {
        assert_eq!(parallel_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn handles_non_copy_results() {
        let items = vec!["a", "bb", "ccc"];
        let out = parallel_map(&items, |s| s.to_string());
        assert_eq!(out, vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        // A worker's panic must reach the caller as itself, not as the
        // generic payload `thread::scope` raises for an unjoined panic.
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                if x == 17 {
                    panic!("worker boom");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"worker boom"));
    }

    #[test]
    fn pipeline_matches_sequential_interleaving() {
        let produced = Mutex::new(Vec::new());
        let consumed = Mutex::new(Vec::new());
        let out: Result<Vec<usize>, ()> = pipeline(
            10,
            1,
            |i| {
                produced.lock().unwrap().push(i);
                Ok(i * 10)
            },
            |i, item| {
                consumed.lock().unwrap().push((i, item));
                Ok(item + 1)
            },
        );
        assert_eq!(
            out.unwrap(),
            (0..10).map(|i| i * 10 + 1).collect::<Vec<_>>()
        );
        assert_eq!(*produced.lock().unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(
            *consumed.lock().unwrap(),
            (0..10).map(|i| (i, i * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pipeline_handles_empty_and_single_item() {
        let none: Result<Vec<u32>, ()> = pipeline(0, 1, |_| Ok(1), |_, x| Ok(x));
        assert_eq!(none.unwrap(), Vec::<u32>::new());
        let one: Result<Vec<u32>, ()> = pipeline(1, 4, |i| Ok(i as u32), |_, x| Ok(x + 5));
        assert_eq!(one.unwrap(), vec![5]);
    }

    #[test]
    fn pipeline_producer_error_surfaces_after_prior_items_consumed() {
        let consumed = Mutex::new(Vec::new());
        let out: Result<Vec<usize>, String> = pipeline(
            8,
            2,
            |i| {
                if i == 3 {
                    Err(format!("produce {i} failed"))
                } else {
                    Ok(i)
                }
            },
            |i, item| {
                consumed.lock().unwrap().push(i);
                Ok(item)
            },
        );
        assert_eq!(out.unwrap_err(), "produce 3 failed");
        // Everything produced before the failure was consumed, in order.
        assert_eq!(*consumed.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn pipeline_consumer_error_wins_over_later_producer_error() {
        // The producer runs ahead and fails at 3, but the consumer already
        // failed at 2 — sequentially consume(2) happens before produce(3),
        // so the consumer's error must be the one reported.
        let out: Result<Vec<usize>, String> = pipeline(
            8,
            1,
            |i| {
                if i == 3 {
                    Err("producer".to_string())
                } else {
                    Ok(i)
                }
            },
            |i, item| {
                if i == 2 {
                    Err("consumer".to_string())
                } else {
                    Ok(item)
                }
            },
        );
        assert_eq!(out.unwrap_err(), "consumer");
    }

    #[test]
    fn pipeline_consumer_error_stops_producer_promptly_at_any_depth() {
        for depth in [1usize, 2, 4] {
            let produced = AtomicUsize::new(0);
            let out: Result<Vec<usize>, ()> = pipeline(
                1000,
                depth,
                |i| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
                |i, item| if i == 0 { Err(()) } else { Ok(item) },
            );
            assert!(out.is_err());
            // At most 1 consumed + `depth` buffered + 2 in flight items can
            // be produced before the abort is observed.
            assert!(
                produced.load(Ordering::Relaxed) <= depth + 3,
                "depth {depth}: produced {}",
                produced.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn pipeline_run_ahead_is_bounded_by_depth() {
        // The channel is the backpressure mechanism: at the moment
        // `consume(i)` starts, at most `i + 1` items were popped, at most
        // `depth` more sit finished in the buffer, and one more may be in
        // flight inside `produce` — so the producer can never have started
        // more than `i + depth + 2` productions, no matter how fast it is.
        for depth in [1usize, 2, 4, 8] {
            let produced = AtomicUsize::new(0);
            let out: Result<Vec<usize>, ()> = pipeline(
                200,
                depth,
                |i| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
                |i, item| {
                    let ahead = produced.load(Ordering::Relaxed);
                    assert!(
                        ahead <= i + depth + 2,
                        "depth {depth}: {ahead} productions started by consume({i})"
                    );
                    Ok(item)
                },
            );
            assert_eq!(out.unwrap().len(), 200);
        }
    }

    #[test]
    fn pipeline_depth_covering_n_lets_the_producer_finish_first() {
        // With depth ≥ n the channel never fills: the producer can run the
        // whole index range to completion while the consumer sits on its
        // first item. The consumer waits for exactly that before touching
        // anything — deadlock here would mean the capacity is not honored.
        const N: usize = 64;
        let produced = AtomicUsize::new(0);
        let out: Result<Vec<usize>, ()> = pipeline(
            N,
            N,
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                Ok(i * 3)
            },
            |_, item| {
                while produced.load(Ordering::Relaxed) < N {
                    std::thread::yield_now();
                }
                Ok(item)
            },
        );
        assert_eq!(out.unwrap(), (0..N).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_consumer_panic_propagates_instead_of_deadlocking() {
        // A panicking consumer must release the producer blocked in `push`
        // (depth 1 fills immediately at n = 100) and re-raise, not hang.
        let caught = std::panic::catch_unwind(|| {
            let _: Result<Vec<usize>, ()> = pipeline(100, 1, Ok, |i, item| {
                if i == 1 {
                    panic!("consumer boom");
                }
                Ok(item)
            });
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"consumer boom"));
    }

    #[test]
    fn pipeline_producer_panic_propagates_with_its_payload() {
        let consumed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            let _: Result<Vec<usize>, ()> = pipeline(
                8,
                2,
                |i| {
                    if i == 2 {
                        panic!("producer boom");
                    }
                    Ok(i)
                },
                |_, item| {
                    consumed.fetch_add(1, Ordering::Relaxed);
                    Ok(item)
                },
            );
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"producer boom"));
        // Everything produced before the panic still reached the consumer.
        assert_eq!(consumed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pipeline_inside_parallel_map_runs_inline_with_identical_results() {
        let outer: Vec<u64> = (0..16).collect();
        let out = parallel_map(&outer, |&x| {
            pipeline::<u64, u64, (), _, _>(8, 1, |i| Ok(x * 100 + i as u64), |_, v| Ok(v * 2))
                .unwrap()
                .into_iter()
                .sum::<u64>()
        });
        for (x, &v) in out.iter().enumerate() {
            let expect: u64 = (0..8).map(|i| (x as u64 * 100 + i) * 2).sum();
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn pipeline_stages_can_run_parallel_map_inside() {
        // Stage bodies are not marked as workers, so their inner
        // parallel_map calls behave exactly like top-level ones.
        let out: Result<Vec<u64>, ()> = pipeline(
            4,
            1,
            |i| {
                let items: Vec<u64> = (0..32).collect();
                Ok(parallel_map(&items, |&y| y + i as u64)
                    .into_iter()
                    .sum::<u64>())
            },
            |_, v| Ok(v),
        );
        let expect: Vec<u64> = (0..4u64).map(|i| (0..32).map(|y| y + i).sum()).collect();
        assert_eq!(out.unwrap(), expect);
    }

    #[test]
    fn nested_calls_run_sequentially_with_identical_results() {
        let outer: Vec<u64> = (0..64).collect();
        let out = parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..32).collect();
            // On a worker thread the nested call must not spawn again —
            // and either way the result is the plain sequential one.
            parallel_map(&inner, |&y| x * 100 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (x, &v) in out.iter().enumerate() {
            let expect: u64 = (0..32).map(|y| x as u64 * 100 + y).sum();
            assert_eq!(v, expect);
        }
    }
}
