//! # sp-parallel
//!
//! Deterministic chunked worker-pool primitives shared by the trainer
//! (a run-scoped [`phase_pool`] that runs every training step), the
//! proximity builders (row-partitioned SpGEMM and wedge enumeration),
//! the walk-corpus generator, and the bench harness's experiment
//! sweeps.
//!
//! ## Determinism contract
//!
//! Every primitive in this crate produces **bit-identical output for
//! any thread count**, which is what lets the DP training pipeline
//! parallelise its hot paths without perturbing the privacy accounting
//! or the reproducibility of a seeded run:
//!
//! - Work is split into *chunks* whose boundaries are a function of the
//!   item count and the chunk size only — never of the thread count or
//!   of scheduling order. Threads race to *claim* chunks, but each
//!   chunk's result is written to its own slot and the slots are
//!   concatenated in chunk-index order after the pool joins.
//! - [`par_map`] and [`par_map_chunks`] therefore preserve input order
//!   exactly; since item computations are independent, the output is
//!   identical to the serial map for any thread count.
//! - [`par_reduce`] folds the per-chunk partials over a **fixed
//!   balanced binary tree** (adjacent pairs, repeated). Floating-point
//!   addition is not associative, so the *shape* of the reduction tree
//!   is part of the result; fixing the shape as a function of the chunk
//!   count alone makes the reduction thread-count-invariant. Callers
//!   that need the result to also be *chunk-size*-invariant must pass
//!   an explicit, fixed `chunk_size`.
//!
//! - [`phase_pool`] keeps one set of workers for a whole run and hands
//!   them numbered chunks phase by phase through [`Phase::claim`]; the
//!   same contract holds as long as each chunk's result depends only on
//!   its index.
//!
//! A panic inside a worker propagates to the caller when the scope
//! joins, or for [`phase_pool`] at the end of the phase it happened in
//! (the remaining chunks may or may not have run).
//!
//! Thread counts resolve through [`resolve_threads`]: an explicit
//! request wins, then the `SP_THREADS` environment variable, then
//! [`available_threads`]. The CI matrix runs the test suite under
//! `SP_THREADS` 1, 2 and 4 so any thread-count-dependent
//! nondeterminism fails there rather than in a paper table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a thread-count request: `Some(n)` wins (clamped to ≥ 1),
/// then the `SP_THREADS` environment variable, then
/// [`available_threads`].
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(t) = requested {
        return t.max(1);
    }
    if let Ok(v) = std::env::var("SP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    available_threads()
}

/// Default chunk size for `n` items on `threads` workers: four chunks
/// per worker for work-stealing slack, at least one item per chunk.
pub fn default_chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1)
}

/// Splits `0..n` into `chunk_size`-sized ranges (the last may be
/// short), runs `f` on each over a claim-by-atomic-counter worker pool,
/// and returns the per-chunk results in chunk order.
///
/// Chunk boundaries depend only on `n` and `chunk_size`, so the output
/// is identical for every `threads` value (see the crate-level
/// determinism contract).
///
/// # Panics
/// Panics if `chunk_size == 0`, or propagates the first worker panic.
pub fn par_map_chunks<R, F>(n: usize, chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk_size > 0, "par_map_chunks: chunk_size must be >= 1");
    if n == 0 {
        return Vec::new();
    }
    let nchunks = n.div_ceil(chunk_size);
    let chunk_range = |c: usize| (c * chunk_size)..(((c + 1) * chunk_size).min(n));
    let workers = threads.max(1).min(nchunks);

    if workers == 1 {
        // Inline fast path: same chunk boundaries, no thread spawn. The
        // per-step trainer pass relies on this being cheap.
        return (0..nchunks).map(|c| f(chunk_range(c))).collect();
    }

    // One slot per chunk: a whole chunk's result lands under a single
    // uncontended lock (each chunk index is claimed exactly once), in
    // contrast to the old harness design of one global mutex locked
    // once per item.
    let slots: Vec<Mutex<Option<R>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= nchunks {
                    break;
                }
                let r = f(chunk_range(c));
                *slots[c].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .expect("claimed chunk left no result")
        })
        .collect()
}

/// Order-preserving parallel map over a slice: `out[i] = f(&items[i])`.
///
/// Items are processed in chunks (whole chunks are written to
/// per-chunk slots — no per-item locking) and reassembled in input
/// order, so the result is identical to `items.iter().map(f)` for any
/// thread count.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1);
    let chunk = default_chunk_size(items.len(), threads);
    let blocks = par_map_chunks(items.len(), chunk, threads, |range| {
        items[range].iter().map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for block in blocks {
        out.extend(block);
    }
    out
}

/// Deterministic parallel reduction: maps each fixed-boundary chunk of
/// `0..n` to a partial with `map`, then folds the partials over a
/// balanced binary tree (adjacent pairs, repeated) with `combine`.
///
/// The tree shape depends only on the chunk count `⌈n / chunk_size⌉`,
/// so for a fixed `chunk_size` the result is bit-identical for every
/// thread count — the property the proximity and gradient reductions
/// need for seeded reproducibility. Returns `None` when `n == 0`.
pub fn par_reduce<A, M, C>(
    n: usize,
    chunk_size: usize,
    threads: usize,
    map: M,
    combine: C,
) -> Option<A>
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    C: Fn(A, A) -> A,
{
    let mut level: Vec<A> = par_map_chunks(n, chunk_size, threads, map);
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.into_iter().next()
}

/// One worker's view of a [`PhasePool`] phase.
pub struct Phase<'p> {
    worker: usize,
    next: &'p AtomicUsize,
}

impl Phase<'_> {
    /// This worker's index: 0 is the caller thread, `1..threads` the
    /// pool's own threads.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Claims the next unclaimed index of `0..chunks` in this phase, or
    /// `None` once all are claimed. Every worker of a phase must pass
    /// the same `chunks`; each index is handed out exactly once.
    pub fn claim(&self, chunks: usize) -> Option<usize> {
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < chunks).then_some(c)
    }
}

/// Spin iterations a waiting thread tries before it parks (about
/// 110 µs of `spin_loop` on a 2-vCPU Xeon VM). The caller's serial work
/// between two phases is shorter than that, so most hand-offs never
/// pay a futex wake-up — measured there at 17 µs per phase for a
/// parked pair against 0.7 µs spinning, and several times more while
/// the host is busy. A pool left idle for longer parks.
const SPINS: u32 = 1 << 12;

/// Shared synchronisation of one [`phase_pool`] run.
struct Gate {
    /// Phase generation: the caller bumps it to start a phase.
    epoch: AtomicUsize,
    /// Spawned workers finished with the current phase.
    done: AtomicUsize,
    stop: AtomicBool,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Threads parked in [`Gate::wait_until`].
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wakeup: Condvar,
}

impl Gate {
    /// Returns once `ready()` holds: spins first, then parks until a
    /// [`Gate::wake`] (all flags are `SeqCst`, so a wake cannot slip
    /// between the sleeper's last check and its park).
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPINS {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        // The lock guards no data, so a poisoned one is still usable;
        // this keeps `wake`, which `Release::drop` calls, panic-free.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !ready() {
            guard = self
                .wakeup
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes parked threads after a flag change they may wait on.
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wakeup.notify_all();
        }
    }

    /// Caller: starts the next phase.
    fn start(&self) {
        // The SeqCst `epoch` bump below publishes the reset counter to
        // the workers, which read `epoch` before they claim.
        self.next.store(0, Ordering::Relaxed);
        self.done.store(0, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.wake();
    }
}

/// Releases parked workers when the pool body returns or unwinds, so
/// the scope can join them.
struct Release<'g>(&'g Gate);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.start();
    }
}

/// Handle to a run-scoped worker pool, handed to the body of
/// [`phase_pool`].
pub struct PhasePool<'a> {
    threads: usize,
    work: &'a (dyn Fn(&Phase<'_>) + Sync),
    gate: &'a Gate,
}

impl PhasePool<'_> {
    /// Runs one phase: every worker, the calling thread as worker 0,
    /// calls the pool's work function once, and `run` returns when all
    /// have returned. The claim counter starts at 0 in every phase.
    ///
    /// # Panics
    /// Re-raises a panic of any worker's work function (the caller's
    /// own first). The pool stays joinable: no worker is left waiting.
    pub fn run(&self) {
        let gate = self.gate;
        let phase = Phase {
            worker: 0,
            next: &gate.next,
        };
        if self.threads == 1 {
            gate.next.store(0, Ordering::Relaxed);
            (self.work)(&phase);
            return;
        }
        gate.start();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| (self.work)(&phase)));
        gate.wait_until(|| gate.done.load(Ordering::SeqCst) == self.threads - 1);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        let theirs = gate.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }
}

/// Runs `body` with a worker pool that lives for the whole call.
///
/// The pool spawns `threads - 1` scoped threads once; between phases
/// they spin briefly, then park on a condition variable. Each
/// [`PhasePool::run`] wakes them, and every worker, the caller thread
/// as worker 0, calls `work` once.
/// `work` is the same function for the whole run, so it reads each
/// phase's inputs from state the caller owns (behind locks the caller
/// writes between phases) and splits the work with [`Phase::claim`].
/// A phase hand-off costs well under a microsecond while the workers
/// are still spinning, instead of a thread spawn and join (200–230 µs
/// for 2 threads).
///
/// With `threads <= 1` nothing is spawned: `run` calls `work` inline.
///
/// A worker panic is caught, handed to the caller at the end of its
/// phase, and re-raised there; when `body` returns or unwinds the
/// workers are released and joined.
pub fn phase_pool<W, B, R>(threads: usize, work: W, body: B) -> R
where
    W: Fn(&Phase<'_>) + Sync,
    B: FnOnce(&PhasePool<'_>) -> R,
{
    let threads = threads.max(1);
    let gate = Gate {
        epoch: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        next: AtomicUsize::new(0),
        panic: Mutex::new(None),
        sleepers: AtomicUsize::new(0),
        lock: Mutex::new(()),
        wakeup: Condvar::new(),
    };
    let pool = PhasePool {
        threads,
        work: &work,
        gate: &gate,
    };
    if threads == 1 {
        return body(&pool);
    }
    std::thread::scope(|scope| {
        for worker in 1..threads {
            let (gate, work) = (&gate, &work);
            scope.spawn(move || {
                let mut seen = 0;
                loop {
                    gate.wait_until(|| gate.epoch.load(Ordering::SeqCst) != seen);
                    seen = gate.epoch.load(Ordering::SeqCst);
                    if gate.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let phase = Phase {
                        worker,
                        next: &gate.next,
                    };
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| work(&phase))) {
                        gate.panic
                            .lock()
                            .expect("panic slot poisoned")
                            .get_or_insert(payload);
                    }
                    gate.done.fetch_add(1, Ordering::SeqCst);
                    gate.wake();
                }
            });
        }
        let _release = Release(&gate);
        body(&pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..97).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(&items, threads, |&x| x * 3 - 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 - 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[41], 4, |&x: &i32| x + 1), vec![42]);
    }

    #[test]
    fn par_map_chunks_uneven_boundaries() {
        // 10 items in chunks of 4 -> ranges 0..4, 4..8, 8..10.
        let ranges = par_map_chunks(10, 4, 3, |r| r);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn par_map_thread_count_invariant_on_floats() {
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let one = par_map(&items, 1, |&x| x.exp().ln_1p());
        for threads in [2, 3, 4, 8] {
            let many = par_map(&items, threads, |&x| x.exp().ln_1p());
            assert_eq!(
                one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                many.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_reduce_empty_is_none() {
        assert!(par_reduce(0, 8, 4, |_| 0.0f64, |a, b| a + b).is_none());
    }

    #[test]
    fn par_reduce_sums_match_for_any_thread_count() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.013)
            .collect();
        let reduce = |threads: usize| {
            par_reduce(
                xs.len(),
                256,
                threads,
                |r| xs[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let base = reduce(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                base.to_bits(),
                reduce(threads).to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panic_propagates_inline() {
        // threads=1 runs inline, so the payload surfaces verbatim.
        par_map_chunks(100, 10, 1, |r| {
            if r.start >= 50 {
                panic!("worker exploded");
            }
            r.len()
        });
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates_from_pool() {
        // With a real pool the panic resurfaces when the scope joins.
        par_map_chunks(100, 10, 4, |r| {
            if r.start >= 50 {
                panic!("worker exploded");
            }
            r.len()
        });
    }

    #[test]
    #[should_panic(expected = "chunk_size must be >= 1")]
    fn zero_chunk_size_rejected() {
        par_map_chunks(10, 0, 2, |r| r.len());
    }

    #[test]
    fn ten_k_trivial_map_is_not_contention_bound() {
        // Regression guard for the old one-Mutex-per-item slot design:
        // a 10k-item map with a trivial body must complete well inside
        // the stub-criterion per-sample budget (~1 ms), not serialise
        // on a lock. Generous bound for noisy shared CI runners.
        let items: Vec<u64> = (0..10_000).collect();
        let t0 = Instant::now();
        let out = par_map(&items, 4, |&x| x ^ 0x5EED);
        let dt = t0.elapsed();
        assert_eq!(out.len(), 10_000);
        assert_eq!(out[9_999], 9_999 ^ 0x5EED);
        assert!(
            dt.as_millis() < 250,
            "10k trivial par_map took {dt:?} — slot contention regression?"
        );
    }

    /// Runs `phases` phases on one pool; phase `p` maps `0..n(p)` in
    /// chunks of `chunk` into per-chunk slots, as the trainer does.
    fn pooled_chunks(threads: usize, phases: usize, chunk: usize) -> Vec<Vec<u64>> {
        let n_of = |p: usize| (p * 37) % 101;
        let current = Mutex::new(0usize);
        let slots: Vec<Mutex<u64>> = (0..101usize.div_ceil(chunk))
            .map(|_| Mutex::new(0))
            .collect();
        let f = |p: usize, r: Range<usize>| r.map(|i| (i * i) as u64 ^ p as u64).sum::<u64>();
        phase_pool(
            threads,
            |ph| {
                let p = *current.lock().unwrap();
                while let Some(c) = ph.claim(n_of(p).div_ceil(chunk)) {
                    *slots[c].lock().unwrap() = f(p, c * chunk..((c + 1) * chunk).min(n_of(p)));
                }
            },
            |pool| {
                (0..phases)
                    .map(|p| {
                        *current.lock().unwrap() = p;
                        pool.run();
                        let chunks = n_of(p).div_ceil(chunk);
                        slots[..chunks].iter().map(|s| *s.lock().unwrap()).collect()
                    })
                    .collect()
            },
        )
    }

    #[test]
    fn phase_pool_matches_par_map_chunks_over_thousands_of_phases() {
        let expect: Vec<Vec<u64>> = (0..3000)
            .map(|p| {
                let n = (p * 37) % 101;
                par_map_chunks(n, 7, 1, |r| {
                    r.map(|i| (i * i) as u64 ^ p as u64).sum::<u64>()
                })
            })
            .collect();
        for threads in [1, 2, 3] {
            assert_eq!(pooled_chunks(threads, 3000, 7), expect, "threads={threads}");
        }
    }

    #[test]
    fn phase_pool_threads1_spawns_no_thread() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let phases = phase_pool(
            1,
            |ph| {
                seen.lock()
                    .unwrap()
                    .push((ph.worker(), std::thread::current().id()))
            },
            |pool| {
                for _ in 0..5 {
                    pool.run();
                }
                5
            },
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), phases);
        assert!(seen.iter().all(|&(w, id)| w == 0 && id == caller));
    }

    #[test]
    fn phase_pool_runs_every_worker_once_per_phase() {
        let calls: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        phase_pool(
            4,
            |ph| {
                calls[ph.worker()].fetch_add(1, Ordering::Relaxed);
            },
            |pool| {
                for _ in 0..50 {
                    pool.run();
                }
            },
        );
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 50));
    }

    #[test]
    fn phase_pool_worker_panic_propagates_without_deadlock() {
        for threads in [2, 3] {
            let phase = AtomicUsize::new(0);
            let ran_after = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                phase_pool(
                    threads,
                    |ph| {
                        // The last worker fails mid-phase in phase 5.
                        if ph.worker() == threads - 1 && phase.load(Ordering::Relaxed) == 5 {
                            panic!("worker exploded in phase 5");
                        }
                    },
                    |pool| {
                        for p in 0..10 {
                            phase.store(p, Ordering::Relaxed);
                            pool.run();
                            ran_after.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                )
            }));
            let payload = outcome.expect_err("the worker panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"worker exploded in phase 5")
            );
            // Phases 0..5 completed; the failing phase never returned.
            assert_eq!(ran_after.load(Ordering::Relaxed), 5, "threads={threads}");
        }
    }

    #[test]
    fn phase_pool_caller_panic_releases_workers() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            phase_pool(
                3,
                |ph| {
                    if ph.worker() == 0 {
                        panic!("caller exploded");
                    }
                },
                |pool| pool.run(),
            )
        }));
        let payload = outcome.expect_err("the caller panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller exploded"));
    }

    #[test]
    fn resolve_threads_explicit_wins_and_clamps() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn default_chunk_size_covers_all_items() {
        for n in [0usize, 1, 5, 97, 1000] {
            for threads in [1usize, 2, 4, 16] {
                let c = default_chunk_size(n, threads);
                assert!(c >= 1);
                assert!(c * n.div_ceil(c.max(1)).max(1) >= n);
            }
        }
    }
}
