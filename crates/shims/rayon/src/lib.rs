//! Offline API-compatible stand-in for the subset of `rayon` this workspace
//! uses.
//!
//! The build environment has no crates.io access, so this shim provides
//! `par_iter()` / `into_par_iter()` / `map` / `collect` over scoped OS
//! threads. Work is distributed **dynamically**: workers pull the next item
//! index from a shared atomic counter, so heterogeneous item costs (plans
//! whose simulations differ by orders of magnitude) balance across cores just
//! as they would under rayon's work stealing. `collect` is order-preserving —
//! results come back in item order regardless of which worker ran what, which
//! is what keeps parallel experiment runs bit-identical to sequential ones.
//!
//! Thread count resolution (first match wins):
//! 1. `ThreadPoolBuilder::new().num_threads(n).build_global()`,
//! 2. the `RAYON_NUM_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Returns the number of worker threads parallel operations will use.
pub fn current_num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Stand-in for `rayon::ThreadPoolBuilder` (only global configuration is
/// supported).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Starts building the global pool configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = automatic).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Installs the configuration globally. Unlike rayon, calling this more
    /// than once simply overwrites the previous configuration.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        CONFIGURED_THREADS.store(self.num_threads.unwrap_or(0), Ordering::Relaxed);
        Ok(())
    }
}

/// Error type of [`ThreadPoolBuilder::build_global`] (never produced by the
/// shim, present for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Worker threads currently spawned by in-flight parallel maps, across all
/// nesting levels. Nested maps (e.g. sweep points × plans) claim slots from
/// the same budget, so the configured thread count bounds the total spawned
/// threads instead of multiplying per level.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// RAII release of claimed worker slots (drop-safe under panics).
struct WorkerClaim(usize);

impl WorkerClaim {
    /// Claims up to `wanted` slots from the shared budget; returns `None`
    /// when the budget is exhausted (the caller then runs inline, which is
    /// itself the correct degradation: its parent worker already holds a
    /// slot). The claim is a single atomic compare-exchange, so simultaneous
    /// nested claims cannot each be granted the same remaining budget.
    fn take(wanted: usize) -> Option<WorkerClaim> {
        let budget = current_num_threads();
        let mut granted = 0usize;
        let claimed =
            ACTIVE_WORKERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |in_flight| {
                granted = budget.saturating_sub(in_flight).min(wanted);
                if granted <= 1 {
                    None
                } else {
                    Some(in_flight + granted)
                }
            });
        claimed.ok().map(|_| WorkerClaim(granted))
    }
}

impl Drop for WorkerClaim {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Sets the shared stop flag when its worker unwinds, so sibling workers
/// abandon the map instead of completing every remaining item first.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `f` over `0..n`, fanning out across worker threads with dynamic
/// (pull-based) distribution. Returns `(index, result)` pairs sorted by
/// index. `stop` inspects each result; once it returns `true` no *further*
/// indices are pulled (in-flight items still finish), mirroring rayon's
/// short-circuiting `Result` collect. Because indices are handed out
/// monotonically, every index below a stopping item is always present in the
/// output.
fn run_indexed<U, F, S>(n: usize, f: F, stop: S) -> Vec<(usize, U)>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    S: Fn(&U) -> bool + Sync,
{
    let run_inline = |n: usize| {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let u = f(i);
            let stopped = stop(&u);
            out.push((i, u));
            if stopped {
                break;
            }
        }
        out
    };
    if n <= 1 || current_num_threads() <= 1 {
        return run_inline(n);
    }
    let Some(claim) = WorkerClaim::take(n) else {
        return run_inline(n);
    };
    let workers = claim.0;
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let gathered: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let stopped = &stopped;
                let gathered = &gathered;
                let f = &f;
                let stop = &stop;
                scope.spawn(move || {
                    // If this worker panics (in `f`), stop the siblings from
                    // pulling further indices so the panic surfaces fail-fast
                    // instead of after every remaining item completes.
                    let _guard = StopOnPanic(stopped);
                    let mut local: Vec<(usize, U)> = Vec::new();
                    while !stopped.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let u = f(i);
                        if stop(&u) {
                            stopped.store(true, Ordering::Relaxed);
                        }
                        local.push((i, u));
                    }
                    gathered
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend(local);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                panic::resume_unwind(payload);
            }
        }
    });
    let mut pairs = gathered.into_inner().unwrap_or_else(|e| e.into_inner());
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs
}

/// Collection targets of [`ParallelMap::collect`].
pub trait FromParallelMap<U>: Sized {
    /// True when this result makes further items unnecessary (used to
    /// short-circuit, e.g. on the first `Err`).
    fn stop_early(_item: &U) -> bool {
        false
    }

    /// Builds the collection from `(index, result)` pairs sorted by index.
    /// The pairs cover `0..n` completely unless [`stop_early`] fired, in
    /// which case they cover every index up to (at least) the stopping item.
    ///
    /// [`stop_early`]: FromParallelMap::stop_early
    fn from_pairs(pairs: Vec<(usize, U)>, n: usize) -> Self;
}

impl<U> FromParallelMap<U> for Vec<U> {
    fn from_pairs(pairs: Vec<(usize, U)>, n: usize) -> Self {
        debug_assert_eq!(pairs.len(), n);
        pairs.into_iter().map(|(_, u)| u).collect()
    }
}

impl<V, E> FromParallelMap<Result<V, E>> for Result<Vec<V>, E> {
    fn stop_early(item: &Result<V, E>) -> bool {
        item.is_err()
    }

    // Indices are pulled monotonically, so everything below the first error
    // is present: the error returned is the lowest-index one, exactly as a
    // sequential collect would produce.
    fn from_pairs(pairs: Vec<(usize, Result<V, E>)>, _n: usize) -> Self {
        let mut out = Vec::with_capacity(pairs.len());
        for (_, item) in pairs {
            out.push(item?);
        }
        Ok(out)
    }
}

/// A parallel iterator over shared slice elements.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Pairs every element with its index.
    pub fn enumerate(self) -> ParEnumerate<'a, T> {
        ParEnumerate { items: self.items }
    }

    /// Maps every element through `f` in parallel.
    pub fn map<U, F>(
        self,
        f: F,
    ) -> ParallelMap<F, impl Fn(usize, &F) -> U + Sync + use<'a, T, U, F>>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        let items = self.items;
        ParallelMap {
            len: items.len(),
            f,
            apply: move |i: usize, f: &F| f(&items[i]),
        }
    }
}

/// A parallel iterator over `(index, &element)` pairs.
pub struct ParEnumerate<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParEnumerate<'a, T> {
    /// Maps every `(index, &element)` pair through `f` in parallel.
    pub fn map<U, F>(
        self,
        f: F,
    ) -> ParallelMap<F, impl Fn(usize, &F) -> U + Sync + use<'a, T, U, F>>
    where
        U: Send,
        F: Fn((usize, &'a T)) -> U + Sync,
    {
        let items = self.items;
        ParallelMap {
            len: items.len(),
            f,
            apply: move |i: usize, f: &F| f((i, &items[i])),
        }
    }
}

/// A parallel iterator over an owned range of `usize`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Maps every index through `f` in parallel.
    pub fn map<U, F>(self, f: F) -> ParallelMap<F, impl Fn(usize, &F) -> U + Sync>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let start = self.range.start;
        ParallelMap {
            len: self.range.len(),
            f,
            apply: move |i: usize, f: &F| f(start + i),
        }
    }
}

/// The result of a parallel `map`, awaiting `collect`.
pub struct ParallelMap<F, A> {
    len: usize,
    f: F,
    apply: A,
}

impl<F, A> ParallelMap<F, A> {
    /// Executes the map across worker threads and gathers ordered results.
    pub fn collect<C, U>(self) -> C
    where
        U: Send,
        A: Fn(usize, &F) -> U + Sync,
        F: Sync,
        C: FromParallelMap<U>,
    {
        let f = &self.f;
        let apply = &self.apply;
        let pairs = run_indexed(self.len, move |i| apply(i, f), C::stop_early);
        C::from_pairs(pairs, self.len)
    }
}

/// Conversion into a by-reference parallel iterator, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The element type.
    type Item: 'data;
    /// The iterator produced.
    type Iter;

    /// Creates a parallel iterator borrowing from `self`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParIter<'data, T>;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParIter<'data, T>;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// Conversion into an owning parallel iterator, mirroring
/// `rayon::iter::IntoParallelIterator` (ranges of `usize` only).
pub trait IntoParallelIterator {
    /// The iterator produced.
    type Iter;

    /// Creates a parallel iterator consuming `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// The usual glob import, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Iterator types, mirroring `rayon::iter`.
pub mod iter {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let doubled: Vec<u64> = items.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled.len(), items.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, items[i] * 2);
        }
    }

    #[test]
    fn enumerate_map_sees_correct_indices() {
        let items = vec![10u64, 20, 30, 40];
        let tagged: Vec<(usize, u64)> =
            items.par_iter().enumerate().map(|(i, x)| (i, *x)).collect();
        assert_eq!(tagged, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn range_map_collects_in_order() {
        let squares: Vec<usize> = (0..100).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[7], 49);
        assert_eq!(squares.len(), 100);
    }

    #[test]
    fn result_collect_short_circuits_to_err() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..64).collect();
        let ok: Result<Vec<usize>, String> = items.par_iter().map(|&x| Ok(x)).collect();
        assert_eq!(ok.unwrap().len(), 64);
        // An early error stops index hand-out: with the error at index 0 of
        // a large input, only a small prefix (bounded by the worker count,
        // not the input size) is ever computed.
        let big: Vec<usize> = (0..10_000).collect();
        let computed = AtomicUsize::new(0);
        let early: Result<Vec<usize>, String> = big
            .par_iter()
            .map(|&x| {
                computed.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    Err("first".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(early.unwrap_err(), "first");
        assert!(
            computed.load(Ordering::Relaxed) < 5_000,
            "error did not short-circuit: {} items computed",
            computed.load(Ordering::Relaxed)
        );
        let err: Result<Vec<usize>, String> = items
            .par_iter()
            .map(|&x| {
                if x == 13 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn worker_panic_stops_siblings_and_propagates() {
        use std::cell::RefCell;
        use std::sync::{Arc, Condvar, Mutex};

        /// Opens the latch when dropped.
        struct OpenOnDrop(Arc<(Mutex<bool>, Condvar)>);
        impl Drop for OpenOnDrop {
            fn drop(&mut self) {
                let (open, changed) = &*self.0;
                *open.lock().unwrap_or_else(|e| e.into_inner()) = true;
                changed.notify_all();
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<OpenOnDrop>> = const { RefCell::new(None) };
        }

        // Item 0 panics; every other item blocks on a latch that opens only
        // when the panicking worker's thread exits, which is after its
        // unwind raised the stop flag. So each sibling finishes at most the
        // one item it holds, and nobody drains the input, however the
        // threads are scheduled.
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let items: Vec<usize> = (0..10_000).collect();
        let computed = Mutex::new(Vec::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Vec<usize> = items
                .par_iter()
                .map(|&x| {
                    computed
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(std::thread::current().id());
                    if x == 0 {
                        ON_EXIT.with(|slot| *slot.borrow_mut() = Some(OpenOnDrop(latch.clone())));
                        panic!("worker down");
                    }
                    let (open, changed) = &*latch;
                    let mut open = open.lock().unwrap_or_else(|e| e.into_inner());
                    while !*open {
                        open = changed.wait(open).unwrap_or_else(|e| e.into_inner());
                    }
                    x
                })
                .collect();
        }));
        assert!(result.is_err(), "worker panic must propagate to the caller");
        let computed = computed.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut threads = computed.clone();
        threads.sort_unstable_by_key(|id| format!("{id:?}"));
        threads.dedup();
        assert_eq!(
            computed.len(),
            threads.len(),
            "panic did not stop siblings: {} items computed on {} threads",
            computed.len(),
            threads.len()
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        let out: Vec<u8> = items.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    // Single test for everything that touches the global thread
    // configuration (tests run concurrently; two tests mutating the global
    // builder would race).
    fn threads_env_and_builder_do_not_break_results() {
        crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(crate::current_num_threads(), 3);
        let items: Vec<u64> = (0..257).collect();
        let sums: Vec<u64> = items.par_iter().map(|x| x + 1).collect();
        assert_eq!(sums.iter().sum::<u64>(), (1..=257).sum::<u64>());

        // Nested maps draw from the shared budget (inner calls degrade to
        // inline once the budget is claimed) and stay order-correct.
        let outer: Vec<usize> = (0..6).collect();
        let nested: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..64)
                    .into_par_iter()
                    .map(|i| (o * 64 + i) as u64)
                    .collect();
                inner.iter().sum()
            })
            .collect();
        let expected: Vec<u64> = (0..6u64)
            .map(|o| (0..64).map(|i| o * 64 + i).sum())
            .collect();
        assert_eq!(nested, expected);

        crate::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }
}
