//! Offline stand-in for `rayon`.
//!
//! The container has no registry access, so this crate provides the small
//! `par_iter` surface the workspace uses:
//!
//! * `(a..b).into_par_iter().map(f).collect::<Vec<_>>()` / `.for_each(f)`
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` / `.for_each(f)`, and
//!   `.collect_into_vec(&mut buf)` into a reused buffer
//! * [`join`] for two-way fork-join
//! * [`with_min_len`](ParRange::with_min_len) to override the sequential
//!   cutoff for call sites whose per-item work is known to be heavy
//!
//! Unlike the earlier revisions of this shim — which spawned fresh
//! `std::thread::scope` workers on **every** call — parallel work now runs
//! on a persistent work-stealing pool (the `pool` module): long-lived workers with
//! per-worker chunk deques, spawned lazily once and reused by every call
//! site. Each call still splits its index range into ~4 chunks per worker
//! (claimed dynamically, so uneven workloads — shards of a multi-market
//! drain, whose markets can differ wildly in size — don't serialize behind
//! the largest item) and always collects results in input order,
//! preserving determinism.
//!
//! **Sequential fast path:** inputs shorter than twice the minimum chunk
//! length (32 items by default) run inline on the calling thread without
//! touching the pool — below that, fork-join bookkeeping costs more than
//! the work. Call sites with few but expensive items (e.g. a multi-market
//! exchange draining a handful of dirty shards) opt out with
//! `.with_min_len(1)`. Single-threaded hosts always run inline.
//!
//! Pool size is `available_parallelism`, overridable once via the
//! `SSA_POOL_THREADS` environment variable (see the `pool` module).

mod pool;

/// The number of worker threads parallel calls may use (the configured pool
/// size; the pool itself spawns lazily on first parallel use). Mirrors
/// `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    pool::configured_workers()
}

/// Default minimum items per chunk; inputs below twice this length run
/// serially to keep fork-join overhead off tiny workloads.
const MIN_CHUNK: usize = 16;

/// Shareable raw pointer to the output buffer: every chunk writes a disjoint
/// index range, so concurrent use is sound.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

fn run_indexed_min<T, F>(len: usize, min_len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::new();
    run_indexed_into(len, min_len, f, &mut out);
    out
}

/// Writes `f(0), …, f(len − 1)` into `out` (cleared first) in index order,
/// reusing its allocation.
fn run_indexed_into<T, F>(len: usize, min_len: usize, f: F, out: &mut Vec<T>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    out.clear();
    let min_len = min_len.max(1);
    let workers = pool::configured_workers();
    // Sequential fast path: tiny inputs and single-core hosts never engage
    // the pool (no locks, no wakeups, no chunk bookkeeping).
    if workers < 2 || len < min_len.saturating_mul(2) {
        out.extend((0..len).map(f));
        return;
    }
    // Oversubscribe ~4 chunks per participating thread (the submitter works
    // too) and let threads claim chunks dynamically: a thread that drew a
    // cheap chunk immediately claims the next one, so an expensive item
    // delays only its own chunk instead of everything dealt behind it.
    let threads = (workers + 1).min(len / min_len).max(1);
    let num_chunks = (threads * 4).min(len.div_ceil(min_len)).max(1);
    let chunk = len.div_ceil(num_chunks);

    out.reserve(len);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let body = |lo: usize, hi: usize| {
        let p = out_ptr;
        for i in lo..hi {
            let v = f(i);
            // SAFETY: chunks cover disjoint ranges of 0..len, all within the
            // reserved capacity.
            unsafe { p.0.add(i).write(v) };
        }
    };
    pool::global().run(len, chunk, &body);
    // SAFETY: pool.run returned without re-throwing a panic, so every index
    // in 0..len was written exactly once. (On the panic path `out` keeps
    // length 0, leaking any written elements — safe.)
    unsafe { out.set_len(len) };
}

/// Two-way fork-join: runs both closures, the second on a scoped thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut rb = None;
    let ra = std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        rb = Some(hb.join().expect("parallel worker panicked"));
        ra
    });
    (ra, rb.unwrap())
}

/// Conversion into a parallel iterator (ranges, vectors).
pub trait IntoParallelIterator {
    /// Item type.
    type Item;
    /// Parallel-iterator type.
    type Iter;
    /// Converts self.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` on borrowed slices/vectors.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: 'a;
    /// Parallel-iterator type.
    type Iter;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

/// Parallel iterator over `usize` indices `start..end`.
pub struct ParRange {
    start: usize,
    end: usize,
    min_len: usize,
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
            min_len: MIN_CHUNK,
        }
    }
}

impl ParRange {
    /// Overrides the minimum chunk length (and with it the sequential
    /// cutoff, which sits at twice this value). Use `with_min_len(1)` when
    /// every item is expensive — e.g. one LP resolve per index — so even a
    /// handful of items fans out across the pool.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Maps each index through `f` (evaluated on collect/for_each).
    pub fn map<T, F: Fn(usize) -> T + Sync>(self, f: F) -> ParRangeMap<F> {
        ParRangeMap { range: self, f }
    }

    /// Runs `f` for every index in parallel.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        run_indexed_min(self.end - self.start, self.min_len, |i| f(self.start + i));
    }
}

/// Mapped parallel range.
pub struct ParRangeMap<F> {
    range: ParRange,
    f: F,
}

impl<T: Send, F: Fn(usize) -> T + Sync> ParRangeMap<F> {
    /// See [`ParRange::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.range.min_len = min_len.max(1);
        self
    }

    /// Executes the map in parallel, collecting results in index order.
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        let start = self.range.start;
        let f = self.f;
        C::from(run_indexed_min(
            self.range.end - start,
            self.range.min_len,
            |i| f(start + i),
        ))
    }

    /// Executes the map for its side effects.
    pub fn for_each(self) {
        let start = self.range.start;
        let f = self.f;
        run_indexed_min(self.range.end - start, self.range.min_len, |i| {
            f(start + i);
        });
    }

    /// Sums the mapped values.
    pub fn sum<S: std::iter::Sum<T> + Send>(self) -> S {
        let start = self.range.start;
        let f = self.f;
        run_indexed_min(self.range.end - start, self.range.min_len, |i| f(start + i))
            .into_iter()
            .sum()
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice {
            slice: self,
            min_len: MIN_CHUNK,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice {
            slice: self,
            min_len: MIN_CHUNK,
        }
    }
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// See [`ParRange::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Maps each element reference through `f`.
    pub fn map<U, F: Fn(&'a T) -> U + Sync>(self, f: F) -> ParSliceMap<'a, T, F> {
        ParSliceMap {
            slice: self.slice,
            min_len: self.min_len,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        run_indexed_min(self.slice.len(), self.min_len, |i| f(&self.slice[i]));
    }

    /// Enumerated variant yielding `(index, &item)`.
    pub fn enumerate(self) -> ParSliceEnumerate<'a, T> {
        ParSliceEnumerate {
            slice: self.slice,
            min_len: self.min_len,
        }
    }
}

/// Mapped borrowing parallel iterator.
pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    min_len: usize,
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParSliceMap<'a, T, F> {
    /// See [`ParRange::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Executes in parallel, collecting in input order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let (slice, f) = (self.slice, self.f);
        C::from(run_indexed_min(slice.len(), self.min_len, |i| f(&slice[i])))
    }

    /// Executes in parallel into `target` (cleared first), in input order,
    /// reusing its allocation. Mirrors
    /// `rayon::iter::IndexedParallelIterator::collect_into_vec`.
    pub fn collect_into_vec(self, target: &mut Vec<U>) {
        let (slice, f) = (self.slice, self.f);
        run_indexed_into(slice.len(), self.min_len, |i| f(&slice[i]), target);
    }

    /// Sums the mapped values.
    pub fn sum<S: std::iter::Sum<U> + Send>(self) -> S {
        let (slice, f) = (self.slice, self.f);
        run_indexed_min(slice.len(), self.min_len, |i| f(&slice[i]))
            .into_iter()
            .sum()
    }
}

/// Enumerated borrowing parallel iterator.
pub struct ParSliceEnumerate<'a, T> {
    slice: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParSliceEnumerate<'a, T> {
    /// Maps each `(index, &item)` pair through `f`.
    pub fn map<U, F: Fn((usize, &'a T)) -> U + Sync>(self, f: F) -> ParSliceEnumerateMap<'a, T, F> {
        ParSliceEnumerateMap {
            slice: self.slice,
            min_len: self.min_len,
            f,
        }
    }

    /// Runs `f` on every `(index, &item)` pair in parallel.
    pub fn for_each<F: Fn((usize, &'a T)) + Sync>(self, f: F) {
        run_indexed_min(self.slice.len(), self.min_len, |i| f((i, &self.slice[i])));
    }
}

/// Mapped enumerated borrowing parallel iterator.
pub struct ParSliceEnumerateMap<'a, T, F> {
    slice: &'a [T],
    min_len: usize,
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn((usize, &'a T)) -> U + Sync> ParSliceEnumerateMap<'a, T, F> {
    /// Executes in parallel, collecting in input order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let (slice, f) = (self.slice, self.f);
        C::from(run_indexed_min(slice.len(), self.min_len, |i| {
            f((i, &slice[i]))
        }))
    }
}

/// The glob import module mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{join, IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn slice_par_iter_sums() {
        let data: Vec<u64> = (0..500).collect();
        let s: u64 = data.par_iter().map(|&x| x).sum();
        assert_eq!(s, 499 * 500 / 2);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".repeat(3));
        assert_eq!(a, 2);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn small_inputs_run_serially_and_correctly() {
        let v: Vec<usize> = (0..3).into_par_iter().map(|i| i).collect();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn collect_into_vec_reuses_the_buffer_in_input_order() {
        let data: Vec<usize> = (0..1000).collect();
        let mut out = vec![7usize; 3];
        data.par_iter().map(|&x| x * 3).collect_into_vec(&mut out);
        assert!(out.iter().enumerate().all(|(i, &x)| x == 3 * i));
        let capacity = out.capacity();
        data[..10]
            .par_iter()
            .map(|&x| x + 1)
            .collect_into_vec(&mut out);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
        assert_eq!(out.capacity(), capacity);
    }

    #[test]
    fn with_min_len_one_fans_out_small_inputs() {
        // 6 items is below the default sequential cutoff but must still be
        // correct (and, on multi-worker pools, parallel) with min_len 1.
        let v: Vec<usize> = (0..6)
            .into_par_iter()
            .with_min_len(1)
            .map(|i| i * 3)
            .collect();
        assert_eq!(v, vec![0, 3, 6, 9, 12, 15]);
        let data: Vec<u64> = (0..5).collect();
        let s: u64 = data.par_iter().with_min_len(1).map(|&x| x * 2).sum();
        assert_eq!(s, 20);
    }

    #[test]
    fn repeated_calls_reuse_the_persistent_pool() {
        // Exercises pool reuse across many fork-joins (the exchange's drain
        // pattern): correctness must hold on every call, not just the one
        // that lazily spawned the workers.
        for round in 0..32usize {
            let v: Vec<usize> = (0..128).into_par_iter().map(|i| i + round).collect();
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + round));
        }
    }

    #[test]
    fn nested_par_iter_completes() {
        // A parallel body that itself goes parallel (sessions resolved on
        // the pool call par_iter internally): must not deadlock.
        let totals: Vec<u64> = (0..8)
            .into_par_iter()
            .with_min_len(1)
            .map(|i| {
                let inner: Vec<u64> = (0..64).into_par_iter().map(|j| (i + j) as u64).collect();
                inner.into_iter().sum()
            })
            .collect();
        for (i, t) in totals.iter().enumerate() {
            let expected: u64 = (0..64).map(|j| (i + j) as u64).sum();
            assert_eq!(*t, expected);
        }
    }

    #[test]
    fn uneven_workloads_keep_input_order() {
        // One early item is ~100x more expensive than the rest: dynamic
        // chunk claiming must still produce results in input order.
        let v: Vec<u64> = (0..4096)
            .into_par_iter()
            .map(|i| {
                let spins = if i == 7 { 200_000 } else { 2_000 };
                let mut acc = i as u64;
                for s in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
                }
                // keep the expensive part observable so it cannot be
                // optimized away; the checked value is just the index
                std::hint::black_box(acc);
                i as u64
            })
            .collect();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }
}
