//! Minimal fork-join helpers over [`std::thread::scope`].
//!
//! The study pipeline's heavy stages — parsing five archive formats,
//! building five indices, annotating hundreds of listing episodes,
//! computing sixteen experiments — are embarrassingly parallel: every
//! task is pure and the output order is fixed by the input order, never
//! by completion order. This crate provides exactly the three shapes
//! those stages need and nothing more (no external dependencies, no
//! work-stealing runtime):
//!
//! * [`par_map`] — order-preserving map over a slice;
//! * [`par_for_each_mut`] — in-place parallel mutation of a slice;
//! * [`join`]/[`join3`]/[`join4`]/[`join5`]/[`par_join`] — heterogeneous
//!   fork-join for pipeline stages of differing types.
//!
//! # Determinism
//!
//! Results are always collected in input order, so every helper returns
//! byte-identical results regardless of the worker count — parallelism
//! changes wall-clock, never output. Panics in any task propagate to the
//! caller (the first panicking task's payload, after all workers have
//! been joined).
//!
//! # Worker count
//!
//! The default worker count is [`std::thread::available_parallelism`],
//! overridable with the `DROPLENS_THREADS` environment variable (values
//! `< 1` or unparsable fall back to the default). With one worker every
//! helper degrades to a plain sequential loop on the calling thread —
//! no threads are spawned at all.
//!
//! # Span nesting
//!
//! Every spawned chunk, and the spawned side of [`join`], adopts the
//! calling thread's innermost span frame ([`droplens_obs::Frame`]; a
//! thread-local push whether or not tracing is on), so a registry span
//! opened inside aggregates under the caller's path at any worker count.
//! When the global tracer ([`droplens_obs::trace::global`]) is enabled,
//! every spawned chunk also records a `task` span (category `par`) on its
//! worker's timeline, linked under the calling thread's span, carrying
//! `queue_wait_ns` (spawn-to-start latency), the chunk size and — with
//! the tracking allocator installed — the chunk's `alloc_bytes`/
//! `freed_bytes`/`peak_delta`, which roll up under the adopting stage
//! span exactly like its wall-clock does. The sequential paths are
//! untouched.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::thread;

use droplens_obs::{trace, Frame, Stopwatch};

/// A boxed heterogeneous task for [`par_join`].
pub type Task<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// The worker count: `DROPLENS_THREADS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 when unknown).
pub fn max_threads() -> usize {
    match std::env::var("DROPLENS_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`max_threads`] workers, preserving
/// input order in the output.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_with(max_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (used by the determinism
/// tests; `workers <= 1` runs inline on the calling thread).
pub fn par_map_with<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let frame = Frame::current();
    let queued = Stopwatch::start();
    let f = &f;
    let chunks: Vec<Vec<R>> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    in_task(frame, queued, ("items", part.len()), || {
                        part.iter().map(f).collect::<Vec<R>>()
                    })
                })
            })
            .collect();
        collect_all(handles)
    });
    let mut out = Vec::with_capacity(items.len());
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Apply `f` to every element of `items` in place, on up to
/// [`max_threads`] workers.
pub fn par_for_each_mut<T: Send>(items: &mut [T], f: impl Fn(&mut T) + Sync) {
    par_for_each_mut_with(max_threads(), items, f)
}

/// [`par_for_each_mut`] with an explicit worker count.
pub fn par_for_each_mut_with<T: Send>(workers: usize, items: &mut [T], f: impl Fn(&mut T) + Sync) {
    let workers = workers.min(items.len());
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let frame = Frame::current();
    let queued = Stopwatch::start();
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| {
                s.spawn(move || {
                    in_task(frame, queued, ("items", part.len()), || {
                        for item in part {
                            f(item);
                        }
                    })
                })
            })
            .collect();
        collect_all(handles);
    });
}

/// Run two closures, potentially in parallel, returning both results.
/// `a` runs on the calling thread; `b` on a scoped worker.
pub fn join<A, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B)
where
    A: Send,
    B: Send,
{
    if max_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let frame = Frame::current();
    thread::scope(|s| {
        let hb = s.spawn(move || {
            // Inherit the caller's open span so spans opened inside `b`
            // nest under it even though `b` runs on another thread.
            let _adopt = frame.adopt();
            b()
        });
        let ra = a();
        let rb = match hb.join() {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        };
        (ra, rb)
    })
}

/// Three-way [`join`].
pub fn join3<A, B, C>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
    c: impl FnOnce() -> C + Send,
) -> (A, B, C)
where
    A: Send,
    B: Send,
    C: Send,
{
    let ((ra, rb), rc) = join(|| join(a, b), c);
    (ra, rb, rc)
}

/// Four-way [`join`].
pub fn join4<A, B, C, D>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
    c: impl FnOnce() -> C + Send,
    d: impl FnOnce() -> D + Send,
) -> (A, B, C, D)
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
{
    let ((ra, rb), (rc, rd)) = join(|| join(a, b), || join(c, d));
    (ra, rb, rc, rd)
}

/// Five-way [`join`].
pub fn join5<A, B, C, D, E>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
    c: impl FnOnce() -> C + Send,
    d: impl FnOnce() -> D + Send,
    e: impl FnOnce() -> E + Send,
) -> (A, B, C, D, E)
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
    E: Send,
{
    let ((ra, rb, rc), (rd, re)) = join(|| join3(a, b, c), || join(d, e));
    (ra, rb, rc, rd, re)
}

/// Run a batch of same-typed heterogeneous tasks, returning results in
/// task order. Tasks are grouped into at most [`max_threads`] contiguous
/// batches, so the concurrency bound is respected even for long lists.
pub fn par_join<R: Send>(tasks: Vec<Task<'_, R>>) -> Vec<R> {
    par_join_with(max_threads(), tasks)
}

/// [`par_join`] with an explicit worker count.
pub fn par_join_with<R: Send>(workers: usize, tasks: Vec<Task<'_, R>>) -> Vec<R> {
    let workers = workers.min(tasks.len());
    if workers <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let chunk = tasks.len().div_ceil(workers);
    let mut batches: Vec<Vec<Task<'_, R>>> = Vec::with_capacity(workers);
    let mut rest = tasks;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        batches.push(rest);
        rest = tail;
    }
    batches.push(rest);
    let frame = Frame::current();
    let queued = Stopwatch::start();
    let results: Vec<Vec<R>> = thread::scope(|s| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                s.spawn(move || {
                    in_task(frame, queued, ("tasks", batch.len()), || {
                        batch.into_iter().map(|t| t()).collect::<Vec<R>>()
                    })
                })
            })
            .collect();
        collect_all(handles)
    });
    results.into_iter().flatten().collect()
}

/// Run one spawned chunk on its worker: adopt the calling thread's
/// `frame`, then run `work` inside the `task` trace span, stamped with
/// the spawn-to-start queue wait and the chunk `size` (inert when
/// tracing is disabled).
fn in_task<R>(
    frame: Frame,
    queued: Stopwatch,
    size: (&'static str, usize),
    work: impl FnOnce() -> R,
) -> R {
    let _adopt = frame.adopt();
    let mut span = trace::global().span("task", "par");
    span.arg_u64("queue_wait_ns", queued.elapsed_ns())
        .arg_u64(size.0, size.1 as u64);
    work()
}

/// Join every handle, then re-raise the first panic (if any). Joining
/// everything first keeps worker lifetimes inside the scope well-defined
/// before unwinding resumes.
fn collect_all<R>(handles: Vec<thread::ScopedJoinHandle<'_, R>>) -> Vec<R> {
    let mut out = Vec::with_capacity(handles.len());
    let mut panic = None;
    for h in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(payload) => {
                if panic.is_none() {
                    panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        for workers in [1, 2, 3, 8, 33] {
            let doubled = par_map_with(workers, &items, |&x| x * 2);
            assert_eq!(doubled.len(), items.len());
            for (i, v) in doubled.iter().enumerate() {
                assert_eq!(*v, 2 * i as u32, "workers={workers}");
            }
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_for_each_mut_touches_every_element() {
        for workers in [1, 4, 9] {
            let mut items: Vec<u64> = (0..257).collect();
            par_for_each_mut_with(workers, &mut items, |x| *x += 1);
            assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
        let (a, b, c, d, e) = join5(|| 1, || 2, || 3, || 4, || 5);
        assert_eq!((a, b, c, d, e), (1, 2, 3, 4, 5));
    }

    #[test]
    fn par_join_preserves_task_order() {
        for workers in [1, 2, 5, 16] {
            let tasks: Vec<Task<'_, usize>> = (0..40)
                .map(|i| {
                    let t: Task<'_, usize> = Box::new(move || i * 3);
                    t
                })
                .collect();
            let out = par_join_with(workers, tasks);
            assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_with(4, &items, |&x| {
                if x == 41 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn join_propagates_panics_from_spawned_side() {
        let result = std::panic::catch_unwind(|| {
            // Force the threaded path irrespective of the host's core
            // count by exercising join's spawned closure directly.
            thread::scope(|s| {
                let h = s.spawn(|| panic!("spawned side"));
                collect_all(vec![h]);
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_override_parses() {
        // Only checks the fallback contract; the env-var path is covered
        // by the cross-process determinism tests in droplens-core.
        assert!(max_threads() >= 1);
    }
}
