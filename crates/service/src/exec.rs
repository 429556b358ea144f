//! Minimal executors for driving the async facade without a runtime.
//!
//! The workspace vendors no async runtime (and the facade needs none:
//! [`AcquireFuture`](crate::AcquireFuture) is hand-rolled over std's
//! `Waker`/`Poll` machinery), so anything that holds an
//! [`AsyncNameService`](crate::AsyncNameService) — examples, tests, the
//! `service_throughput` and `oracle_churn` experiments, and the
//! benchmark's async probe — needs a way to drive futures to completion.
//! This module provides the two smallest correct shapes:
//!
//! * [`block_on`] — park the calling thread until one future resolves:
//!   the "one request at a time" handler loop;
//! * [`drive_all`] — round-robin a batch of futures on the calling
//!   thread until all resolve, interleaving their polls: the pipelined
//!   handler shape, where one thread serves many in-flight requests.
//!
//! Both are correct general-purpose executors for any `Future`, but
//! deliberately minimal: no spawning, no timers, no IO. Callers with a
//! real runtime should drive the facade from that instead; these exist
//! so that *not having one* is never a blocker.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// A waker that unparks a thread, with a notification flag so wakes
/// delivered between polls are never lost.
struct ThreadWaker {
    thread: Thread,
    notified: AtomicBool,
}

thread_local! {
    /// This thread's waker, while no executor call has it lent out.
    static IDLE_WAKER: Cell<Option<(Arc<ThreadWaker>, Waker)>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's waker, built once per thread and reused
/// by every [`block_on`] and [`drive_all`] call on it. It is taken out
/// for the call and put back afterwards, so a nested call finds the slot
/// empty and builds its own. A clone that outlives its call and wakes
/// later leaves a stale notification, which costs the thread's next
/// call at most one extra poll.
fn with_thread_waker<R>(f: impl FnOnce(&ThreadWaker, &mut Context<'_>) -> R) -> R {
    let (state, waker) = IDLE_WAKER.take().unwrap_or_else(|| {
        let state = ThreadWaker::current();
        let waker = Waker::from(Arc::clone(&state));
        (state, waker)
    });
    let output = f(&state, &mut Context::from_waker(&waker));
    IDLE_WAKER.set(Some((state, waker)));
    output
}

impl ThreadWaker {
    fn current() -> Arc<Self> {
        Arc::new(Self {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        })
    }

    /// Parks until a notification arrives, consuming it. Tolerates
    /// spurious unparks (re-checks the flag) and notifications that
    /// arrived before the park (skips it).
    fn wait(&self) {
        while !self.notified.swap(false, Ordering::SeqCst) {
            std::thread::park();
        }
    }
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            self.thread.unpark();
        }
    }
}

/// Drives `future` to completion on the calling thread, parking between
/// polls.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, AsyncNameService, NameService, exec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = AsyncNameService::new(NameService::builder(Algorithm::Rebatching, 8).build()?);
/// let guard = exec::block_on(service.acquire())?;
/// assert!(guard.value() < service.namespace_size());
/// # Ok(())
/// # }
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    with_thread_waker(|state, cx| loop {
        match future.as_mut().poll(cx) {
            Poll::Ready(output) => return output,
            Poll::Pending => state.wait(),
        }
    })
}

/// Drives a batch of futures to completion on the calling thread,
/// round-robin, returning their outputs in input order.
///
/// Polls every live future each pass (a shared waker cannot attribute a
/// wake to one future; with batch sizes in the tens, precise routing
/// would be all bookkeeping and no benefit), parking when a full pass
/// leaves all of them pending. This interleaves many in-flight futures
/// on one thread — the pipelined handler shape.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, AsyncNameService, NameService, exec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = AsyncNameService::new(NameService::builder(Algorithm::Rebatching, 8).build()?);
/// // Drive four in-flight acquires on this one thread; outputs come
/// // back in input order.
/// let guards: Vec<_> = exec::drive_all((0..4).map(|_| service.acquire()))
///     .into_iter()
///     .collect::<Result<_, _>>()?;
/// assert_eq!(service.held(), 4);
/// drop(guards);
/// assert_eq!(service.held(), 0);
/// # Ok(())
/// # }
/// ```
pub fn drive_all<F: Future>(futures: impl IntoIterator<Item = F>) -> Vec<F::Output> {
    // One entry per future: the pinned future while live, its output
    // once resolved.
    type Slot<F> = (Option<Pin<Box<F>>>, Option<<F as Future>::Output>);
    let mut slots: Vec<Slot<F>> = futures
        .into_iter()
        .map(|future| (Some(Box::pin(future)), None))
        .collect();
    with_thread_waker(|state, cx| loop {
        let mut live = 0usize;
        for (future, output) in &mut slots {
            let Some(pinned) = future else { continue };
            match pinned.as_mut().poll(cx) {
                Poll::Ready(value) => {
                    *output = Some(value);
                    *future = None;
                }
                Poll::Pending => live += 1,
            }
        }
        if live == 0 {
            break;
        }
        state.wait();
    });
    slots
        .into_iter()
        .map(|(_, output)| output.expect("every future resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A future that stays pending `yields` times, waking itself each
    /// time, then resolves — exercises the park/notify loop without any
    /// service machinery.
    struct YieldThen {
        yields: usize,
        value: usize,
    }

    impl Future for YieldThen {
        type Output = usize;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
            if self.yields == 0 {
                return Poll::Ready(self.value);
            }
            self.yields -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    #[test]
    fn block_on_resolves_a_yielding_future() {
        assert_eq!(block_on(YieldThen { yields: 5, value: 7 }), 7);
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn block_on_survives_cross_thread_wakes() {
        // The waker crosses to another thread; the blocked thread must
        // wake and complete (no lost notification, no deadlock).
        struct CrossThread {
            spawned: bool,
            done: Arc<AtomicBool>,
        }
        impl Future for CrossThread {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.done.load(Ordering::SeqCst) {
                    return Poll::Ready(());
                }
                if !self.spawned {
                    self.spawned = true;
                    let waker = cx.waker().clone();
                    let done = Arc::clone(&self.done);
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        done.store(true, Ordering::SeqCst);
                        waker.wake();
                    });
                }
                Poll::Pending
            }
        }
        block_on(CrossThread {
            spawned: false,
            done: Arc::new(AtomicBool::new(false)),
        });
    }

    #[test]
    fn calls_on_one_thread_share_a_waker_and_nested_calls_get_their_own() {
        let mut first = None;
        block_on(std::future::poll_fn(|cx| {
            first = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        let first = first.expect("captured");
        block_on(std::future::poll_fn(|cx| {
            assert!(cx.waker().will_wake(&first), "the thread's waker is reused");
            Poll::Ready(())
        }));
        let nested = block_on(std::future::poll_fn(|cx| {
            let outer = cx.waker().clone();
            let inner = block_on(std::future::poll_fn(|cx| {
                assert!(
                    !cx.waker().will_wake(&outer),
                    "a nested call builds its own"
                );
                Poll::Ready(5)
            }));
            Poll::Ready(inner + 1)
        }));
        assert_eq!(nested, 6);
        // The clone outlived its call; waking it now leaves a stale
        // notification, and the next calls still complete.
        first.wake();
        assert_eq!(block_on(YieldThen { yields: 2, value: 9 }), 9);
        assert_eq!(drive_all((0..3).map(|i| YieldThen { yields: i, value: i })), [0, 1, 2]);
    }

    #[test]
    fn drive_all_interleaves_and_preserves_order() {
        let outputs = drive_all((0..10).map(|i| YieldThen { yields: i, value: i }));
        assert_eq!(outputs, (0..10).collect::<Vec<_>>());
        assert!(drive_all(std::iter::empty::<YieldThen>()).is_empty());
    }
}
