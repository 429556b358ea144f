//! Model replacements for the `std::thread` APIs the checked code uses:
//! `spawn`/`join` and `yield_now`. On a model thread these are
//! scheduling points with the happens-before edges std guarantees (the
//! spawn edge and the join edge); off the model they delegate to std.

use std::any::Any;
use std::panic::Location;

use crate::scheduler;

/// Cooperatively gives up the scheduling slot. In the model this is the
/// fair-yield point: the thread is not rescheduled until another thread
/// has taken a step.
#[track_caller]
pub fn yield_now() {
    scheduler::yield_now(Location::caller());
}

/// Handle for joining a spawned thread, like
/// [`std::thread::JoinHandle`].
#[derive(Debug)]
pub struct JoinHandle<T> {
    inner: JoinInner<T>,
}

enum JoinInner<T> {
    Std(std::thread::JoinHandle<T>),
    Model { tid: usize, _marker: std::marker::PhantomData<fn() -> T> },
}

impl<T> std::fmt::Debug for JoinInner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinInner::Std(_) => f.write_str("JoinInner::Std"),
            JoinInner::Model { tid, .. } => write!(f, "JoinInner::Model({tid})"),
        }
    }
}

impl<T: 'static> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result. A model
    /// join establishes the std join edge (everything the child did
    /// happens-before the join's return); if the child panicked the
    /// whole execution is torn down and reported by the checker, so
    /// the model arm never returns `Err`.
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            JoinInner::Std(handle) => handle.join(),
            JoinInner::Model { tid, .. } => {
                let result: Box<dyn Any + Send> = scheduler::join(tid, Location::caller());
                Ok(*result.downcast::<T>().expect("join result type matches spawn"))
            }
        }
    }
}

/// Spawns a thread: a model thread inside a check (with the spawn
/// happens-before edge), a real `std::thread` otherwise.
#[track_caller]
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    if scheduler::current_ctx().is_some() {
        let tid = scheduler::spawn(
            Box::new(move || Box::new(f()) as Box<dyn Any + Send>),
            Location::caller(),
        );
        JoinHandle { inner: JoinInner::Model { tid, _marker: std::marker::PhantomData } }
    } else {
        JoinHandle { inner: JoinInner::Std(std::thread::spawn(f)) }
    }
}
