//! Model replacements for the `std::sync::atomic` types the service
//! uses: `AtomicBool`, `AtomicU64`, `AtomicUsize` and `AtomicPtr`, with
//! `load`, `store`, `swap`, compare-exchange and, on the integers,
//! `fetch_add`/`fetch_sub`. There is no model mutex: the code under
//! check is lock-free.
//!
//! Each type mirrors the std API exactly, so the service's
//! `sync_shim` module can re-export either this module or `std` under
//! a cfg switch. On a model thread every operation is a scheduler
//! yield point and feeds the vector-clock ordering detector; off the
//! model (no checker running, or an object left over from a previous
//! execution) operations fall back to plain sequentially-consistent
//! behavior with no scheduling, so code under `--cfg renaming_model`
//! still runs correctly in ordinary tests.
//!
//! Values live under a private mutex and reads always observe the
//! latest store (sequential consistency at the value level, like
//! loom's default); *ordering* bugs are surfaced by the detector
//! rather than by value weakening.

use std::panic::Location;
use std::sync::Mutex as StdMutex;

pub use std::sync::atomic::Ordering;

use crate::report::render_location;
use crate::scheduler::{self, AtomicMeta};

/// The shared core of every model atomic: detector metadata plus the
/// current value, each under its own lock (the scheduler serializes
/// model threads, so these locks only order model threads against
/// fallback accesses).
#[derive(Debug)]
struct AtomicCell<T> {
    meta: StdMutex<AtomicMeta>,
    value: StdMutex<T>,
    /// Where the atomic was created — its identity in race reports.
    created: String,
}

fn lock<T>(mutex: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: Copy> AtomicCell<T> {
    #[track_caller]
    fn new(value: T) -> Self {
        let mut meta = AtomicMeta::default();
        scheduler::record_creation(&mut meta, Location::caller());
        Self {
            meta: StdMutex::new(meta),
            value: StdMutex::new(value),
            created: render_location(Location::caller()),
        }
    }

    #[track_caller]
    fn load(&self, order: Ordering) -> T {
        scheduler::atomic_access(
            &self.meta,
            &self.value,
            &self.created,
            Some(order),
            None,
            false,
            Location::caller(),
            |_| None,
        )
        .unwrap_or_else(|| *lock(&self.value))
    }

    #[track_caller]
    fn store(&self, value: T, order: Ordering) {
        let done = scheduler::atomic_access(
            &self.meta,
            &self.value,
            &self.created,
            None,
            Some(order),
            false,
            Location::caller(),
            |_| Some(value),
        );
        if done.is_none() {
            *lock(&self.value) = value;
        }
    }

    #[track_caller]
    fn swap(&self, value: T, order: Ordering) -> T {
        scheduler::atomic_access(
            &self.meta,
            &self.value,
            &self.created,
            Some(order),
            Some(order),
            true,
            Location::caller(),
            |_| Some(value),
        )
        .unwrap_or_else(|| {
            let mut slot = lock(&self.value);
            std::mem::replace(&mut *slot, value)
        })
    }

    #[track_caller]
    fn rmw(&self, order: Ordering, op: impl Fn(T) -> T) -> T {
        scheduler::atomic_access(
            &self.meta,
            &self.value,
            &self.created,
            Some(order),
            Some(order),
            true,
            Location::caller(),
            |old| Some(op(old)),
        )
        .unwrap_or_else(|| {
            let mut slot = lock(&self.value);
            let old = *slot;
            *slot = op(old);
            old
        })
    }
}

impl<T: Copy + PartialEq> AtomicCell<T> {
    #[track_caller]
    fn compare_exchange(
        &self,
        current: T,
        new: T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<T, T> {
        scheduler::atomic_cas(
            &self.meta,
            &self.value,
            &self.created,
            current,
            new,
            success,
            failure,
            Location::caller(),
        )
        .unwrap_or_else(|| {
            let mut slot = lock(&self.value);
            if *slot == current {
                *slot = new;
                Ok(current)
            } else {
                Err(*slot)
            }
        })
    }
}

macro_rules! delegate_common {
    ($ty:ty) => {
        /// Loads the current value; a model-thread load is a scheduling
        /// point and an ordering-detector read.
        #[track_caller]
        pub fn load(&self, order: Ordering) -> $ty {
            self.0.load(order)
        }

        /// Stores a value; a model-thread store is a scheduling point
        /// and (for `Release`/`SeqCst`) publishes the thread's clock.
        #[track_caller]
        pub fn store(&self, value: $ty, order: Ordering) {
            self.0.store(value, order)
        }

        /// Atomically replaces the value, returning the previous one.
        #[track_caller]
        pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
            self.0.swap(value, order)
        }

        /// Strong compare-exchange with std semantics.
        #[track_caller]
        pub fn compare_exchange(
            &self,
            current: $ty,
            new: $ty,
            success: Ordering,
            failure: Ordering,
        ) -> Result<$ty, $ty> {
            self.0.compare_exchange(current, new, success, failure)
        }

        /// In the model there are no spurious failures, so the weak
        /// form is the strong form.
        #[track_caller]
        pub fn compare_exchange_weak(
            &self,
            current: $ty,
            new: $ty,
            success: Ordering,
            failure: Ordering,
        ) -> Result<$ty, $ty> {
            self.0.compare_exchange(current, new, success, failure)
        }
    };
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $ty:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name(AtomicCell<$ty>);

        impl $name {
            /// Creates the atomic, stamping the current model execution
            /// (if any) and the creation site for race reports.
            #[track_caller]
            pub fn new(value: $ty) -> Self {
                Self(AtomicCell::new(value))
            }

            delegate_common!($ty);

            /// Wrapping add, returning the previous value.
            #[track_caller]
            pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                self.0.rmw(order, |old| old.wrapping_add(value))
            }

            /// Wrapping subtract, returning the previous value.
            #[track_caller]
            pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                self.0.rmw(order, |old| old.wrapping_sub(value))
            }
        }
    };
}

int_atomic!(
    /// Model stand-in for [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    usize
);
int_atomic!(
    /// Model stand-in for [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    u64
);

/// Model stand-in for [`std::sync::atomic::AtomicBool`].
#[derive(Debug)]
pub struct AtomicBool(AtomicCell<bool>);

impl AtomicBool {
    /// Creates the atomic, stamping the current model execution (if
    /// any) and the creation site for race reports.
    #[track_caller]
    pub fn new(value: bool) -> Self {
        Self(AtomicCell::new(value))
    }

    delegate_common!(bool);
}

/// Model stand-in for [`std::sync::atomic::AtomicPtr`].
#[derive(Debug)]
pub struct AtomicPtr<T>(AtomicCell<*mut T>);

// SAFETY: like `std::sync::atomic::AtomicPtr`, this type stores the raw
// pointer purely as data behind its own synchronization; dereferencing
// the pointer is the caller's responsibility, exactly as with std.
unsafe impl<T> Send for AtomicPtr<T> {}
// SAFETY: all access to the stored pointer value goes through the inner
// mutexes, so shared references never race on the cell itself; the
// pointee's thread-safety is the caller's responsibility, as with std.
unsafe impl<T> Sync for AtomicPtr<T> {}

impl<T> AtomicPtr<T> {
    /// Creates the atomic, stamping the current model execution (if
    /// any) and the creation site for race reports.
    #[track_caller]
    pub fn new(value: *mut T) -> Self {
        Self(AtomicCell::new(value))
    }

    delegate_common!(*mut T);
}
