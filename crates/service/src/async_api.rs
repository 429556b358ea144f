//! The async acquire facade: `acquire().await` over the service's one
//! acquire path.
//!
//! The paper's asynchronous-processes model — processes arbitrarily
//! delayed between steps — is exactly the execution regime of tasks
//! yielding to an executor, so an awaitable acquire is the faithful
//! production analogue of the sync API, not a bolt-on. The facade is a
//! hand-rolled [`Future`] over std's `Waker`/`Poll` machinery only: no
//! external runtime, consistent with the workspace's vendored-stubs
//! constraint.
//!
//! An acquire never waits on another thread: it is a handful of TAS
//! probes on a pooled session. So [`AcquireFuture`] runs
//! [`NameService::acquire_name`] on its first poll and returns
//! [`Poll::Ready`] — it is never `Pending`, and it holds nothing that a
//! drop would have to clean up. A single-task caller under
//! [`SeedPolicy::Fixed`](crate::SeedPolicy::Fixed) therefore produces the
//! *same sequence* as the sync path, which the golden tests pin, and
//! metrics and the oracle see the acquire through the sync path's
//! instrumentation seam.
//!
//! What the facade adds is ownership: [`AsyncNameGuard`] holds an
//! [`Arc`] to the service, so a name can travel between tasks and
//! threads and outlive the handle that acquired it.

use std::fmt;
use std::future::Future;
use std::ops::Deref;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use renaming_core::{Name, RenamingError};

use crate::metrics::ReleaseKind;
use crate::service::NameService;

/// A [`NameService`] driven through `async` acquires.
///
/// Wraps the service in an [`Arc`] (so guards can be `'static` and
/// travel between tasks) and exposes [`acquire`](Self::acquire) as a
/// future. Everything else — release, occupancy, worker accounting —
/// is reached through [`Deref`] to the inner service.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, NameService, exec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = renaming_service::AsyncNameService::new(
///     NameService::builder(Algorithm::Rebatching, 16).build()?,
/// );
/// let guard = exec::block_on(service.acquire())?;
/// assert!(guard.value() < service.namespace_size());
/// drop(guard); // name recycled, exactly like the sync guard
/// assert_eq!(service.held(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AsyncNameService {
    inner: Arc<NameService>,
}

impl AsyncNameService {
    /// Wraps `service` for async acquisition.
    pub fn new(service: NameService) -> Self {
        Self {
            inner: Arc::new(service),
        }
    }

    /// The wrapped service (also reachable through `Deref`).
    pub fn service(&self) -> &NameService {
        &self.inner
    }

    /// Acquires a unique name asynchronously, resolving to an RAII
    /// [`AsyncNameGuard`] that releases the name on drop.
    ///
    /// The returned future completes on its first poll (see the module
    /// docs); dropping it unpolled acquires nothing.
    ///
    /// # Errors
    ///
    /// Resolves to [`RenamingError::NamespaceExhausted`] when the
    /// namespace cannot hold another name.
    pub fn acquire(&self) -> AcquireFuture<'_> {
        AcquireFuture { service: self }
    }

    fn guard(&self, name: Name) -> AsyncNameGuard {
        AsyncNameGuard {
            service: Arc::clone(&self.inner),
            name,
            armed: true,
        }
    }
}

impl Deref for AsyncNameService {
    type Target = NameService;

    fn deref(&self) -> &NameService {
        &self.inner
    }
}

/// The future returned by [`AsyncNameService::acquire`].
///
/// Hand-rolled over std's task machinery — no runtime dependency; any
/// executor (including the minimal ones in the public [`crate::exec`]
/// module) can drive it. Every poll is `Ready`.
#[must_use = "futures do nothing unless polled"]
pub struct AcquireFuture<'s> {
    service: &'s AsyncNameService,
}

impl Future for AcquireFuture<'_> {
    type Output = Result<AsyncNameGuard, RenamingError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let handle = self.service;
        Poll::Ready(handle.service().acquire_name().map(|name| handle.guard(name)))
    }
}

impl fmt::Debug for AcquireFuture<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcquireFuture")
            .field("algorithm", &self.service.algorithm())
            .finish()
    }
}

/// Owned access to one asynchronously acquired name; the name is
/// released back to the service when the guard drops.
///
/// The async counterpart of [`crate::NameGuard`], with the same release
/// path ([`NameService::release_name`]) but `'static` ownership: the
/// guard holds an [`Arc`] to the service, so it can be
/// moved into tasks, sent across threads, and outlive the
/// [`AsyncNameService`] handle that produced it.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, AsyncNameService, NameService, exec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = AsyncNameService::new(NameService::builder(Algorithm::Rebatching, 8).build()?);
/// let guard = exec::block_on(service.acquire())?;
/// assert_eq!(service.held(), 1);
/// drop(guard);
/// assert_eq!(service.held(), 0, "drop released the name");
/// # Ok(())
/// # }
/// ```
#[must_use = "dropping the guard immediately releases the name"]
pub struct AsyncNameGuard {
    service: Arc<NameService>,
    name: Name,
    armed: bool,
}

impl AsyncNameGuard {
    /// The held name.
    pub fn name(&self) -> Name {
        self.name
    }

    /// The held name's integer value (always `< namespace_size`).
    pub fn value(&self) -> usize {
        self.name.value()
    }

    /// The service this guard belongs to.
    pub fn service(&self) -> &NameService {
        &self.service
    }

    /// Releases the name now, surfacing the backend's answer (drop
    /// swallows it).
    ///
    /// # Errors
    ///
    /// Every built-in backend accepts the release and returns `Ok`.
    pub fn release(mut self) -> Result<(), RenamingError> {
        self.armed = false;
        self.service.release_name(self.name)
    }

    /// Detaches the name from the guard **without** releasing it. The
    /// caller takes over ownership and is responsible for an eventual
    /// [`NameService::release_name`].
    pub fn into_name(mut self) -> Name {
        self.armed = false;
        self.name
    }
}

impl Deref for AsyncNameGuard {
    type Target = Name;

    fn deref(&self) -> &Name {
        &self.name
    }
}

impl Drop for AsyncNameGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.service.release_as(self.name, ReleaseKind::GuardDrop);
        }
    }
}

impl fmt::Debug for AsyncNameGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncNameGuard")
            .field("name", &self.name)
            .field("algorithm", &self.service.algorithm())
            .finish()
    }
}

impl fmt::Display for AsyncNameGuard {
    /// Forwards to the name, so guards drop into format strings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.name, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, SeedPolicy};

    /// Polls `future` exactly once against a throwaway waker.
    fn poll_once<F: Future>(future: Pin<&mut F>) -> Poll<F::Output> {
        let waker = crate::exec::test_waker();
        let mut cx = Context::from_waker(&waker);
        future.poll(&mut cx)
    }

    #[test]
    fn acquire_completes_on_first_poll() {
        let service = AsyncNameService::new(
            NameService::builder(Algorithm::Rebatching, 4)
                .seed_policy(SeedPolicy::Fixed(9))
                .build()
                .expect("build"),
        );
        let mut future = std::pin::pin!(service.acquire());
        let Poll::Ready(Ok(guard)) = poll_once(future.as_mut()) else {
            panic!("an acquire must complete synchronously");
        };
        assert!(guard.value() < service.namespace_size());
        drop(guard);
        assert_eq!(service.held(), 0);
    }
}
