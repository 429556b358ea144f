//! The async acquire facade: `acquire().await` over the service's one
//! acquire path.
//!
//! The paper's asynchronous-processes model — processes arbitrarily
//! delayed between steps — is exactly the execution regime of tasks
//! yielding to an executor, so an awaitable acquire is the faithful
//! production analogue of the sync API, not a bolt-on. The facade is a
//! [`std::future::poll_fn`] over std's `Waker`/`Poll` machinery only: no
//! external runtime, consistent with the workspace's vendored-stubs
//! constraint.
//!
//! An acquire never waits on another thread: it is a handful of TAS
//! probes on a pooled session. So the future runs
//! [`NameService::acquire_name`] on its first poll and returns
//! [`Poll::Ready`] — it is never `Pending`, and it holds nothing that a
//! drop would have to clean up. A single-task caller under
//! [`SeedPolicy::Fixed`](crate::SeedPolicy::Fixed) therefore produces the
//! *same sequence* as the sync path, which the golden tests pin, and
//! metrics and the oracle see the acquire through the sync path's
//! instrumentation seam.
//!
//! What the facade adds is ownership: [`AsyncNameGuard`] is the sync
//! [`NameGuard`] holding an [`Arc`] to the service instead of a borrow,
//! so a name can travel between tasks and threads and outlive the
//! handle that acquired it.

use std::future::Future;
use std::ops::Deref;
use std::sync::Arc;
use std::task::Poll;

use renaming_core::NamespaceExhausted;

use crate::guard::NameGuard;
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
    /// Any executor can drive the returned future, including the
    /// minimal ones in [`crate::exec`]. It acquires on its first poll
    /// and is never `Pending` (see the module docs); dropping it
    /// unpolled acquires nothing.
    ///
    /// # Errors
    ///
    /// Resolves to [`NamespaceExhausted`] when the namespace cannot hold
    /// another name; an acquire fails in no other way.
    pub fn acquire(&self) -> impl Future<Output = Result<AsyncNameGuard, NamespaceExhausted>> + '_ {
        std::future::poll_fn(move |_| {
            Poll::Ready(
                self.inner
                    .acquire_name()
                    .map(|name| NameGuard::new(Arc::clone(&self.inner), name)),
            )
        })
    }
}

impl Deref for AsyncNameService {
    type Target = NameService;

    fn deref(&self) -> &NameService {
        &self.inner
    }
}

/// Owned access to one asynchronously acquired name: the [`NameGuard`]
/// that [`AsyncNameService::acquire`] resolves to.
///
/// Dropping it is the release, which cannot fail and takes the sync
/// guard's path. Ownership is `'static`: the guard holds an [`Arc`] to
/// the service, so it can be moved into tasks, sent across threads, and
/// outlive the [`AsyncNameService`] handle that produced it. To keep the
/// name past the guard, detach it with [`NameGuard::into_name`].
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
pub type AsyncNameGuard = NameGuard<Arc<NameService>>;

#[cfg(test)]
mod tests {
    use std::pin::Pin;
    use std::task::Context;

    use super::*;
    use crate::{Algorithm, SeedPolicy};

    /// Polls `future` exactly once against a no-op waker.
    fn poll_once<F: Future>(future: Pin<&mut F>) -> Poll<F::Output> {
        future.poll(&mut Context::from_waker(std::task::Waker::noop()))
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
