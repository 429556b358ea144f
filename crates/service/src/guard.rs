//! RAII ownership of an acquired name, for sync and async callers alike.

use std::fmt;
use std::ops::Deref;

use renaming_core::Name;

use crate::metrics::ReleaseKind;
use crate::NameService;

/// Owned access to one acquired name; the name is released back to the
/// service when the guard drops.
///
/// Generic over how the guard holds its service, which is the only
/// difference between the two facades:
///
/// * [`NameService::acquire`] returns a `NameGuard<&NameService>`, which
///   borrows the service;
/// * [`AsyncNameService::acquire`](crate::AsyncNameService::acquire)
///   resolves to an [`AsyncNameGuard`](crate::AsyncNameGuard), a
///   `NameGuard<Arc<NameService>>`, which is `'static` and `Send`: it
///   can move between tasks and threads and outlive the handle that
///   acquired it.
///
/// While the guard lives, no other thread can hold the same name — that
/// is the renaming guarantee — so the value can be used as a dense slot
/// index into shared arrays (announcement tables, striped counters, ...).
///
/// Dropping the guard is the release, and a release cannot fail: every
/// backend recycles the name on drop (atomic slots reset their flag,
/// tournament slots bump their epoch, both O(1)). To keep the name past
/// the guard, detach it with [`into_name`](Self::into_name).
///
/// # Example
///
/// Dropping the guard is the release:
///
/// ```
/// use renaming_service::{Algorithm, NameService};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = NameService::builder(Algorithm::Rebatching, 8).build()?;
/// let guard = service.acquire()?;
/// assert_eq!(service.held(), 1);
/// drop(guard);
/// assert_eq!(service.held(), 0, "drop released the name");
/// # Ok(())
/// # }
/// ```
#[must_use = "dropping the guard immediately releases the name"]
pub struct NameGuard<S: Deref<Target = NameService>> {
    service: S,
    name: Name,
    armed: bool,
}

impl<S: Deref<Target = NameService>> NameGuard<S> {
    pub(crate) fn new(service: S, name: Name) -> Self {
        Self {
            service,
            name,
            armed: true,
        }
    }

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

    /// Detaches the name from the guard **without** releasing it. The
    /// caller takes over ownership and is responsible for an eventual
    /// [`NameService::release_name`].
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 4).build()?;
    /// let name = service.acquire()?.into_name();
    /// assert_eq!(service.held(), 1, "detached names stay held");
    /// let Ok(()) = service.release_name(name);
    /// assert_eq!(service.held(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn into_name(mut self) -> Name {
        self.armed = false;
        self.name
    }
}

impl<S: Deref<Target = NameService>> Deref for NameGuard<S> {
    type Target = Name;

    fn deref(&self) -> &Name {
        &self.name
    }
}

impl<S: Deref<Target = NameService>> Drop for NameGuard<S> {
    fn drop(&mut self) {
        if self.armed {
            self.service.release_as(self.name, ReleaseKind::GuardDrop);
        }
    }
}

impl<S: Deref<Target = NameService>> fmt::Debug for NameGuard<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameGuard")
            .field("name", &self.name)
            .field("algorithm", &self.service.algorithm())
            .finish()
    }
}

impl<S: Deref<Target = NameService>> fmt::Display for NameGuard<S> {
    /// Forwards to the name, so guards drop into format strings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.name, f)
    }
}
