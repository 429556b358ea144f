//! RAII ownership of an acquired name.

use std::fmt;
use std::ops::Deref;

use renaming_core::Name;

use crate::metrics::ReleaseKind;
use crate::NameService;

/// Owned access to one acquired name; the name is released back to the
/// service when the guard drops.
///
/// Obtained from [`NameService::acquire`]. While the guard lives, no
/// other thread can hold the same name — that is the renaming
/// guarantee — so the value can be used as a dense slot index into
/// shared arrays (announcement tables, striped counters, ...).
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
pub struct NameGuard<'s> {
    service: &'s NameService,
    name: Name,
    armed: bool,
}

impl<'s> NameGuard<'s> {
    pub(crate) fn new(service: &'s NameService, name: Name) -> Self {
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
    pub fn service(&self) -> &'s NameService {
        self.service
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

impl Deref for NameGuard<'_> {
    type Target = Name;

    fn deref(&self) -> &Name {
        &self.name
    }
}

impl Drop for NameGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.service.release_as(self.name, ReleaseKind::GuardDrop);
        }
    }
}

impl fmt::Debug for NameGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameGuard")
            .field("name", &self.name)
            .field("algorithm", &self.service.algorithm())
            .finish()
    }
}

impl fmt::Display for NameGuard<'_> {
    /// Forwards to the name, so guards drop into format strings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.name, f)
    }
}
