//! The concurrent renaming object: one step machine, driven against a
//! shared array of hardware TAS slots.
//!
//! Every algorithm in this crate — the paper's three and the
//! [`baselines`](crate::baselines) — is a probe sequence over an array of
//! TAS objects, so one object type serves them all: [`RenamingObject`]
//! keeps a machine in its initial state and runs a copy of it through
//! [`driver::drive`] per acquisition. Each algorithm's public type
//! ([`crate::Rebatching`], [`crate::baselines::UniformRenaming`], …) is
//! an alias of it with that algorithm's constructors.

use std::sync::Arc;

use rand::Rng;

use renaming_sim::{Name, Renamer};
use renaming_tas::{AtomicTas, Tas, TasArray};

use crate::driver::{self, NameSession, ResetMachine};
use crate::RenamingError;

/// A concurrent renaming object: a shared array of TAS slots (names are
/// slot indices) and the step machine every acquisition runs against it.
///
/// Cloning is cheap (the machine's layout and the slot array are
/// shared); clones refer to the *same* namespace.
#[derive(Debug)]
pub struct RenamingObject<M, T: Tas = AtomicTas> {
    /// The machine in its initial state; each acquisition runs a copy.
    machine: M,
    capacity: usize,
    namespace: usize,
    slots: Arc<TasArray<T>>,
}

impl<M: Clone, T: Tas> Clone for RenamingObject<M, T> {
    /// Clones the handle; both handles share the same namespace.
    fn clone(&self) -> Self {
        Self {
            machine: self.machine.clone(),
            capacity: self.capacity,
            namespace: self.namespace,
            slots: Arc::clone(&self.slots),
        }
    }
}

impl<M, T: Tas> RenamingObject<M, T> {
    /// Assembles an object whose `machine` probes names in
    /// `0..namespace`, rejecting a slot array of any other length (an
    /// exhausted object must report the namespace it actually has).
    pub(crate) fn from_machine(
        machine: M,
        capacity: usize,
        namespace: usize,
        slots: Arc<TasArray<T>>,
    ) -> Result<Self, RenamingError> {
        if slots.len() != namespace {
            return Err(RenamingError::NamespaceExhausted { namespace });
        }
        Ok(Self {
            machine,
            capacity,
            namespace,
            slots,
        })
    }

    /// The namespace size `m` (names are in `0..m`).
    pub fn namespace_size(&self) -> usize {
        self.namespace
    }

    /// The capacity `n` the object was built for: the intended bound on
    /// concurrently held names.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying slot array (shared).
    pub fn slots(&self) -> &Arc<TasArray<T>> {
        &self.slots
    }

    /// Releases a previously acquired name, reopening its slot for future
    /// acquisitions — the *long-lived* renaming extension the paper's
    /// conclusion (§7) points at.
    ///
    /// Uniqueness and the namespace bound keep holding as long as at most
    /// `capacity` names are held simultaneously: a release reopens one
    /// slot, and every acquire still wins a slot exactly once between
    /// releases. The paper's step bounds are proven for the one-shot case
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if `name` is outside the namespace or not currently held —
    /// both indicate a caller bug (releasing a name you do not own would
    /// silently break uniqueness for another holder).
    pub fn release_name(&self, name: Name) {
        let namespace = self.namespace;
        assert!(
            name.value() < namespace,
            "name {name} outside the namespace 0..{namespace}"
        );
        // reset_slot keeps the array's O(1) win counter consistent.
        assert!(
            self.slots.reset_slot(name.value()),
            "releasing name {name} that is not held"
        );
    }
}

impl<M: Renamer + Clone, T: Tas> RenamingObject<M, T> {
    /// Acquires a unique name by driving a fresh copy of the machine
    /// against the shared slots — the paper's one-shot `GetName`, whose
    /// superseded wins stay set as the paper's accounting counts them
    /// (a [`session`](Self::session) recycles them instead).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if the machine gives
    /// up — only possible when more than `capacity` names are held.
    pub fn get_name<R: Rng>(&self, rng: &mut R) -> Result<Name, RenamingError> {
        let mut machine = self.machine.clone();
        driver::drive(&mut machine, &self.slots, rng)
    }

    /// The algorithm's short label (e.g. `"rebatching"`), as its machine
    /// reports it.
    pub fn algorithm(&self) -> &'static str {
        self.machine.algorithm()
    }
}

impl<M: ResetMachine + Clone, T: Tas> RenamingObject<M, T> {
    /// A per-thread session reusing one machine across acquires — the
    /// long-lived fast path: no machine construction (and no `Arc`
    /// refcount traffic) per operation, and every acquire recycles the
    /// wins its machine supersedes.
    pub fn session(&self) -> NameSession<M, T> {
        NameSession::new(self.machine.clone(), Arc::clone(&self.slots))
    }
}
