//! Baseline renaming algorithms the paper's results are measured against.
//!
//! * [`UniformMachine`] — the naive strategy the paper's §4 dismisses:
//!   "if processes do just uniform random probes among all objects, then
//!   with probability 1 − o(1) some process will have to do Ω(log n)
//!   probes before it acquires a name". Experiment E10 reproduces that
//!   separation.
//! * [`LinearScanMachine`] — deterministic left-to-right scan: optimal
//!   namespace (`n` names), but Θ(n) worst-case steps and heavy contention.
//! * [`SingleBatchMachine`] — ablation A1: ReBatching's total probe budget
//!   spent uniformly over the whole namespace (no batch geometry), backup
//!   afterwards. Isolates what the geometric batches buy.
//!
//! All baselines implement [`renaming_sim::Renamer`], so they run under
//! the same adversaries, crash plans and reports as the paper's
//! algorithms. Uniform probing and the linear scan also implement
//! [`crate::ResetMachine`] and have a concurrent object —
//! [`UniformRenaming`], [`LinearScanRenaming`], both
//! [`RenamingObject`]s like the paper's objects — so they offer the same
//! `get_name` / `release_name` / `session` surface and plug into the
//! `renaming-service` front-end next to the paper's algorithms. The
//! single-batch machine stays a simulator machine: over the same
//! namespace its random probes are uniform probing's, so as a service
//! it would hand out uniform's names.
//!
//! [`UniformRenaming`] caps its machine at `16·m + 64` probes
//! (`m` = namespace size) so a full namespace surfaces as
//! [`NamespaceExhausted`](crate::NamespaceExhausted) instead of an
//! unbounded spin.
//! With at least one free slot the cap misfires with probability at most
//! `(1 - 1/m)^(16m) ≈ e^-16` per operation — negligible next to the
//! uniform baselines' own `Θ(log n)` tail the paper measures.

use std::sync::Arc;

use renaming_tas::{AtomicTas, Tas, TasArray};

use crate::{RenamingError, RenamingObject};

mod linear;
mod single_batch;
mod uniform;

pub use linear::LinearScanMachine;
pub use single_batch::SingleBatchMachine;
pub use uniform::UniformMachine;

/// Probe cap for uniform probing: misfires with
/// probability at most `e^-16` per operation while a slot is free (see
/// the module docs).
fn give_up_cap(namespace: usize) -> u64 {
    16 * namespace as u64 + 64
}

/// The naive uniform-probing renamer as a concurrent object: each
/// acquisition probes uniformly random slots until it wins one.
///
/// Namespace `2n` for capacity `n` by default, mirroring the paper
/// objects' `ε = 1`.
pub type UniformRenaming<T = AtomicTas> = RenamingObject<UniformMachine, T>;

impl UniformRenaming<AtomicTas> {
    /// Creates an object for up to `capacity` concurrent holders over a
    /// `2 * capacity` namespace.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self::from_parts(capacity, Arc::new(TasArray::new(2 * capacity)))
            .expect("2n slots leave slack")
    }
}

impl<T: Tas> UniformRenaming<T> {
    /// Builds the object over caller-provided slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::SlotArrayMismatch`] if `slots` is not
    /// strictly larger than `capacity` (uniform probing needs slack to
    /// terminate).
    pub fn from_parts(capacity: usize, slots: Arc<TasArray<T>>) -> Result<Self, RenamingError> {
        let namespace = slots.len();
        if namespace <= capacity {
            return Err(RenamingError::SlotArrayMismatch { slots: namespace });
        }
        let machine = UniformMachine::with_give_up(namespace, give_up_cap(namespace));
        Self::from_machine(machine, capacity, namespace, slots)
    }
}

/// The deterministic left-to-right scanner as a concurrent object:
/// *strong* renaming (namespace exactly `capacity`), `Θ(n)` worst-case
/// steps, heavy contention on the low slots.
pub type LinearScanRenaming<T = AtomicTas> = RenamingObject<LinearScanMachine, T>;

impl LinearScanRenaming<AtomicTas> {
    /// Creates an object with the optimal namespace: exactly `capacity`
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self::from_parts(capacity, Arc::new(TasArray::new(capacity))).expect("n slots hold n names")
    }
}

impl<T: Tas> LinearScanRenaming<T> {
    /// Builds the object over caller-provided slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::SlotArrayMismatch`] if `slots` is
    /// smaller than `capacity`.
    pub fn from_parts(capacity: usize, slots: Arc<TasArray<T>>) -> Result<Self, RenamingError> {
        let namespace = slots.len();
        if namespace < capacity {
            return Err(RenamingError::SlotArrayMismatch { slots: namespace });
        }
        let machine = LinearScanMachine::bounded(namespace);
        Self::from_machine(machine, capacity, namespace, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use renaming_sim::Name;

    fn drain_unique<F: FnMut(&mut StdRng) -> Name>(count: usize, mut acquire: F) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(99);
        let mut names: Vec<usize> = (0..count).map(|_| acquire(&mut rng).value()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate names handed out");
        names
    }

    #[test]
    fn uniform_object_acquires_releases_and_sessions() {
        let object = UniformRenaming::new(8);
        assert_eq!(object.namespace_size(), 16);
        assert_eq!(object.capacity(), 8);
        let names = drain_unique(8, |rng| object.get_name(rng).expect("name"));
        assert!(names.iter().all(|&v| v < 16));
        for &v in &names {
            object.release_name(Name::new(v));
        }
        assert_eq!(object.slots().set_count(), 0);
        let mut session = object.session();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let name = session.get_name_recycling(&mut rng).expect("name");
            object.release_name(name);
        }
        assert_eq!(object.slots().set_count(), 0);
    }

    #[test]
    fn linear_scan_is_strong_and_exhausts_cleanly() {
        let object = LinearScanRenaming::new(4);
        assert_eq!(object.namespace_size(), 4);
        let names = drain_unique(4, |rng| object.get_name(rng).expect("name"));
        assert_eq!(names, vec![0, 1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(0);
        let err = object.get_name(&mut rng).unwrap_err();
        assert_eq!(err, crate::NamespaceExhausted { namespace: 4 });
        object.release_name(Name::new(2));
        // The scan finds the reopened slot.
        assert_eq!(object.get_name(&mut rng).expect("name").value(), 2);
    }

    #[test]
    fn concurrent_threads_get_unique_names() {
        let object = UniformRenaming::new(32);
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let obj = object.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(3_000 + i as u64);
                    obj.get_name(&mut rng).expect("name").value()
                })
            })
            .collect();
        let mut names: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate names");
    }

    #[test]
    fn full_random_probing_namespaces_error_instead_of_spinning() {
        let uniform = UniformRenaming::new(2); // namespace 4
        let mut rng = StdRng::seed_from_u64(8);
        let held: Vec<Name> = (0..4).map(|_| uniform.get_name(&mut rng).expect("free")).collect();
        let err = uniform.get_name(&mut rng).unwrap_err();
        assert_eq!(err, crate::NamespaceExhausted { namespace: 4 });
        uniform.release_name(held[0]);
        assert!(uniform.get_name(&mut rng).is_ok(), "recovers after release");
    }

    #[test]
    fn from_parts_validates_slack() {
        let tight: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(4));
        assert!(UniformRenaming::from_parts(4, Arc::clone(&tight)).is_err());
        assert!(LinearScanRenaming::from_parts(4, tight).is_ok());
    }
}
