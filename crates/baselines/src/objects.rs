//! Concurrent objects over the baseline machines.
//!
//! The paper's algorithms ship both as step machines and as concurrent
//! objects; until now the baselines only existed as machines, so they
//! could be simulated but not actually *used* (or benchmarked) from real
//! threads. These wrappers drive the baseline machines against a shared
//! [`TasArray`] through [`renaming_core::driver::drive`] — the same
//! bridge the paper's objects use — so every baseline offers the same
//! `get_name` / `release_name` / `session` surface and can back the
//! `renaming-service` front-end.
//!
//! The randomly probing objects ([`UniformRenaming`],
//! [`DoublingRenaming`]) cap their machines at `16·m + 64` probes
//! (`m` = namespace size) so a full namespace surfaces as
//! [`RenamingError::NamespaceExhausted`] instead of an unbounded spin.
//! With at least one free slot the cap misfires with probability at most
//! `(1 - 1/m)^(16m) ≈ e^-16` per operation — negligible next to the
//! uniform baselines' own `Θ(log n)` tail the paper measures.

use std::sync::Arc;

use rand::Rng;

use renaming_core::driver::{self, NameSession};
use renaming_core::RenamingError;
use renaming_sim::Name;
use renaming_tas::{AtomicTas, ResettableTas, Tas, TasArray};

use crate::{DoublingUniformMachine, LinearScanMachine, SingleBatchMachine, UniformMachine};

/// Probe cap for the randomly probing machines: misfires with
/// probability at most `e^-16` per operation while a slot is free (see
/// the module docs).
fn give_up_cap(namespace: usize) -> u64 {
    16 * namespace as u64 + 64
}

macro_rules! common_object_impls {
    ($object:ident, $machine:ident $(, $extra:ident)*) => {
        impl<T: Tas> Clone for $object<T> {
            /// Clones the handle; both handles share the same namespace.
            fn clone(&self) -> Self {
                Self {
                    capacity: self.capacity,
                    slots: Arc::clone(&self.slots),
                    $($extra: self.$extra,)*
                }
            }
        }

        impl<T: Tas> $object<T> {
            /// Acquires a unique name by driving a fresh machine against
            /// the shared slots.
            ///
            /// # Errors
            ///
            /// Returns [`RenamingError::NamespaceExhausted`] if the
            /// machine gives up (only machines with a bounded probe plan
            /// ever do).
            pub fn get_name<R: Rng>(&self, rng: &mut R) -> Result<Name, RenamingError> {
                let mut machine = self.machine();
                driver::drive(&mut machine, &self.slots, rng)
            }

            /// The number of TAS slots (names are in `0..namespace_size`).
            pub fn namespace_size(&self) -> usize {
                self.slots.len()
            }

            /// The intended bound on concurrently held names.
            pub fn capacity(&self) -> usize {
                self.capacity
            }

            /// The underlying slot array (shared).
            pub fn slots(&self) -> &Arc<TasArray<T>> {
                &self.slots
            }

            /// A per-thread session reusing one machine across
            /// [`get_name`](Self::get_name)-equivalent calls.
            pub fn session(&self) -> NameSession<$machine, T> {
                NameSession::new(self.machine(), Arc::clone(&self.slots))
            }
        }

        impl<T: ResettableTas> $object<T> {
            /// Releases a previously acquired name, reopening its slot
            /// for future [`get_name`](Self::get_name) calls.
            ///
            /// # Panics
            ///
            /// Panics if `name` is outside the namespace or not currently
            /// held — both indicate a caller bug.
            pub fn release_name(&self, name: Name) {
                driver::release_checked(&self.slots, self.namespace_size(), name);
            }
        }
    };
}

/// The naive uniform-probing renamer as a concurrent object: each
/// acquisition probes uniformly random slots until it wins one.
///
/// Namespace `2n` for capacity `n` by default, mirroring the paper
/// objects' `ε = 1`.
#[derive(Debug)]
pub struct UniformRenaming<T: Tas = AtomicTas> {
    capacity: usize,
    slots: Arc<TasArray<T>>,
}

impl UniformRenaming<AtomicTas> {
    /// Creates an object for up to `capacity` concurrent holders over a
    /// `2 * capacity` namespace.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            slots: Arc::new(TasArray::new(2 * capacity)),
        }
    }
}

impl<T: Tas> UniformRenaming<T> {
    /// Builds the object over caller-provided slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if `slots` is not
    /// strictly larger than `capacity` (uniform probing needs slack to
    /// terminate).
    pub fn from_parts(capacity: usize, slots: Arc<TasArray<T>>) -> Result<Self, RenamingError> {
        if slots.len() <= capacity {
            return Err(RenamingError::NamespaceExhausted {
                namespace: slots.len(),
            });
        }
        Ok(Self { capacity, slots })
    }

    fn machine(&self) -> UniformMachine {
        UniformMachine::with_give_up(self.slots.len(), give_up_cap(self.slots.len()))
    }
}

common_object_impls!(UniformRenaming, UniformMachine);

/// The deterministic left-to-right scanner as a concurrent object:
/// *strong* renaming (namespace exactly `capacity`), `Θ(n)` worst-case
/// steps, heavy contention on the low slots.
#[derive(Debug)]
pub struct LinearScanRenaming<T: Tas = AtomicTas> {
    capacity: usize,
    slots: Arc<TasArray<T>>,
}

impl LinearScanRenaming<AtomicTas> {
    /// Creates an object with the optimal namespace: exactly `capacity`
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            slots: Arc::new(TasArray::new(capacity)),
        }
    }
}

impl<T: Tas> LinearScanRenaming<T> {
    /// Builds the object over caller-provided slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if `slots` is
    /// smaller than `capacity`.
    pub fn from_parts(capacity: usize, slots: Arc<TasArray<T>>) -> Result<Self, RenamingError> {
        if slots.len() < capacity {
            return Err(RenamingError::NamespaceExhausted {
                namespace: slots.len(),
            });
        }
        Ok(Self { capacity, slots })
    }

    fn machine(&self) -> LinearScanMachine {
        LinearScanMachine::bounded(self.slots.len())
    }
}

common_object_impls!(LinearScanRenaming, LinearScanMachine);

/// Ablation A1 as a concurrent object: a fixed budget of uniform probes
/// over the whole namespace, then the sequential backup scan.
#[derive(Debug)]
pub struct SingleBatchRenaming<T: Tas = AtomicTas> {
    capacity: usize,
    budget: usize,
    slots: Arc<TasArray<T>>,
}

impl SingleBatchRenaming<AtomicTas> {
    /// Creates an object for up to `capacity` concurrent holders over a
    /// `2 * capacity` namespace, with a `log2`-scale probe budget.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let namespace = 2 * capacity;
        let budget = (usize::BITS - namespace.leading_zeros()) as usize + 3;
        Self {
            capacity,
            budget,
            slots: Arc::new(TasArray::new(namespace)),
        }
    }
}

impl<T: Tas> SingleBatchRenaming<T> {
    /// Builds the object over caller-provided slots with an explicit
    /// random-probe budget.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if `slots` is
    /// smaller than `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` (forwarded from the machine).
    pub fn from_parts(
        capacity: usize,
        budget: usize,
        slots: Arc<TasArray<T>>,
    ) -> Result<Self, RenamingError> {
        if slots.len() < capacity {
            return Err(RenamingError::NamespaceExhausted {
                namespace: slots.len(),
            });
        }
        Ok(Self {
            capacity,
            budget,
            slots,
        })
    }

    fn machine(&self) -> SingleBatchMachine {
        SingleBatchMachine::new(self.slots.len(), self.budget)
    }
}

common_object_impls!(SingleBatchRenaming, SingleBatchMachine, budget);

/// The doubling-window strawman as a concurrent object: adaptive-ish
/// names, `Θ(log k)` window doublings per acquisition.
#[derive(Debug)]
pub struct DoublingRenaming<T: Tas = AtomicTas> {
    capacity: usize,
    probes_per_level: usize,
    slots: Arc<TasArray<T>>,
}

impl DoublingRenaming<AtomicTas> {
    /// Creates an object for up to `capacity` concurrent holders over a
    /// `4 * capacity` namespace (the window needs headroom to stop
    /// doubling), probing twice per window level.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            probes_per_level: 2,
            slots: Arc::new(TasArray::new(4 * capacity)),
        }
    }
}

impl<T: Tas> DoublingRenaming<T> {
    /// Builds the object over caller-provided slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if `slots` is not
    /// strictly larger than `capacity` (random probing needs slack to
    /// terminate).
    ///
    /// # Panics
    ///
    /// Panics if `probes_per_level == 0` or the namespace has fewer than
    /// 2 slots (forwarded from the machine).
    pub fn from_parts(
        capacity: usize,
        probes_per_level: usize,
        slots: Arc<TasArray<T>>,
    ) -> Result<Self, RenamingError> {
        if slots.len() <= capacity {
            return Err(RenamingError::NamespaceExhausted {
                namespace: slots.len(),
            });
        }
        Ok(Self {
            capacity,
            probes_per_level,
            slots,
        })
    }

    fn machine(&self) -> DoublingUniformMachine {
        DoublingUniformMachine::with_give_up(
            self.slots.len(),
            self.probes_per_level,
            give_up_cap(self.slots.len()),
        )
    }
}

common_object_impls!(DoublingRenaming, DoublingUniformMachine, probes_per_level);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            let name = session.get_name(&mut rng).expect("name");
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
        assert_eq!(err, RenamingError::NamespaceExhausted { namespace: 4 });
        object.release_name(Name::new(2));
        // The scan finds the reopened slot.
        assert_eq!(object.get_name(&mut rng).expect("name").value(), 2);
    }

    #[test]
    fn single_batch_object_recycles() {
        let object = SingleBatchRenaming::new(8);
        let names = drain_unique(8, |rng| object.get_name(rng).expect("name"));
        for &v in &names {
            object.release_name(Name::new(v));
        }
        assert_eq!(object.slots().set_count(), 0);
    }

    #[test]
    fn doubling_object_keeps_low_contention_names_small() {
        let object = DoublingRenaming::new(16);
        let mut rng = StdRng::seed_from_u64(5);
        let name = object.get_name(&mut rng).expect("name");
        // Solo acquisition stays in the initial tiny window.
        assert!(name.value() < 8, "solo name {name} should be near 0");
        object.release_name(name);
        assert_eq!(object.slots().set_count(), 0);
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
        assert_eq!(err, RenamingError::NamespaceExhausted { namespace: 4 });
        uniform.release_name(held[0]);
        assert!(uniform.get_name(&mut rng).is_ok(), "recovers after release");

        let slots: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(4));
        let doubling = DoublingRenaming::from_parts(2, 2, slots).unwrap();
        for _ in 0..4 {
            doubling.get_name(&mut rng).expect("free");
        }
        let err = doubling.get_name(&mut rng).unwrap_err();
        assert_eq!(err, RenamingError::NamespaceExhausted { namespace: 4 });
    }

    #[test]
    fn from_parts_validates_slack() {
        let tight: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(4));
        assert!(UniformRenaming::from_parts(4, Arc::clone(&tight)).is_err());
        assert!(LinearScanRenaming::from_parts(4, Arc::clone(&tight)).is_ok());
        assert!(DoublingRenaming::from_parts(4, 2, tight).is_err());
    }
}
