//! The [`Namespace`] abstraction: one acquire/release surface over every
//! renaming backend in the workspace.

use rand::RngCore;

use renaming_baselines::{
    DoublingRenaming, LinearScanRenaming, SingleBatchRenaming, UniformRenaming,
};
use renaming_core::driver::NameSession;
use renaming_core::{
    AbandonedNames, AdaptiveRebatching, BatchAcquire, FastAdaptiveRebatching, Name, Rebatching,
    RenamingError,
};
use renaming_tas::rwtas::TournamentTas;
use renaming_tas::{AtomicTas, CountingTas, ResettableTas, Tas, TicketTas};

/// The TAS slot type of the register-based tournament backend: a
/// [`TournamentTas`] per name, adapted to the anonymous [`Tas`] interface
/// by ticketing.
///
/// Long-lived: the slot implements [`ResettableTas`] through the
/// tournament's epoch stamps — a release is a single O(1) epoch bump
/// that reopens the tree and reissues the ticket window, so
/// tournament-backed namespaces recycle names exactly like the atomic
/// ones.
///
/// # Example
///
/// The slot behaves like any resettable TAS — first caller per epoch
/// wins:
///
/// ```
/// use renaming_service::TournamentSlot;
/// use renaming_tas::rwtas::TournamentTas;
/// use renaming_tas::{ResettableTas, Tas, TasResult, TicketTas};
///
/// let slot: TournamentSlot = TicketTas::new(TournamentTas::new(4));
/// assert_eq!(slot.test_and_set(), TasResult::Won);
/// assert_eq!(slot.test_and_set(), TasResult::Lost);
/// slot.reset(); // O(1) epoch bump: the slot is a name being released
/// assert_eq!(slot.test_and_set(), TasResult::Won);
/// ```
pub type TournamentSlot = TicketTas<TournamentTas>;

/// An instrumented atomic slot: hardware TAS behind an operation counter,
/// for measuring real steps-per-acquire through the service (build such
/// backends with the objects' `from_parts` constructors and
/// [`crate::NameService::with_backend`]).
///
/// # Example
///
/// Count the TAS operations a service's acquires actually perform:
///
/// ```
/// use std::sync::Arc;
/// use renaming_service::{Epsilon, NameService, SeedPolicy};
/// use renaming_core::{BatchLayout, ProbeSchedule, Rebatching};
/// use renaming_tas::{AtomicTas, CountingTas, TasArray};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schedule = ProbeSchedule::paper(Epsilon::one(), 3)?;
/// let layout = BatchLayout::shared(16, schedule)?;
/// let slots = Arc::new(TasArray::from_slots(
///     (0..layout.namespace_size())
///         .map(|_| CountingTas::new(AtomicTas::new()))
///         .collect(),
/// ));
/// let backend = Arc::new(Rebatching::from_parts(layout, Arc::clone(&slots))?);
/// let service = NameService::with_backend(backend, SeedPolicy::Fixed(1));
///
/// let _guard = service.acquire()?;
/// let ops: u64 = (0..slots.len()).map(|i| slots.slot(i).tas_ops()).sum();
/// assert!(ops >= 1, "an acquire performs at least one TAS");
/// # Ok(())
/// # }
/// ```
pub type CountingSlot = CountingTas<AtomicTas>;

/// A long-lived loose-renaming object: a shared namespace `0..m` from
/// which threads acquire unique names and (on recyclable backends)
/// release them again.
///
/// This is the interchangeable-backend trait of the `renaming-service`
/// crate: the paper's three algorithms and all four baselines implement
/// it over hardware atomics *and* over the register-based tournament
/// substrate (long-lived there too, via the tournament's epoch-stamped
/// O(1) reset). Object-safe, so heterogeneous backends can sit behind
/// `Arc<dyn Namespace>`.
///
/// # Contract
///
/// * `acquire` returns a name no other thread currently holds; at most
///   [`capacity`](Self::capacity) names may be held simultaneously.
/// * `release` on a [`supports_release`](Self::supports_release) backend
///   makes the name available to future acquires. Releasing a name that
///   is not held is a caller bug and may panic.
/// * `namespace_size` bounds every returned name: `name < m`.
///
/// # Example
///
/// Drive any backend through the trait object:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use renaming_service::{Epsilon, Namespace};
/// use renaming_core::Rebatching;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let object = Rebatching::with_defaults(16, Epsilon::one())?;
/// let ns: &dyn Namespace = &object;
/// let mut rng = StdRng::seed_from_u64(1);
/// let name = ns.acquire(&mut rng)?;
/// assert!(name.value() < ns.namespace_size());
/// ns.release(name)?;
/// assert_eq!(ns.held(), 0);
/// # Ok(())
/// # }
/// ```
pub trait Namespace: Send + Sync {
    /// Acquires a unique name, drawing coins from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] when more names are
    /// requested than the backend can hold.
    fn acquire(&self, rng: &mut dyn RngCore) -> Result<Name, RenamingError>;

    /// Releases a held name, reopening its slot.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::ReleaseUnsupported`] on a one-shot
    /// backend. Every built-in backend — atomic, counting and the
    /// epoch-resettable register tournament — supports release; the
    /// error remains for custom `Namespace` implementations over
    /// non-resettable substrates.
    ///
    /// # Panics
    ///
    /// May panic if `name` is outside the namespace or not currently
    /// held — both are caller bugs.
    fn release(&self, name: Name) -> Result<(), RenamingError>;

    /// The namespace size `m`: every acquired name is in `0..m`.
    fn namespace_size(&self) -> usize;

    /// The maximum number of simultaneously held names the backend is
    /// provisioned for (the paper's `n`).
    fn capacity(&self) -> usize;

    /// Names currently held (an O(1) relaxed counter; advisory under
    /// concurrency).
    fn held(&self) -> usize;

    /// A short label of the backing algorithm (e.g. `"rebatching"`).
    fn algorithm(&self) -> &'static str;

    /// Whether [`release`](Self::release) recycles names on this backend.
    fn supports_release(&self) -> bool;
}

/// A pooled per-worker acquisition handle: one reusable machine bound to
/// the backend's shared slots.
///
/// [`crate::NameService`] keeps a pool of these so steady-state acquires
/// construct no machine (and touch no `Arc` refcounts). Implemented by
/// [`NameSession`] for every machine/backend combination.
///
/// # Example
///
/// Sessions come from [`ServiceBackend::open_session`]; each drives its
/// own reusable machine against the backend's shared slots:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use renaming_service::{Epsilon, PooledSession, ServiceBackend};
/// use renaming_core::Rebatching;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let object = Rebatching::with_defaults(8, Epsilon::one())?;
/// let mut session: Box<dyn PooledSession> = object.open_session();
/// let mut rng = StdRng::seed_from_u64(9);
/// let name = session.acquire(&mut rng)?;
/// assert!(name.value() < 16);
/// # Ok(())
/// # }
/// ```
pub trait PooledSession: Send {
    /// Acquires a unique name, reusing this session's machine.
    ///
    /// # Errors
    ///
    /// As for the owning backend's [`Namespace::acquire`].
    fn acquire(&mut self, rng: &mut dyn RngCore) -> Result<Name, RenamingError>;

    /// Acquires `count` unique names in one batched sweep, appending
    /// them to `out` (see [`renaming_core::BatchAcquire`]). The machine
    /// is rearmed, not reset, between wins, so batch-structured machines
    /// amortize their probe state across the whole batch.
    /// `acquire_batch(1, ..)` is exactly [`acquire`](Self::acquire).
    /// [`crate::NameService`] never calls it: each acquire drives its
    /// own session, one name at a time.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if the namespace
    /// cannot satisfy the whole batch; names already won stay acquired
    /// and are left in `out`.
    fn acquire_batch(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), RenamingError>;
}

impl<M, T> PooledSession for NameSession<M, T>
where
    M: BatchAcquire + Send,
    T: Tas,
{
    fn acquire(&mut self, mut rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
        self.get_name(&mut rng)
    }

    fn acquire_batch(
        &mut self,
        count: usize,
        mut rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), RenamingError> {
        NameSession::acquire_batch(self, count, &mut rng, out)
    }
}

/// A pooled session over a resettable substrate: acquires recycle the
/// surplus TAS wins the adaptive machines supersede (see
/// [`renaming_core::AbandonedNames`]), so long-lived churn leaks no
/// slots.
struct RecyclingSession<M, T>(NameSession<M, T>)
where
    M: BatchAcquire + AbandonedNames + Send,
    T: ResettableTas;

impl<M, T> PooledSession for RecyclingSession<M, T>
where
    M: BatchAcquire + AbandonedNames + Send,
    T: ResettableTas,
{
    fn acquire(&mut self, mut rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
        self.0.get_name_recycling(&mut rng)
    }

    fn acquire_batch(
        &mut self,
        count: usize,
        mut rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), RenamingError> {
        self.0.acquire_batch_recycling(count, &mut rng, out)
    }
}

/// A [`Namespace`] that can open [`PooledSession`]s — everything
/// [`crate::NameService`] needs from a backend.
///
/// # Example
///
/// A session acquires against the same shared slots as the object it
/// was opened from, reusing one machine across calls:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use renaming_service::{Epsilon, Namespace, ServiceBackend};
/// use renaming_core::Rebatching;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let object = Rebatching::with_defaults(8, Epsilon::one())?;
/// let mut session = object.open_session();
/// let mut rng = StdRng::seed_from_u64(3);
/// let a = session.acquire(&mut rng)?;
/// let b = session.acquire(&mut rng)?;
/// assert_ne!(a, b);
/// assert_eq!(Namespace::held(&object), 2);
/// # Ok(())
/// # }
/// ```
pub trait ServiceBackend: Namespace {
    /// Opens a fresh session over this backend's shared slots.
    fn open_session(&self) -> Box<dyn PooledSession>;
}

/// Implements `Namespace` + `ServiceBackend` for a concrete object type.
///
/// Every backend is long-lived (`release`): releases go to the object's
/// `release_name`, and acquires run in recycling mode so the adaptive
/// algorithms' superseded search wins return to the namespace. The
/// register-tournament slots joined this path when they gained the
/// epoch-stamped reset ([`TournamentSlot`] implements [`ResettableTas`]);
/// the former `one_shot` arm — `ReleaseUnsupported`, leak-on-drop — is
/// gone.
macro_rules! impl_namespace {
    ($ty:ty, $label:literal, $size:ident, release) => {
        impl ServiceBackend for $ty {
            fn open_session(&self) -> Box<dyn PooledSession> {
                Box::new(RecyclingSession(self.session()))
            }
        }

        impl Namespace for $ty {
            impl_namespace!(@shared $label, $size, get_name_recycling);

            fn release(&self, name: Name) -> Result<(), RenamingError> {
                self.release_name(name);
                Ok(())
            }

            fn supports_release(&self) -> bool {
                true
            }
        }
    };
    (@shared $label:literal, $size:ident, $acquire:ident) => {
        fn acquire(&self, mut rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
            self.$acquire(&mut rng)
        }

        fn namespace_size(&self) -> usize {
            self.$size()
        }

        fn capacity(&self) -> usize {
            self.capacity()
        }

        fn held(&self) -> usize {
            self.slots().set_count()
        }

        fn algorithm(&self) -> &'static str {
            $label
        }
    };
}

impl_namespace!(Rebatching<AtomicTas>, "rebatching", namespace_size, release);
impl_namespace!(AdaptiveRebatching<AtomicTas>, "adaptive-rebatching", total_size, release);
impl_namespace!(FastAdaptiveRebatching<AtomicTas>, "fast-adaptive-rebatching", total_size, release);
impl_namespace!(UniformRenaming<AtomicTas>, "uniform", namespace_size, release);
impl_namespace!(LinearScanRenaming<AtomicTas>, "linear-scan", namespace_size, release);
impl_namespace!(SingleBatchRenaming<AtomicTas>, "single-batch", namespace_size, release);
impl_namespace!(DoublingRenaming<AtomicTas>, "doubling-uniform", namespace_size, release);

impl_namespace!(Rebatching<CountingSlot>, "rebatching", namespace_size, release);
impl_namespace!(AdaptiveRebatching<CountingSlot>, "adaptive-rebatching", total_size, release);
impl_namespace!(FastAdaptiveRebatching<CountingSlot>, "fast-adaptive-rebatching", total_size, release);

impl_namespace!(Rebatching<TournamentSlot>, "rebatching", namespace_size, release);
impl_namespace!(AdaptiveRebatching<TournamentSlot>, "adaptive-rebatching", total_size, release);
impl_namespace!(FastAdaptiveRebatching<TournamentSlot>, "fast-adaptive-rebatching", total_size, release);
impl_namespace!(UniformRenaming<TournamentSlot>, "uniform", namespace_size, release);
impl_namespace!(LinearScanRenaming<TournamentSlot>, "linear-scan", namespace_size, release);
impl_namespace!(SingleBatchRenaming<TournamentSlot>, "single-batch", namespace_size, release);
impl_namespace!(DoublingRenaming<TournamentSlot>, "doubling-uniform", namespace_size, release);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use renaming_core::Epsilon;

    #[test]
    fn trait_objects_acquire_and_release() {
        let object = Rebatching::with_defaults(16, Epsilon::one()).expect("construct");
        let ns: &dyn Namespace = &object;
        let mut rng = StdRng::seed_from_u64(1);
        let name = ns.acquire(&mut rng).expect("name");
        assert!(name.value() < ns.namespace_size());
        assert_eq!(ns.held(), 1);
        assert!(ns.supports_release());
        ns.release(name).expect("release");
        assert_eq!(ns.held(), 0);
        assert_eq!(ns.algorithm(), "rebatching");
        assert_eq!(ns.capacity(), 16);
    }

    #[test]
    fn every_atomic_backend_exposes_the_namespace_contract() {
        let backends: Vec<Box<dyn Namespace>> = vec![
            Box::new(Rebatching::with_defaults(8, Epsilon::one()).expect("rebatching")),
            Box::new(AdaptiveRebatching::with_defaults(8, Epsilon::one()).expect("adaptive")),
            Box::new(FastAdaptiveRebatching::with_defaults(8).expect("fast-adaptive")),
            Box::new(UniformRenaming::new(8)),
            Box::new(LinearScanRenaming::new(8)),
            Box::new(SingleBatchRenaming::new(8)),
            Box::new(DoublingRenaming::new(8)),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for ns in &backends {
            let label = ns.algorithm();
            let a = ns.acquire(&mut rng).unwrap_or_else(|e| panic!("{label}: {e}"));
            let b = ns.acquire(&mut rng).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_ne!(a, b, "{label}");
            assert!(a.value() < ns.namespace_size(), "{label}");
            assert!(b.value() < ns.namespace_size(), "{label}");
            assert_eq!(ns.held(), 2, "{label}");
            ns.release(a).expect(label);
            ns.release(b).expect(label);
            assert_eq!(ns.held(), 0, "{label}");
        }
    }

    #[test]
    fn pooled_sessions_match_backend_acquires() {
        let object = Rebatching::with_defaults(8, Epsilon::one()).expect("construct");
        let twin = Rebatching::with_defaults(8, Epsilon::one()).expect("construct");
        let mut session = ServiceBackend::open_session(&twin);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let direct = Namespace::acquire(&object, &mut rng_a).expect("direct");
            let pooled = session.acquire(&mut rng_b).expect("pooled");
            assert_eq!(direct, pooled);
        }
    }
}
