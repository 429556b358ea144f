//! The [`Namespace`] abstraction: one acquire/release surface over every
//! renaming backend in the workspace, on any TAS substrate.

use std::convert::Infallible;

use rand::RngCore;

use renaming_core::driver::NameSession;
use renaming_core::{Name, NamespaceExhausted, RenamingObject, ResetMachine};
use renaming_tas::{AtomicTas, CountingTas, Tas};

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
/// which threads acquire unique names and release them again.
///
/// This is the interchangeable-backend trait of the `renaming-service`
/// crate: the paper's three algorithms and all four baselines implement
/// it over any [`Tas`] substrate — hardware atomics,
/// [`CountingSlot`], or the register-based tournament
/// (`TicketTas<TournamentTas>`, long-lived through its epoch-stamped
/// O(1) reset). Object-safe, so heterogeneous backends can sit behind
/// `Arc<dyn Namespace>`.
///
/// # Contract
///
/// * Names are acquired only through sessions
///   ([`ServiceBackend::open_session`]). A session's `acquire` returns a
///   name no other thread currently holds; at most
///   [`capacity`](Self::capacity) names may be held simultaneously.
/// * A session's `acquire` fails only with [`NamespaceExhausted`].
/// * `release` makes the name available to future acquires and cannot
///   fail. Releasing a name that is not held is a caller bug and may
///   panic.
/// * `namespace_size` bounds every returned name: `name < m`.
///
/// # Example
///
/// Acquire through a session, release through the trait object:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use renaming_service::{Epsilon, Namespace, ServiceBackend};
/// use renaming_core::Rebatching;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let object = Rebatching::with_defaults(16, Epsilon::one())?;
/// let ns: &dyn ServiceBackend = &object;
/// let mut rng = StdRng::seed_from_u64(1);
/// let name = ns.open_session().acquire(&mut rng)?;
/// assert!(name.value() < ns.namespace_size());
/// let Ok(()) = ns.release(name);
/// assert_eq!(ns.held(), 0);
/// # Ok(())
/// # }
/// ```
pub trait Namespace: Send + Sync {
    /// Releases a held name, reopening its slot. A release cannot fail;
    /// the [`Infallible`] result is kept only because the benchmark
    /// (`perfbench/`) calls `.expect` on it.
    ///
    /// # Panics
    ///
    /// May panic if `name` is outside the namespace or not currently
    /// held — both are caller bugs.
    fn release(&self, name: Name) -> Result<(), Infallible>;

    /// The namespace size `m`: every acquired name is in `0..m`.
    fn namespace_size(&self) -> usize;

    /// The maximum number of simultaneously held names the backend is
    /// provisioned for (the paper's `n`).
    fn capacity(&self) -> usize;

    /// Names currently held: a scan of the backend's slots, O(namespace
    /// size), exact once the backend is quiescent and advisory while
    /// acquires and releases are in flight.
    fn held(&self) -> usize;

    /// A short label of the backing algorithm (e.g. `"rebatching"`).
    fn algorithm(&self) -> &'static str;
}

/// A pooled per-worker acquisition handle: one reusable machine bound to
/// the backend's shared slots.
///
/// [`crate::NameService`] keeps a pool of these so steady-state acquires
/// construct no machine (and touch no `Arc` refcounts). Implemented by
/// [`NameSession`] over any substrate: its acquires recycle the surplus
/// TAS wins the adaptive machines supersede (see
/// [`ResetMachine::abandoned`]), so long-lived churn leaks no slots.
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
    /// Returns [`NamespaceExhausted`] when the namespace cannot hold
    /// another name; an acquire fails in no other way.
    fn acquire(&mut self, rng: &mut dyn RngCore) -> Result<Name, NamespaceExhausted>;

    /// Acquires `count` unique names in one batched sweep, appending
    /// them to `out` (see [`ResetMachine::rearm_after_win`]). The machine
    /// is rearmed, not reset, between wins, so batch-structured machines
    /// amortize their probe state across the whole batch.
    /// `acquire_batch(1, ..)` is exactly [`acquire`](Self::acquire).
    /// [`crate::NameService`] never calls it: each acquire drives its
    /// own session, one name at a time.
    ///
    /// # Errors
    ///
    /// Returns [`NamespaceExhausted`] if the namespace cannot satisfy
    /// the whole batch; names already won stay acquired and are left in
    /// `out`.
    fn acquire_batch(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), NamespaceExhausted>;
}

impl<M, T> PooledSession for NameSession<M, T>
where
    M: ResetMachine + Send,
    T: Tas,
{
    fn acquire(&mut self, mut rng: &mut dyn RngCore) -> Result<Name, NamespaceExhausted> {
        self.get_name_recycling(&mut rng)
    }

    fn acquire_batch(
        &mut self,
        count: usize,
        mut rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), NamespaceExhausted> {
        self.acquire_batch_recycling(count, &mut rng, out)
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

/// Every algorithm's object, over every TAS substrate.
/// Releases go to the object's `release_name`; the label is the
/// machine's [`Renamer::algorithm`](renaming_sim::Renamer::algorithm).
impl<M, T> Namespace for RenamingObject<M, T>
where
    M: ResetMachine + Clone + Send + Sync,
    T: Tas,
{
    fn release(&self, name: Name) -> Result<(), Infallible> {
        self.release_name(name);
        Ok(())
    }

    fn namespace_size(&self) -> usize {
        self.namespace_size()
    }

    fn capacity(&self) -> usize {
        self.capacity()
    }

    fn held(&self) -> usize {
        self.slots().set_count()
    }

    fn algorithm(&self) -> &'static str {
        self.algorithm()
    }
}

/// Sessions acquire in recycling mode, so the adaptive algorithms'
/// superseded search wins return to the namespace.
impl<M, T> ServiceBackend for RenamingObject<M, T>
where
    M: ResetMachine + Clone + Send + Sync + 'static,
    T: Tas + 'static,
{
    fn open_session(&self) -> Box<dyn PooledSession> {
        Box::new(self.session())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use renaming_core::baselines::{
        DoublingRenaming, LinearScanRenaming, SingleBatchRenaming, UniformRenaming,
    };
    use renaming_core::{AdaptiveRebatching, Epsilon, FastAdaptiveRebatching, Rebatching};

    #[test]
    fn trait_objects_acquire_and_release() {
        let object = Rebatching::with_defaults(16, Epsilon::one()).expect("construct");
        let ns: &dyn ServiceBackend = &object;
        let mut rng = StdRng::seed_from_u64(1);
        let name = ns.open_session().acquire(&mut rng).expect("name");
        assert!(name.value() < ns.namespace_size());
        assert_eq!(ns.held(), 1);
        let Ok(()) = ns.release(name);
        assert_eq!(ns.held(), 0);
        assert_eq!(ns.algorithm(), "rebatching");
        assert_eq!(ns.capacity(), 16);
    }

    #[test]
    fn every_atomic_backend_exposes_the_namespace_contract() {
        let backends: Vec<Box<dyn ServiceBackend>> = vec![
            Box::new(Rebatching::with_defaults(8, Epsilon::one()).expect("rebatching")),
            Box::new(AdaptiveRebatching::with_defaults(8, Epsilon::one()).expect("adaptive")),
            Box::new(FastAdaptiveRebatching::with_defaults(8).expect("fast-adaptive")),
            Box::new(UniformRenaming::new(8)),
            Box::new(LinearScanRenaming::new(8)),
            Box::new(SingleBatchRenaming::new(8)),
            Box::new(DoublingRenaming::new(8)),
        ];
        // The labels key the wire's stats and the BENCH_* report rows,
        // in `Algorithm::all()` order.
        let labels: Vec<&str> = backends.iter().map(|ns| ns.algorithm()).collect();
        assert_eq!(
            labels,
            [
                "rebatching",
                "adaptive-rebatching",
                "fast-adaptive-rebatching",
                "uniform",
                "linear-scan",
                "single-batch",
                "doubling-uniform",
            ]
        );
        let mut rng = StdRng::seed_from_u64(7);
        for ns in &backends {
            let label = ns.algorithm();
            let mut session = ns.open_session();
            let a = session
                .acquire(&mut rng)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let b = session
                .acquire(&mut rng)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_ne!(a, b, "{label}");
            assert!(a.value() < ns.namespace_size(), "{label}");
            assert!(b.value() < ns.namespace_size(), "{label}");
            assert_eq!(ns.held(), 2, "{label}");
            let Ok(()) = ns.release(a);
            let Ok(()) = ns.release(b);
            assert_eq!(ns.held(), 0, "{label}");
        }
    }

    #[test]
    fn pooled_sessions_match_backend_acquires() {
        // A pooled session names exactly what the object's per-call
        // `get_name` names on a twin: ReBatching supersedes no win, so
        // recycling mode and the one-shot path agree call for call.
        let object = Rebatching::with_defaults(8, Epsilon::one()).expect("construct");
        let twin = Rebatching::with_defaults(8, Epsilon::one()).expect("construct");
        let mut session = ServiceBackend::open_session(&twin);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let direct = object.get_name(&mut rng_a).expect("direct");
            let pooled = session.acquire(&mut rng_b).expect("pooled");
            assert_eq!(direct, pooled);
        }
    }
}
