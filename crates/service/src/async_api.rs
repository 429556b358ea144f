//! The async acquire facade: `acquire().await` over the same combiner
//! slots the sync path uses.
//!
//! The paper's asynchronous-processes model — processes arbitrarily
//! delayed between steps — is exactly the execution regime of tasks
//! yielding to an executor, so an awaitable acquire is the faithful
//! production analogue of the sync API, not a bolt-on. The facade is a
//! hand-rolled [`Future`] over std's `Waker`/`Poll` machinery only: no
//! external runtime, consistent with the workspace's vendored-stubs
//! constraint.
//!
//! # How a poll maps onto the combining protocol
//!
//! * **First poll, lock free:** the task elects itself combiner and
//!   serves itself synchronously (the combiner's `serve_locked`) — a
//!   batch of one, identical to the sync fast path. A single-task
//!   caller under [`SeedPolicy::Fixed`](crate::SeedPolicy::Fixed)
//!   therefore produces the *same sequence* as sync combining (and as
//!   the direct path) — pinned by the golden tests.
//! * **First poll, lock busy:** the task claims a request slot directly
//!   (no thread lease — tasks migrate between executor threads),
//!   registers its [`std::task::Waker`] in the slot's wait cell,
//!   publishes `PENDING`, and makes one more lock attempt before
//!   returning [`Poll::Pending`]. That failed SeqCst lock CAS is the
//!   liveness linchpin: it is ordered before the active combiner's
//!   unlock, whose exit re-check then cannot miss the published request
//!   (see the liveness notes in the combiner module).
//! * **Re-poll:** consume the verdict if the slot is filled; otherwise
//!   re-register the fresh waker and re-check state (the waiter half of
//!   the Dekker handshake) before suspending again.
//! * **Drop after publish (cancellation):** withdraw the request via
//!   the `PENDING → EMPTY` CAS if no combiner adopted it — consuming
//!   the queued-hint credit — or, if one did, wait out the in-flight
//!   batch and route a won name through the service's normal release
//!   (the abandoned-win recycling path), so neither a slot nor a name
//!   can leak. The `pooled + retired + resident` worker conservation
//!   law and namespace occupancy both hold across cancellations.
//!
//! On a service built with [`AcquireMode::Direct`](crate::AcquireMode),
//! there are no combiner slots; the future completes on first poll
//! through the direct path (never `Pending`), keeping
//! [`AsyncNameGuard`]'s release path mode-independent.
//!
//! Metrics and oracle see an async acquire through the sync path's
//! instrumentation seam: the start on first poll, the outcome at `poll`'s
//! one `Ready` exit or, for a request adopted and then cancelled, in
//! `drop`.

use std::fmt;
use std::future::Future;
use std::ops::Deref;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use renaming_core::{Name, RenamingError};

use crate::metrics::ReleaseKind;
use crate::service::NameService;
use crate::slots::SlotPoll;

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
/// use renaming_service::{AcquireMode, Algorithm, NameService, exec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = renaming_service::AsyncNameService::new(
///     NameService::builder(Algorithm::Rebatching, 16)
///         .acquire_mode(AcquireMode::Combining)
///         .build()?,
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

    /// Wraps an already-shared service.
    pub fn from_arc(service: Arc<NameService>) -> Self {
        Self { inner: service }
    }

    /// The wrapped service (also reachable through `Deref`).
    pub fn service(&self) -> &NameService {
        &self.inner
    }

    /// Acquires a unique name asynchronously, resolving to an RAII
    /// [`AsyncNameGuard`] that releases the name on drop.
    ///
    /// On a combining-mode service the returned future publishes into
    /// the combiner's request slots and suspends (via its task's
    /// [`std::task::Waker`]) until a combiner fills them; on a
    /// direct-mode service it completes on first poll. Dropping the
    /// future before completion is safe — see the module docs on
    /// cancellation.
    ///
    /// # Errors
    ///
    /// Resolves to [`RenamingError::NamespaceExhausted`] when the
    /// namespace cannot hold another name.
    pub fn acquire(&self) -> AcquireFuture<'_> {
        AcquireFuture {
            service: self,
            state: FutureState::Start,
            started: None,
        }
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

/// Where an [`AcquireFuture`] is in the slot protocol.
enum FutureState {
    /// Not yet published: the next poll tries the fast path first.
    Start,
    /// Published into combiner slot `index`; the claim on that slot is
    /// ours until we consume the verdict or withdraw on drop.
    Published { index: usize },
    /// Resolved (or never started); nothing to clean up.
    Done,
}

/// The future returned by [`AsyncNameService::acquire`].
///
/// Hand-rolled over std's task machinery — no runtime dependency; any
/// executor (including the minimal ones in the public [`crate::exec`]
/// module) can drive
/// it. Safe to drop at any point: a published-but-unserved request is
/// withdrawn, an already-served one has its name recycled.
#[must_use = "futures do nothing unless polled"]
pub struct AcquireFuture<'s> {
    service: &'s AsyncNameService,
    state: FutureState,
    /// The instrumentation seam's start token, taken on first poll.
    started: Option<Instant>,
}

impl Future for AcquireFuture<'_> {
    type Output = Result<AsyncNameGuard, RenamingError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let handle = this.service;
        let service = handle.service();
        if let FutureState::Start = this.state {
            // The request logically enters the service on first poll.
            this.started = service.instruments.acquire_start();
        }
        let Poll::Ready(result) = this.advance(cx) else {
            return Poll::Pending;
        };
        this.state = FutureState::Done;
        // The requester — not the combiner that filled its slot —
        // records the outcome, before the name reaches the caller, as on
        // the sync path.
        service.instruments.acquire_end(this.started, &result);
        Poll::Ready(result.map(|name| handle.guard(name)))
    }
}

impl AcquireFuture<'_> {
    /// Drives the slot protocol one poll further; a `Ready` leaves no
    /// slot claim behind.
    fn advance(&mut self, cx: &mut Context<'_>) -> Poll<Result<Name, RenamingError>> {
        let service = self.service.service();
        if let FutureState::Start = self.state {
            let Some(combiner) = service.combiner() else {
                // Direct mode: no slots to publish into; the direct
                // path is synchronous and fast, complete immediately.
                return Poll::Ready(service.acquire_direct());
            };
            if combiner.try_lock() {
                // Uncontended: serve ourselves as a batch of one —
                // byte-identical to the sync combining (and direct)
                // fast path, which is what pins the async goldens.
                return Poll::Ready(combiner.serve_locked(service));
            }
            combiner.note_contention();
            let Some(index) = combiner.table().claim() else {
                // Every slot taken: fall back to the direct path, as
                // the sync waiter does.
                return Poll::Ready(service.acquire_direct());
            };
            // Register the waker *before* publishing so there is no
            // window in which a combiner could fill the slot and find
            // nobody to notify.
            let slot = combiner.table().slot(index);
            slot.wait.install_waker(cx.waker());
            combiner.announce();
            slot.publish();
            self.state = FutureState::Published { index };
        }
        let FutureState::Published { index } = self.state else {
            panic!("AcquireFuture polled after completion");
        };
        let combiner = service.combiner().expect("published implies combining mode");
        let slot = combiner.table().slot(index);
        let namespace = service.namespace_size();
        loop {
            if let Some(result) = slot.take_verdict(namespace) {
                combiner.table().release(index);
                return Poll::Ready(result);
            }
            if combiner.try_lock() {
                // The role is free: serve the queue ourselves — our own
                // slot included, so the next loop iteration consumes
                // the verdict. (SERVING by another combiner is
                // impossible here: adoption and fill happen under the
                // lock we just took.)
                combiner.drain_as_combiner(service);
                continue;
            }
            // The lock is busy (a SeqCst CAS that read `true` — the
            // ordering hook the combiner's exit re-check needs, see the
            // module docs). Re-register the fresh waker, then re-check
            // the state one last time: the Dekker handshake's waiter
            // half, so a fill racing with this registration is never
            // missed.
            slot.wait.install_waker(cx.waker());
            if let SlotPoll::Waiting = slot.poll() {
                return Poll::Pending;
            }
        }
    }
}

impl Drop for AcquireFuture<'_> {
    fn drop(&mut self) {
        let FutureState::Published { index } = self.state else {
            return;
        };
        let service = self.service.service();
        let combiner = service.combiner().expect("published implies combining mode");
        let slot = combiner.table().slot(index);
        if slot.withdraw() {
            // No combiner adopted the request: the PENDING → EMPTY CAS
            // unpublished it atomically. Consume the hint credit we
            // announced at publish. The start stays without an outcome,
            // which the oracle tolerates: starts create no holds.
            combiner.retract();
        } else {
            // A combiner adopted the request (the adoption CAS won, so
            // our withdraw lost) — the verdict is being produced under
            // the combiner lock right now. Wait it out and recycle an
            // abandoned win through the normal release path, exactly
            // like a dropped sync guard.
            let namespace = service.namespace_size();
            let result = loop {
                if let Some(result) = slot.take_verdict(namespace) {
                    break result;
                }
                std::thread::yield_now();
            };
            // Record the adopted outcome before releasing a won name, so
            // the oracle history pairs the two events; the cancelled
            // requester is the participant for both, mirroring a dropped
            // sync guard.
            service.instruments.acquire_end(self.started, &result);
            if let Ok(name) = result {
                let _ = service.release_name(name);
            }
        }
        combiner.table().release(index);
    }
}

impl fmt::Debug for AcquireFuture<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.state {
            FutureState::Start => "start",
            FutureState::Published { .. } => "published",
            FutureState::Done => "done",
        };
        f.debug_struct("AcquireFuture")
            .field("algorithm", &self.service.algorithm())
            .field("state", &state)
            .finish()
    }
}

/// Owned access to one asynchronously acquired name; the name is
/// released back to the service when the guard drops.
///
/// The async counterpart of [`crate::NameGuard`], with the same
/// mode-independent release path ([`NameService::release_name`] —
/// identical for direct and combining services) but `'static`
/// ownership: the guard holds an [`Arc`] to the service, so it can be
/// moved into tasks, sent across threads, and outlive the
/// [`AsyncNameService`] handle that produced it.
///
/// # Example
///
/// ```
/// use renaming_service::{AcquireMode, Algorithm, AsyncNameService, NameService, exec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = AsyncNameService::new(
///     NameService::builder(Algorithm::Rebatching, 8)
///         .acquire_mode(AcquireMode::Combining)
///         .build()?,
/// );
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
    /// Returns [`RenamingError::ReleaseUnsupported`] if a custom
    /// backend is one-shot; the name then stays taken.
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
            // A custom one-shot backend would reject the release; leaking
            // the slot is the documented drop behaviour there. Built-in
            // backends always accept.
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
    use crate::{AcquireMode, Algorithm, SeedPolicy};

    fn combining_service(capacity: usize) -> AsyncNameService {
        AsyncNameService::new(
            NameService::builder(Algorithm::Rebatching, capacity)
                .acquire_mode(AcquireMode::Combining)
                .seed_policy(SeedPolicy::Fixed(9))
                .build()
                .expect("build"),
        )
    }

    /// Polls `future` exactly once against a throwaway waker.
    fn poll_once<F: Future>(future: Pin<&mut F>) -> Poll<F::Output> {
        let waker = crate::exec::test_waker();
        let mut cx = Context::from_waker(&waker);
        future.poll(&mut cx)
    }

    #[test]
    fn direct_mode_completes_on_first_poll() {
        let service = AsyncNameService::new(
            NameService::builder(Algorithm::Rebatching, 4)
                .seed_policy(SeedPolicy::Fixed(9))
                .build()
                .expect("build"),
        );
        let mut future = std::pin::pin!(service.acquire());
        let Poll::Ready(Ok(guard)) = poll_once(future.as_mut()) else {
            panic!("direct mode must complete synchronously");
        };
        assert!(guard.value() < service.namespace_size());
        drop(guard);
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn cancelled_future_withdraws_an_unserved_request() {
        let service = combining_service(4);
        let combiner = service.service().combiner().expect("combining mode");
        // Stage a busy combiner so the poll takes the publish path.
        assert!(combiner.try_lock());
        {
            let mut future = std::pin::pin!(service.acquire());
            assert!(
                poll_once(future.as_mut()).is_pending(),
                "lock is held: the future must publish and suspend"
            );
            assert_eq!(combiner.queued_hint(), 1, "published request announced");
            // Future dropped here, mid-flight, before any combiner
            // adopts the request.
        }
        assert_eq!(
            combiner.queued_hint(),
            0,
            "withdraw must consume the announce credit"
        );
        combiner.unlock_for_test();
        assert_eq!(service.held(), 0, "no name was won, none may leak");
        // The slot must be claimable again, and the service fully
        // functional.
        let guard = crate::exec::block_on(service.acquire()).expect("acquire after cancel");
        drop(guard);
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn cancelled_future_recycles_an_adopted_win() {
        let service = combining_service(4);
        let combiner = service.service().combiner().expect("combining mode");
        assert!(combiner.try_lock());
        let mut future = Box::pin(service.acquire());
        assert!(poll_once(future.as_mut()).is_pending());
        // We are the staged combiner: serve the published request (the
        // drain adopts and fills the slot), *then* drop the future —
        // the withdraw CAS must lose and the won name must be recycled.
        combiner.drain_as_combiner(service.service());
        assert_eq!(service.held(), 1, "the batch won a name for the request");
        drop(future);
        assert_eq!(
            service.held(),
            0,
            "dropping a served-but-unconsumed future must recycle its name"
        );
        assert_eq!(combiner.queued_hint(), 0);
        // Conservation: the drain's worker is parked resident; nothing
        // leaked.
        assert_eq!(
            service.worker_count(),
            service.pooled_workers()
                + service.retired_workers() as usize
                + service.resident_workers(),
        );
    }

    #[test]
    fn completed_future_releases_its_slot_claim() {
        let service = combining_service(4);
        let combiner = service.service().combiner().expect("combining mode");
        let slots = combiner.table().len();
        for _ in 0..3 * slots {
            // Each acquire claims a slot only if it publishes; either
            // way, after completion every claim must be back.
            let guard = crate::exec::block_on(service.acquire()).expect("acquire");
            drop(guard);
        }
        assert_eq!(service.held(), 0);
        let mut claimed = Vec::new();
        while let Some(index) = combiner.table().claim() {
            claimed.push(index);
        }
        assert_eq!(claimed.len(), slots, "every slot claim was released");
        for index in claimed {
            combiner.table().release(index);
        }
    }
}
