//! The cooperative exploration engine.
//!
//! One *execution* runs the model closure with every model thread backed
//! by a pooled OS thread, but only one thread ever runs user code at a
//! time: each instrumented operation (atomic access, spawn/join, yield)
//! is a **yield point** that hands a baton back to the
//! controller, which consults the exploration state and hands it to the
//! next thread. Interleavings are therefore exactly the sequences of
//! controller decisions, and the checker explores them by depth-first
//! replay of decision prefixes (see [`crate::Checker`]).
//!
//! The scheduling rules:
//!
//! * **Runnable** threads are candidates; the previously scheduled
//!   thread is listed first, so the default descent is preemption-free.
//! * Choosing a thread other than the (still-runnable) previous one is
//!   a **preemption**; once the budget is spent, the previous thread is
//!   forced and the decision does not branch (the CHESS bounding rule).
//! * A thread that called `yield_now`/`spin_loop` is **Yielded**: it is
//!   not schedulable again until some other thread has taken a step.
//!   This is the fair-yield rule that makes bounded spin loops
//!   explorable without livelock reports.
//! * If every unfinished thread is joining an unfinished thread (a join
//!   cycle), the execution **deadlocks** and the schedule is reported.
//!   If an execution exceeds the step budget it is reported as a
//!   **livelock**.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::clock::VClock;
use crate::report::{render_location, Access, RaceReport, Report, Violation};

/// Locks ignoring poison: the engine never leaves its own state
/// inconsistent across a panic (user panics happen outside these locks).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonic execution ids, global across all checkers: instrumented
/// objects stamp the execution they were created in, so leftovers from
/// a previous execution (e.g. cached in thread-local storage) are
/// recognized and bypass the scheduler instead of corrupting it.
static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_exec_id() -> u64 {
    NEXT_EXEC_ID.fetch_add(1, StdOrdering::Relaxed)
}

/// Sentinel for "created outside any model execution".
pub(crate) const NO_EXEC: u64 = 0;

// ---------------------------------------------------------------------
// Thread / execution state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Called `yield_now`: not schedulable until another thread ran.
    Yielded,
    BlockedJoin(usize),
    Finished,
}

impl Status {
    fn describe(self) -> String {
        match self {
            Status::Runnable => "runnable".into(),
            Status::Yielded => "yielded".into(),
            Status::BlockedJoin(t) => format!("joining thread {t}"),
            Status::Finished => "finished".into(),
        }
    }
}

struct ThreadState {
    status: Status,
    clock: VClock,
    last_op: Option<&'static Location<'static>>,
    result: Option<Box<dyn Any + Send>>,
}

impl ThreadState {
    fn new(clock: VClock) -> Self {
        Self {
            status: Status::Runnable,
            clock,
            last_op: None,
            result: None,
        }
    }
}

pub(crate) struct SchedState {
    threads: Vec<ThreadState>,
    /// Which model thread may currently run user code (`None` while the
    /// controller decides).
    active: Option<usize>,
    /// Set by the controller to unwind every live thread and end the
    /// execution (violation found, or exploration aborted).
    teardown: bool,
    /// First user panic of this execution, recorded by the thread wrapper.
    failure: Option<(usize, String)>,
    /// The SeqCst "single total order" clock: every SeqCst access joins
    /// this both ways, modeling the ordering edges of the total order S.
    sc_clock: VClock,
    races: Vec<RaceReport>,
}

impl SchedState {
    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }
}

/// The state shared by one execution's controller and model threads.
pub(crate) struct ExecShared {
    id: u64,
    state: Mutex<SchedState>,
    cv: Condvar,
    pool: Arc<WorkerPool>,
}

/// Payload used to unwind model threads on teardown; recognized (and
/// swallowed) by the thread wrapper, never reported as a user panic.
struct AbortToken;

// ---------------------------------------------------------------------
// Current-thread context
// ---------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    exec: Arc<ExecShared>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// True on OS threads currently running model-thread user code; the
    /// quiet panic hook suppresses backtraces from them (the checker
    /// reports the violation itself, with the reproducing schedule).
    static IN_MODEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|ctx| ctx.borrow().clone())
}

/// The current model execution id, or [`NO_EXEC`] outside a check.
/// Instrumented objects stamp this at creation.
pub(crate) fn current_exec_id() -> u64 {
    CTX.with(|ctx| ctx.borrow().as_ref().map_or(NO_EXEC, |c| c.exec.id))
}

/// Installs (once, process-wide) a panic hook that stays quiet for
/// panics raised on model threads: the checker catches them and reports
/// the violation with its reproducing schedule, so the default hook's
/// backtrace would be noise — especially for mutation tests that *expect*
/// model panics.
fn install_quiet_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_MODEL.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

impl Ctx {
    /// Hands the baton to the controller and waits to be scheduled
    /// again. Every instrumented operation passes through here exactly
    /// once, *before* performing its effect.
    fn yield_baton(&self) {
        let mut st = lock(&self.exec.state);
        debug_assert_eq!(st.active, Some(self.tid), "yield from an unscheduled thread");
        st.active = None;
        self.exec.cv.notify_all();
        loop {
            if st.teardown {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if st.active == Some(self.tid) {
                return;
            }
            st = self.exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------
// Instrumented-operation entry points (called from sync.rs / thread.rs)
// ---------------------------------------------------------------------

/// Runs `f` as one scheduled, clock-ticked operation of the current
/// model thread. Returns `None` when the caller is not a model thread
/// (or is unwinding), in which case it must fall back to plain
/// uninstrumented semantics.
pub(crate) fn instrumented<R>(
    loc: &'static Location<'static>,
    f: impl FnOnce(&mut SchedState, usize) -> R,
) -> Option<R> {
    if std::thread::panicking() {
        return None;
    }
    let ctx = current_ctx()?;
    {
        let mut st = lock(&ctx.exec.state);
        st.threads[ctx.tid].last_op = Some(loc);
    }
    ctx.yield_baton();
    let mut st = lock(&ctx.exec.state);
    let tid = ctx.tid;
    st.threads[tid].clock.tick(tid);
    Some(f(&mut st, tid))
}

/// Whether the current thread is a model thread of execution `exec_id`
/// and not unwinding — the test instrumented objects use to decide
/// between the scheduled path and the plain fallback.
pub(crate) fn participates(exec_id: u64) -> bool {
    exec_id != NO_EXEC && !std::thread::panicking() && current_exec_id() == exec_id
}

// -- race detector ----------------------------------------------------

/// Per-atomic detector state, embedded in each model atomic.
#[derive(Debug, Default)]
pub(crate) struct AtomicMeta {
    pub(crate) exec_id: u64,
    last_store: Option<StoreInfo>,
    /// The clock published by the last release-ish store (joined, not
    /// replaced, by RMWs — modeling release sequences).
    release_clock: VClock,
}

#[derive(Debug)]
struct StoreInfo {
    tid: usize,
    clock: VClock,
    ordering: std::sync::atomic::Ordering,
    location: String,
}

fn is_release(ordering: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::*;
    matches!(ordering, Release | AcqRel | SeqCst)
}

fn is_acquire(ordering: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::*;
    matches!(ordering, Acquire | AcqRel | SeqCst)
}

fn is_seqcst(ordering: std::sync::atomic::Ordering) -> bool {
    matches!(ordering, std::sync::atomic::Ordering::SeqCst)
}

impl SchedState {
    /// SeqCst accesses join the global S-order clock both ways, so any
    /// two SeqCst operations are ordered in the detector exactly as the
    /// single total order orders them.
    fn seqcst_edge(&mut self, tid: usize) {
        let clock = &mut self.threads[tid].clock;
        clock.join(&self.sc_clock);
        self.sc_clock.join(clock);
    }

    /// Detector half of a load: establishes the acquire edge when the
    /// orderings pair up, and reports a race when the observed store is
    /// not ordered before this load by any happens-before path.
    fn detect_load(
        &mut self,
        meta: &mut AtomicMeta,
        atomic_loc: &str,
        ordering: std::sync::atomic::Ordering,
        loc: &'static Location<'static>,
        tid: usize,
    ) {
        if is_seqcst(ordering) {
            self.seqcst_edge(tid);
        }
        let Some(store) = &meta.last_store else {
            return;
        };
        if is_acquire(ordering) && is_release(store.ordering) {
            let release = meta.release_clock.clone();
            self.threads[tid].clock.join(&release);
        }
        if store.tid != tid && !store.clock.leq(&self.threads[tid].clock) {
            self.races.push(RaceReport {
                atomic: atomic_loc.to_string(),
                store: Access {
                    thread: store.tid,
                    ordering: format!("{:?}", store.ordering),
                    location: store.location.clone(),
                },
                load: Access {
                    thread: tid,
                    ordering: format!("{ordering:?}"),
                    location: render_location(loc),
                },
            });
        }
    }

    /// Detector half of a store. A plain store *replaces* the release
    /// clock (it heads a fresh release sequence, or breaks one when
    /// non-release); `rmw` stores join instead (continuing the
    /// sequence).
    fn detect_store(
        &mut self,
        meta: &mut AtomicMeta,
        ordering: std::sync::atomic::Ordering,
        loc: &'static Location<'static>,
        tid: usize,
        rmw: bool,
    ) {
        if is_seqcst(ordering) {
            self.seqcst_edge(tid);
        }
        let clock = self.threads[tid].clock.clone();
        if rmw {
            if is_release(ordering) {
                meta.release_clock.join(&clock);
            }
        } else {
            meta.release_clock = if is_release(ordering) { clock.clone() } else { VClock::new() };
        }
        meta.last_store = Some(StoreInfo {
            tid,
            clock,
            ordering,
            location: render_location(loc),
        });
    }
}

/// One scheduled atomic access: `load`/`store`/`rmw` describe which
/// detector halves run. Returns `None` off the model (caller falls
/// back). `op` computes the new value from the old one (`None` keeps
/// it — a pure load or a failed compare-exchange).
#[allow(clippy::too_many_arguments)]
pub(crate) fn atomic_access<T: Copy>(
    meta_cell: &Mutex<AtomicMeta>,
    value_cell: &Mutex<T>,
    atomic_loc: &str,
    load_order: Option<std::sync::atomic::Ordering>,
    store_order: Option<std::sync::atomic::Ordering>,
    rmw: bool,
    loc: &'static Location<'static>,
    op: impl FnOnce(T) -> Option<T>,
) -> Option<T> {
    let exec_id = lock(meta_cell).exec_id;
    if !participates(exec_id) {
        return None;
    }
    instrumented(loc, |st, tid| {
        let mut meta = lock(meta_cell);
        let mut value = lock(value_cell);
        let observed = *value;
        if let Some(ordering) = load_order {
            st.detect_load(&mut meta, atomic_loc, ordering, loc, tid);
        }
        if let Some(new) = op(observed) {
            *value = new;
            if let Some(ordering) = store_order {
                st.detect_store(&mut meta, ordering, loc, tid, rmw);
            }
        }
        observed
    })
}

/// One scheduled compare-exchange: the success ordering governs both
/// the read and the write of a successful exchange, the failure
/// ordering governs the read of a failed one. Returns `None` off the
/// model. The model has no spurious failures, so `compare_exchange_weak`
/// routes here too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn atomic_cas<T: Copy + PartialEq>(
    meta_cell: &Mutex<AtomicMeta>,
    value_cell: &Mutex<T>,
    atomic_loc: &str,
    current: T,
    new: T,
    success: std::sync::atomic::Ordering,
    failure: std::sync::atomic::Ordering,
    loc: &'static Location<'static>,
) -> Option<Result<T, T>> {
    let exec_id = lock(meta_cell).exec_id;
    if !participates(exec_id) {
        return None;
    }
    instrumented(loc, |st, tid| {
        let mut meta = lock(meta_cell);
        let mut value = lock(value_cell);
        let observed = *value;
        if observed == current {
            st.detect_load(&mut meta, atomic_loc, success, loc, tid);
            *value = new;
            st.detect_store(&mut meta, success, loc, tid, true);
            Ok(observed)
        } else {
            st.detect_load(&mut meta, atomic_loc, failure, loc, tid);
            Err(observed)
        }
    })
}

/// Records the creation of an instrumented atomic as its initial store
/// (so a first read on another thread without an edge back to the
/// creator is detected like any other).
pub(crate) fn record_creation(meta: &mut AtomicMeta, loc: &'static Location<'static>) {
    meta.exec_id = current_exec_id();
    if let Some(ctx) = current_ctx() {
        if meta.exec_id != NO_EXEC {
            let st = lock(&ctx.exec.state);
            meta.last_store = Some(StoreInfo {
                tid: ctx.tid,
                clock: st.threads[ctx.tid].clock.clone(),
                ordering: std::sync::atomic::Ordering::Relaxed,
                location: render_location(loc),
            });
        }
    }
}

// -- yield ------------------------------------------------------------

/// Scheduled `yield_now` / `spin_loop`: deschedules the thread until
/// some other thread has run (the fair-yield rule).
pub(crate) fn yield_now(loc: &'static Location<'static>) {
    let Some(ctx) = current_ctx() else {
        std::thread::yield_now();
        return;
    };
    if std::thread::panicking() {
        return;
    }
    {
        let mut st = lock(&ctx.exec.state);
        st.threads[ctx.tid].last_op = Some(loc);
    }
    ctx.yield_baton();
    {
        let mut st = lock(&ctx.exec.state);
        let others_runnable = st
            .threads
            .iter()
            .enumerate()
            .any(|(tid, t)| tid != ctx.tid && t.status == Status::Runnable);
        if !others_runnable {
            return; // nothing to be fair to
        }
        st.threads[ctx.tid].status = Status::Yielded;
    }
    ctx.yield_baton();
}

// -- spawn / join -----------------------------------------------------

/// Registers and starts a new model thread running `f`; returns its id.
pub(crate) fn spawn(
    f: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>,
    loc: &'static Location<'static>,
) -> usize {
    let ctx = current_ctx().expect("model thread::spawn outside Checker::check");
    {
        let mut st = lock(&ctx.exec.state);
        st.threads[ctx.tid].last_op = Some(loc);
    }
    ctx.yield_baton();
    let tid = {
        let mut st = lock(&ctx.exec.state);
        st.threads[ctx.tid].clock.tick(ctx.tid);
        let mut child_clock = st.threads[ctx.tid].clock.clone();
        let tid = st.threads.len();
        child_clock.tick(tid);
        st.threads.push(ThreadState::new(child_clock));
        tid
    };
    let exec = Arc::clone(&ctx.exec);
    let pool = Arc::clone(&ctx.exec.pool);
    pool.dispatch(Box::new(move || run_model_thread(exec, tid, f)));
    tid
}

/// Blocks until model thread `target` finishes; returns its result.
/// Panics (propagating teardown) if the execution aborts first.
pub(crate) fn join(target: usize, loc: &'static Location<'static>) -> Box<dyn Any + Send> {
    let ctx = current_ctx().expect("model join outside Checker::check");
    {
        let mut st = lock(&ctx.exec.state);
        st.threads[ctx.tid].last_op = Some(loc);
    }
    ctx.yield_baton();
    loop {
        {
            let mut st = lock(&ctx.exec.state);
            if st.threads[target].status == Status::Finished {
                let child_clock = st.threads[target].clock.clone();
                let me = &mut st.threads[ctx.tid];
                me.clock.join(&child_clock);
                me.clock.tick(ctx.tid);
                return st.threads[target]
                    .result
                    .take()
                    .expect("model thread joined twice");
            }
            st.threads[ctx.tid].status = Status::BlockedJoin(target);
        }
        ctx.yield_baton();
    }
}

/// The body every model OS worker runs for one model thread: wait for
/// the first schedule, run the user closure, record the outcome, hand
/// the baton back.
fn run_model_thread(
    exec: Arc<ExecShared>,
    tid: usize,
    f: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>,
) {
    CTX.with(|ctx| *ctx.borrow_mut() = Some(Ctx { exec: Arc::clone(&exec), tid }));
    IN_MODEL.with(|flag| flag.set(true));
    // Wait for the first schedule (the spawn itself is the parent's
    // yield point; the child's life starts when the controller picks it).
    let started = {
        let mut st = lock(&exec.state);
        loop {
            if st.teardown {
                break false;
            }
            if st.active == Some(tid) {
                break true;
            }
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    };
    let outcome = if started {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
    } else {
        Ok(Box::new(()) as Box<dyn Any + Send>)
    };
    {
        let mut st = lock(&exec.state);
        let me = tid;
        match outcome {
            Ok(result) => st.threads[me].result = Some(result),
            Err(payload) => {
                if payload.downcast_ref::<AbortToken>().is_none() {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    if st.failure.is_none() {
                        st.failure = Some((me, message));
                    }
                    st.teardown = true;
                }
            }
        }
        st.threads[me].status = Status::Finished;
        for thread in &mut st.threads {
            if thread.status == Status::BlockedJoin(me) {
                thread.status = Status::Runnable;
            }
        }
        if st.active == Some(me) {
            st.active = None;
        }
        exec.cv.notify_all();
    }
    IN_MODEL.with(|flag| flag.set(false));
    CTX.with(|ctx| *ctx.borrow_mut() = None);
}

// ---------------------------------------------------------------------
// Worker pool: OS threads reused across executions
// ---------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send>;

enum JobSlot {
    Idle,
    Ready(Job),
    Busy,
    Shutdown,
}

struct WorkerSlot {
    slot: Mutex<JobSlot>,
    cv: Condvar,
}

/// A pool of OS threads that host model threads, reused across the
/// thousands of executions of one check so exploration does not pay a
/// thread spawn per model thread per interleaving.
pub(crate) struct WorkerPool {
    workers: Mutex<Vec<(Arc<WorkerSlot>, std::thread::JoinHandle<()>)>>,
}

impl WorkerPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { workers: Mutex::new(Vec::new()) })
    }

    fn dispatch(&self, job: Job) {
        let mut workers = lock(&self.workers);
        for (worker, _) in workers.iter() {
            let mut slot = lock(&worker.slot);
            if matches!(*slot, JobSlot::Idle) {
                *slot = JobSlot::Ready(job);
                worker.cv.notify_one();
                return;
            }
        }
        // No idle worker: grow the pool.
        let worker = Arc::new(WorkerSlot {
            slot: Mutex::new(JobSlot::Ready(job)),
            cv: Condvar::new(),
        });
        let worker_for_thread = Arc::clone(&worker);
        let handle = std::thread::Builder::new()
            .name("renaming-model-worker".into())
            .spawn(move || worker_loop(worker_for_thread))
            .expect("spawn model worker");
        workers.push((worker, handle));
    }
}

fn worker_loop(worker: Arc<WorkerSlot>) {
    loop {
        let job = {
            let mut slot = lock(&worker.slot);
            loop {
                match std::mem::replace(&mut *slot, JobSlot::Busy) {
                    JobSlot::Ready(job) => break job,
                    JobSlot::Shutdown => return,
                    other => {
                        *slot = other;
                        slot = worker.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        job();
        // A shutdown posted while the job ran stands: the next pass
        // sees it and exits.
        let mut slot = lock(&worker.slot);
        if matches!(*slot, JobSlot::Busy) {
            *slot = JobSlot::Idle;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *lock(&self.workers));
        for (worker, _) in &workers {
            *lock(&worker.slot) = JobSlot::Shutdown;
            worker.cv.notify_one();
        }
        // Every `ExecShared` holds an `Arc<WorkerPool>`, so the last one
        // can be dropped by a model thread's job, on one of these
        // workers. That worker exits on its own once the job returns;
        // joining it from itself would panic ("Resource deadlock
        // avoided").
        let current = std::thread::current().id();
        for (_, handle) in workers {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The controller: one execution under a decision trace
// ---------------------------------------------------------------------

/// One recorded scheduling decision: which candidate index was chosen
/// out of how many (branches with one candidate never backtrack).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Branch {
    pub(crate) choice: usize,
    pub(crate) candidates: usize,
}

/// What one execution produced.
pub(crate) struct ExecOutcome {
    pub(crate) trace: Vec<Branch>,
    /// The chosen thread per decision — the full schedule, used by the
    /// determinism self-tests and violation reports.
    // Read by the determinism self-tests; violations embed a clone.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) schedule: Vec<usize>,
    pub(crate) violation: Option<Violation>,
    pub(crate) races: Vec<RaceReport>,
    pub(crate) preemptions: usize,
}

/// Runs the model closure once, replaying `prefix` and then taking the
/// first candidate at every later decision (the depth-first descent),
/// scheduling with `preemption_bound` and aborting past `max_steps`.
pub(crate) fn run_one(
    root: impl FnOnce() + Send + 'static,
    pool: &Arc<WorkerPool>,
    prefix: &[usize],
    preemption_bound: usize,
    max_steps: usize,
) -> ExecOutcome {
    let exec = Arc::new(ExecShared {
        id: next_exec_id(),
        state: Mutex::new(SchedState {
            threads: vec![ThreadState::new({
                let mut clock = VClock::new();
                clock.tick(0);
                clock
            })],
            active: None,
            teardown: false,
            failure: None,
            sc_clock: VClock::new(),
            races: Vec::new(),
        }),
        cv: Condvar::new(),
        pool: Arc::clone(pool),
    });

    let root_exec = Arc::clone(&exec);
    pool.dispatch(Box::new(move || {
        run_model_thread(root_exec, 0, Box::new(move || {
            root();
            Box::new(()) as Box<dyn Any + Send>
        }));
    }));

    let mut trace: Vec<Branch> = Vec::new();
    let mut schedule: Vec<usize> = Vec::new();
    let mut preemptions = 0usize;
    let mut prev: Option<usize> = None;
    let mut violation: Option<Violation> = None;

    loop {
        // Wait for the baton: no thread active.
        let mut st = lock(&exec.state);
        while st.active.is_some() {
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.teardown {
            // A thread panicked: wait out the unwind of every live
            // thread, then report.
            while !st.all_finished() {
                exec.cv.notify_all();
                st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if violation.is_none() {
                let (thread, message) = st
                    .failure
                    .take()
                    .unwrap_or((0, "execution torn down".into()));
                violation = Some(Violation::Panic {
                    message,
                    thread,
                    schedule: schedule.clone(),
                });
            }
            break;
        }
        if st.all_finished() {
            break;
        }

        // Fair-yield promotion: a yielded thread becomes schedulable
        // once some *other* thread was the last to run.
        for (tid, thread) in st.threads.iter_mut().enumerate() {
            if thread.status == Status::Yielded && prev != Some(tid) {
                thread.status = Status::Runnable;
            }
        }

        // Candidate set: runnable threads, the previous thread first so
        // the default descent is preemption-free.
        let runnable: Vec<usize> = {
            let mut list: Vec<usize> = Vec::new();
            if let Some(p) = prev {
                if st.threads[p].status == Status::Runnable {
                    list.push(p);
                }
            }
            for (tid, thread) in st.threads.iter().enumerate() {
                if thread.status == Status::Runnable && Some(tid) != prev {
                    list.push(tid);
                }
            }
            list
        };
        if runnable.is_empty() {
            // Deadlock: no thread can make progress.
            let waiting = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(tid, t)| {
                    (
                        tid,
                        t.status.describe(),
                        t.last_op.map_or_else(|| "<start>".into(), render_location),
                    )
                })
                .collect();
            violation = Some(Violation::Deadlock {
                waiting,
                schedule: schedule.clone(),
            });
            teardown_and_drain(&exec, st);
            break;
        }
        let prev_runnable = prev.is_some_and(|p| st.threads[p].status == Status::Runnable);
        let candidates = if prev_runnable && preemptions >= preemption_bound {
            vec![prev.expect("prev_runnable implies prev")]
        } else {
            runnable
        };

        if trace.len() >= max_steps {
            violation = Some(Violation::Livelock {
                steps: max_steps,
                schedule: schedule.clone(),
            });
            teardown_and_drain(&exec, st);
            break;
        }

        let depth = trace.len();
        let choice = if depth < prefix.len() {
            assert!(
                prefix[depth] < candidates.len(),
                "replay diverged at decision {depth}: {} candidates, prefix wants {} — \
                 the model closure is nondeterministic",
                candidates.len(),
                prefix[depth]
            );
            prefix[depth]
        } else {
            0
        };
        let chosen = candidates[choice];
        trace.push(Branch { choice, candidates: candidates.len() });
        schedule.push(chosen);

        if let Some(p) = prev {
            if chosen != p && st.threads[p].status == Status::Runnable {
                preemptions += 1;
            }
        }
        prev = Some(chosen);
        st.active = Some(chosen);
        exec.cv.notify_all();
    }

    let mut st = lock(&exec.state);
    let races = std::mem::take(&mut st.races);
    drop(st);
    ExecOutcome { trace, schedule, violation, races, preemptions }
}

/// Sets the teardown flag and waits for every model thread to unwind.
fn teardown_and_drain(exec: &Arc<ExecShared>, mut st: MutexGuard<'_, SchedState>) {
    st.teardown = true;
    exec.cv.notify_all();
    while !st.all_finished() {
        st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Installs the quiet panic hook; called by the checker before the
/// first execution.
pub(crate) fn prepare_process() {
    install_quiet_hook();
}

// ---------------------------------------------------------------------
// Checker driver (used by crate::Checker)
// ---------------------------------------------------------------------

/// Exploration loop: DFS over decision prefixes within the preemption
/// bound, until the tree is exhausted, `max_interleavings` runs were
/// executed, or a schedule-level violation is found.
pub(crate) fn explore<F>(
    f: Arc<F>,
    preemption_bound: usize,
    max_interleavings: usize,
    max_steps: usize,
) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    prepare_process();
    let pool = WorkerPool::new();
    let mut prefix: Vec<usize> = Vec::new();
    let mut seen_races: HashSet<RaceReport> = HashSet::new();
    let mut races: Vec<RaceReport> = Vec::new();
    let mut interleavings = 0usize;
    let mut max_preemptions = 0usize;
    let mut longest = 0usize;
    let mut complete = false;
    let mut violation: Option<Violation> = None;

    loop {
        let root = Arc::clone(&f);
        let outcome = run_one(
            move || (root)(),
            &pool,
            &prefix,
            preemption_bound,
            max_steps,
        );
        interleavings += 1;
        max_preemptions = max_preemptions.max(outcome.preemptions);
        longest = longest.max(outcome.trace.len());
        for race in outcome.races {
            if seen_races.insert(race.clone()) {
                races.push(race);
            }
        }
        if let Some(found) = outcome.violation {
            violation = Some(found);
            break;
        }
        // Backtrack: deepest decision with an unexplored sibling.
        let mut trace = outcome.trace;
        while let Some(last) = trace.last() {
            if last.choice + 1 < last.candidates {
                break;
            }
            trace.pop();
        }
        match trace.last_mut() {
            None => {
                complete = true;
                break;
            }
            Some(last) => last.choice += 1,
        }
        prefix = trace.iter().map(|b| b.choice).collect();
        if interleavings >= max_interleavings {
            break;
        }
    }

    Report {
        interleavings,
        complete,
        violation,
        races,
        max_preemptions,
        max_steps: longest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::{thread, Checker};

    /// Two threads, two SeqCst increments each — the workhorse scenario.
    fn two_writers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let clone = Arc::clone(&counter);
        let worker = thread::spawn(move || {
            clone.fetch_add(1, Ordering::SeqCst);
            clone.fetch_add(1, Ordering::SeqCst);
        });
        counter.fetch_add(1, Ordering::SeqCst);
        counter.fetch_add(1, Ordering::SeqCst);
        worker.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn replaying_a_decision_prefix_is_deterministic() {
        prepare_process();
        let pool = WorkerPool::new();
        let first = run_one(two_writers, &pool, &[], 2, 10_000);
        assert!(first.violation.is_none(), "scenario is correct");
        let prefix: Vec<usize> = first.trace.iter().map(|b| b.choice).collect();
        let replay_a = run_one(two_writers, &pool, &prefix, 2, 10_000);
        let replay_b = run_one(two_writers, &pool, &prefix, 2, 10_000);
        assert_eq!(
            replay_a.schedule, first.schedule,
            "replaying the full decision trace reproduces the schedule"
        );
        assert_eq!(replay_a.schedule, replay_b.schedule, "replay is stable");
        let shape =
            |t: &[Branch]| t.iter().map(|b| (b.choice, b.candidates)).collect::<Vec<_>>();
        assert_eq!(
            shape(&replay_a.trace),
            shape(&replay_b.trace),
            "identical branch structure on every replay"
        );
    }

    #[test]
    fn dropping_the_last_pool_handle_on_a_worker_does_not_join_itself() {
        let pool = WorkerPool::new();
        let last = Arc::clone(&pool);
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        pool.dispatch(Box::new(move || {
            go_rx.recv().expect("the test thread signals");
            // By now the test thread has dropped its handle: this drop
            // runs `WorkerPool::drop` on the pool's own worker.
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
            done_tx
                .send(dropped.is_ok())
                .expect("the test thread waits");
        }));
        drop(pool);
        go_tx.send(()).expect("the job waits");
        let clean = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job reports");
        assert!(clean, "dropping the pool on its own worker panicked");
    }

    #[test]
    fn preemption_bound_is_respected_and_widens_exploration() {
        let zero = Checker::new().preemption_bound(0).check(two_writers);
        let one = Checker::new().preemption_bound(1).check(two_writers);
        let two = Checker::new().preemption_bound(2).check(two_writers);
        for (bound, report) in [(0, &zero), (1, &one), (2, &two)] {
            assert!(report.complete, "small model explores exhaustively");
            assert!(report.is_clean(), "correct scenario stays clean");
            assert!(
                report.max_preemptions <= bound,
                "bound {bound} exceeded: {}",
                report.max_preemptions
            );
        }
        // With no preemptions allowed the spawner runs until it blocks
        // in join, then the worker runs: exactly one schedule.
        assert_eq!(zero.interleavings, 1);
        assert!(
            one.interleavings > zero.interleavings,
            "bound 1 must explore more than bound 0"
        );
        assert!(
            two.interleavings > one.interleavings,
            "bound 2 must explore more than bound 1"
        );
    }

    #[test]
    fn a_join_cycle_is_a_deadlock() {
        let report = Checker::new().check(|| {
            // B spins until A's handle appears, then joins A; A joins B.
            let slot: Arc<Mutex<Option<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(None));
            let published = Arc::clone(&slot);
            let b = thread::spawn(move || {
                let a = loop {
                    if let Some(a) = lock(&published).take() {
                        break a;
                    }
                    thread::yield_now();
                };
                a.join().unwrap();
            });
            let a = thread::spawn(move || b.join().unwrap());
            *lock(&slot) = Some(a);
        });
        match report.violation {
            Some(Violation::Deadlock { ref waiting, .. }) => {
                let statuses: Vec<(usize, &str)> = waiting
                    .iter()
                    .map(|(tid, status, _)| (*tid, status.as_str()))
                    .collect();
                assert_eq!(statuses, [(1, "joining thread 2"), (2, "joining thread 1")]);
            }
            ref other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn a_panicking_interleaving_is_reported_with_its_schedule() {
        let report = Checker::new().check(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let clone = Arc::clone(&flag);
            let worker = thread::spawn(move || clone.store(1, Ordering::SeqCst));
            // Fails only in interleavings where the worker runs first.
            assert_eq!(flag.load(Ordering::SeqCst), 0, "worker ran early");
            worker.join().unwrap();
        });
        match report.violation {
            Some(Violation::Panic { ref message, ref schedule, .. }) => {
                assert!(message.contains("worker ran early"), "got: {message}");
                assert!(!schedule.is_empty(), "reproducing schedule attached");
            }
            ref other => panic!("expected a panic violation, got {other:?}"),
        }
    }

    #[test]
    fn fair_yield_lets_spin_loops_terminate() {
        let report = Checker::new().check(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let clone = Arc::clone(&flag);
            let worker = thread::spawn(move || clone.store(1, Ordering::SeqCst));
            while flag.load(Ordering::SeqCst) == 0 {
                thread::yield_now();
            }
            worker.join().unwrap();
        });
        report.assert_clean();
        assert!(report.complete, "fair yield keeps the spin loop finite");
    }
}
