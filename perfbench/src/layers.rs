//! Per-layer probes of a traced run: each times the calls into one layer
//! through spans recorded around them, at the capacity and occupancy of
//! the workload that layer matters to.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{RngCore, SeedableRng};
use renaming_bench::{Sweep, SweepWorker};
use renaming_core::{BatchLayout, Epsilon, FastRng, ProbeSchedule, Rebatching, DEFAULT_BETA};
use renaming_service::{
    exec, AsyncNameService, CountingSlot, Name, NameService, Namespace, SeedPolicy, ServiceBackend,
};
use renaming_tas::{AtomicTas, CountingTas, TasArray};

use crate::gate::Checks;
use crate::inproc::{self, Inproc};
use crate::stats::quantile;
use crate::trace::{durations, Recorder, ROOT};
use crate::{derive_seed, placed, sim, wire, Config, Rig};

/// Equal time slices the probe budget is cut into.
const SLICES: u32 = 9;
/// Acquires per batch in the batch probes: one server batch of the
/// pipelined workload's window.
const BATCH: usize = wire::HOLD;

type Values = Vec<(&'static str, f64)>;

/// Runs every probe within about `budget` and returns the per-layer
/// values by metric name; spans go to `recorders`.
pub(crate) fn probe_all(
    cfg: &Config,
    budget: Duration,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    checks: &mut Checks,
) -> Values {
    let slice = budget / SLICES;
    let mut values = Values::new();
    net(cfg, slice, epoch, recorders, checks, &mut values);
    service(cfg, slice, epoch, recorders, checks, &mut values);
    core(cfg, slice, epoch, recorders, checks, &mut values);
    tas(cfg, slice, epoch, recorders, checks, &mut values);
    engine(cfg, slice, epoch, recorders, checks, &mut values);
    values
}

fn p(samples: &[u64], q: f64) -> f64 {
    quantile(samples, q).unwrap_or(f64::NAN)
}

fn net(
    cfg: &Config,
    slice: Duration,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    checks: &mut Checks,
    values: &mut Values,
) {
    // `wire_serial` with the server's latency histograms on. The server
    // records every request of a pipelined batch with the whole batch's
    // time; with one request in flight a batch is one request, so here
    // the histogram is the per-request time.
    let (phase, server, local) = placed(true, || {
        let mut local = Checks::default();
        let mut rig = wire::Serial::start(cfg, true);
        let phase = rig.measure(slice, 1, Some(epoch));
        let snap = rig.service().metrics().expect("metrics enabled").snapshot();
        let server = [
            snap.acquire.quantile(0.5) / 1e3,
            snap.acquire.quantile(0.99) / 1e3,
            snap.release.quantile(0.5) / 1e3,
        ];
        rig.finish(&mut local);
        (phase, server, local)
    });
    checks.absorb(local);
    let client_acquire = p(&durations(&phase.recorders, "client.acquire"), 0.5) / 1e3;
    let client_release = p(&durations(&phase.recorders, "client.release"), 0.5) / 1e3;
    recorders.extend(phase.recorders);
    values.extend([
        ("net.server_acquire_us.p50", server[0]),
        ("net.server_acquire_us.p99", server[1]),
        ("net.server_release_us.p50", server[2]),
        ("net.outside_server_us.p50", client_acquire - server[0]),
        ("net.client_release_us.p50", client_release),
    ]);

    let (phase, per_flush, local) = placed(true, || {
        let mut local = Checks::default();
        let mut rig = wire::Pipelined::start(cfg);
        let before = (wire::server_requests(&rig.stats()), rig.flushes());
        let phase = rig.measure(slice, 1, Some(epoch));
        let after = (wire::server_requests(&rig.stats()), rig.flushes());
        rig.finish(&mut local);
        let per_flush = match (before, after) {
            ((Some(r0), f0), (Some(r1), f1)) if f1 > f0 => {
                // `r1` counts the second `Stats` request itself.
                (r1 - r0 - 1) as f64 / (f1 - f0) as f64
            }
            _ => f64::NAN,
        };
        (phase, per_flush, local)
    });
    checks.absorb(local);
    values.extend([
        (
            "net.encode_ns",
            p(&durations(&phase.recorders, "net.encode"), 0.5),
        ),
        (
            "net.decode_ns",
            p(&durations(&phase.recorders, "net.decode"), 0.5),
        ),
        ("net.requests_per_flush", per_flush),
    ]);
    recorders.extend(phase.recorders);
}

fn service(
    cfg: &Config,
    slice: Duration,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    checks: &mut Checks,
    values: &mut Values,
) {
    // The `inproc_full` rig, traced.
    let mut rig = Inproc::setup(cfg);
    let phase = rig.measure(slice, 1, Some(epoch));
    let created = rig.service().worker_count() as f64;
    let retired = rig.service().retired_workers() as f64;
    rig.finish(checks);
    values.extend([
        (
            "service.acquire_ns.p50",
            p(&durations(&phase.recorders, "service.acquire_name"), 0.5),
        ),
        (
            "service.acquire_ns.p99",
            p(&durations(&phase.recorders, "service.acquire_name"), 0.99),
        ),
        (
            "service.release_ns.p50",
            p(&durations(&phase.recorders, "service.release_name"), 0.5),
        ),
        ("service.workers_created", created),
        ("service.workers_retired", retired),
    ]);
    recorders.extend(phase.recorders);

    // The async facade with the wire server's configuration: one
    // `block_on` per acquire, then 16-way `drive_all` batches.
    let service = AsyncNameService::new(wire::service(cfg, wire::CAPACITY, false));
    let mut rec = Recorder::new(epoch, "service.async");
    let mut held: VecDeque<Name> = (0..wire::HOLD)
        .map(|_| {
            exec::block_on(service.acquire())
                .expect("prefill")
                .into_name()
        })
        .collect();
    let deadline = Instant::now() + slice;
    let mut request = 0u64;
    while Instant::now() < deadline {
        let name = held.pop_front().expect("hold window");
        service.release_name(name).expect("release");
        let t0 = Instant::now();
        let guard = exec::block_on(service.acquire());
        let t1 = Instant::now();
        rec.record("service.async_acquire", t0, t1, ROOT, request);
        held.push_back(guard.expect("within capacity").into_name());
        request += 1;
    }
    let async_p50 = p(&rec.durations("service.async_acquire"), 0.5);
    recorders.push(rec);

    let mut rec = Recorder::new(epoch, "service.batch");
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let outcomes = exec::drive_all((0..BATCH).map(|_| service.acquire()));
        let t1 = Instant::now();
        rec.record("service.drive_all", t0, t1, ROOT, request);
        request += 1;
        for outcome in outcomes {
            let name = outcome.expect("within capacity").into_name();
            service.release_name(name).expect("release");
        }
    }
    let batch = p(&rec.durations("service.drive_all"), 0.5) / BATCH as f64;
    recorders.push(rec);
    for name in held {
        service.release_name(name).expect("release");
    }
    checks.service(service.service());
    values.extend([
        ("service.async_acquire_ns.p50", async_p50),
        ("service.batch_acquire_ns_per_name", batch),
    ]);
}

/// Prefills `acquire` to `inproc::PREFILL` names.
fn prefill(mut acquire: impl FnMut() -> Name) -> Vec<Name> {
    (0..inproc::PREFILL).map(|_| acquire()).collect()
}

fn core(
    cfg: &Config,
    slice: Duration,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    checks: &mut Checks,
    values: &mut Values,
) {
    // A session straight on the backend: no pool, no service front-end.
    let object = Rebatching::new(inproc::CAPACITY, Epsilon::one(), DEFAULT_BETA)
        .expect("ReBatching at the inproc capacity");
    let mut session = ServiceBackend::open_session(&object);
    let mut rng = FastRng::seed_from_u64(derive_seed(cfg.seed, 3, 0));
    let mut held = prefill(|| session.acquire(&mut rng).expect("prefill"));
    let mut rec = Recorder::new(epoch, "core");
    let mut request = 0u64;
    let deadline = Instant::now() + slice / 2;
    while Instant::now() < deadline {
        let index = (rng.next_u64() % held.len() as u64) as usize;
        Namespace::release(&object, held.swap_remove(index)).expect("release");
        let t0 = Instant::now();
        let name = session.acquire(&mut rng);
        let t1 = Instant::now();
        rec.record("core.session_acquire", t0, t1, ROOT, request);
        held.push(name.expect("within capacity"));
        request += 1;
    }
    let acquire = rec.durations("core.session_acquire");
    recorders.push(rec);
    let mut rec = Recorder::new(epoch, "core.batch");
    let mut out = Vec::with_capacity(BATCH);
    let deadline = Instant::now() + slice / 2;
    while Instant::now() < deadline {
        for _ in 0..BATCH {
            let index = (rng.next_u64() % held.len() as u64) as usize;
            Namespace::release(&object, held.swap_remove(index)).expect("release");
        }
        let t0 = Instant::now();
        let result = session.acquire_batch(BATCH, &mut rng, &mut out);
        let t1 = Instant::now();
        rec.record("core.acquire_batch", t0, t1, ROOT, request);
        result.expect("within capacity");
        held.append(&mut out);
        request += 1;
    }
    values.extend([
        ("core.session_acquire_ns.p50", p(&acquire, 0.5)),
        ("core.session_acquire_ns.p99", p(&acquire, 0.99)),
        (
            "core.batch_acquire_ns_per_name",
            p(&rec.durations("core.acquire_batch"), 0.5) / BATCH as f64,
        ),
    ]);
    recorders.push(rec);
    for name in held {
        Namespace::release(&object, name).expect("release");
    }
    let left = Namespace::held(&object);
    checks.expect(left == 0, || format!("core probe left {left} names held"));
}

fn tas(
    cfg: &Config,
    slice: Duration,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    checks: &mut Checks,
    values: &mut Values,
) {
    // `Rebatching<CountingSlot>` behind the service at the inproc
    // occupancy: the paper's step metric, counted on real atomics.
    let schedule = ProbeSchedule::paper(Epsilon::one(), DEFAULT_BETA).expect("paper defaults");
    let layout = BatchLayout::shared(inproc::CAPACITY, schedule).expect("layout");
    let slots: Arc<TasArray<CountingSlot>> = Arc::new(TasArray::from_slots(
        (0..layout.namespace_size())
            .map(|_| CountingTas::new(AtomicTas::new()))
            .collect(),
    ));
    let backend = Rebatching::from_parts(layout, Arc::clone(&slots)).expect("counting backend");
    let service = NameService::with_backend(Arc::new(backend), SeedPolicy::Fixed(cfg.seed));
    let tas_ops = || {
        (0..slots.len())
            .map(|i| slots.slot(i).tas_ops())
            .sum::<u64>()
    };
    let mut held = prefill(|| service.acquire_name().expect("prefill"));
    let mut rng = FastRng::seed_from_u64(derive_seed(cfg.seed, 4, 0));
    let mut rec = Recorder::new(epoch, "tas");
    let before = tas_ops();
    let mut acquires = 0u64;
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        let index = (rng.next_u64() % held.len() as u64) as usize;
        service
            .release_name(held.swap_remove(index))
            .expect("release");
        let t0 = Instant::now();
        let name = service.acquire_name();
        let t1 = Instant::now();
        rec.record("tas.counted_acquire", t0, t1, ROOT, acquires);
        held.push(name.expect("within capacity"));
        acquires += 1;
    }
    let ops = tas_ops() - before;
    values.extend([
        ("tas.ops_per_acquire", ops as f64 / acquires as f64),
        ("tas.win_frac", acquires as f64 / ops as f64),
    ]);
    recorders.push(rec);
    for name in held {
        service.release_name(name).expect("release");
    }
    checks.service(&service);
}

fn engine(
    cfg: &Config,
    slice: Duration,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    checks: &mut Checks,
    values: &mut Values,
) {
    // One thread running trials back to back on one reused worker
    // (`Execution::run_typed_in` with one `EngineScratch`), then the
    // same trials through `Sweep` on two threads.
    let (kind, memory) = sim::fleet();
    let mut worker = SweepWorker::new();
    let mut rec = Recorder::new(epoch, "sim");
    let mut single = Vec::new();
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        let trial = sim::trial(&mut worker, &kind, memory, cfg.seed, single.len() as u64);
        rec.record(
            "sim.trial",
            trial.start,
            trial.end,
            ROOT,
            single.len() as u64,
        );
        single.push(trial);
    }
    recorders.push(rec);
    let steps: u64 = single.iter().map(|t| t.steps).sum();
    let named: usize = single.iter().map(|t| t.named).sum();
    let nanos: u128 = single.iter().map(|t| (t.end - t.start).as_nanos()).sum();

    let start = Instant::now();
    let swept = Sweep::new(cfg.seed, sim::THREADS).trials(single.len(), |t, w| {
        sim::trial(w, &kind, memory, cfg.seed, t as u64)
    });
    let wall = start.elapsed().as_secs_f64();
    let same = swept
        .iter()
        .zip(&single)
        .all(|(a, b)| a.steps == b.steps && a.max_name == b.max_name);
    checks.expect(same, || {
        "Sweep results differ from the single-thread run".to_string()
    });
    checks.expect(single.iter().all(|t| t.named == sim::N && t.within), || {
        "a simulated process was left unnamed or named out of bounds".to_string()
    });
    values.extend([
        ("sim.ns_per_step", nanos as f64 / steps as f64),
        (
            "sim.max_steps",
            single.iter().map(|t| t.max_steps).max().unwrap_or(0) as f64,
        ),
        ("sim.steps_per_name", steps as f64 / named as f64),
        ("sweep.steps_per_s", steps as f64 / wall),
        (
            "sweep.efficiency",
            nanos as f64 / 1e9 / (wall * sim::THREADS as f64),
        ),
        ("sweep.trials_per_s", single.len() as f64 / wall),
    ]);
}
