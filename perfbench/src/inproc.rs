//! `inproc_full`: `NameService` in-process, two threads, 90% occupancy.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::{RngCore, SeedableRng};
use renaming_core::FastRng;
use renaming_service::{Name, NameService};

use crate::gate::{Checks, Occupancy};
use crate::trace::{Recorder, ROOT};
use crate::{derive_seed, round_deadline, wire, Config, Phase, Rig, Round};

/// Names the service is built for: 131072 slots of 128 bytes, 16 MiB,
/// more than the last-level cache.
pub(crate) const CAPACITY: usize = 65536;
/// Names held throughout: 90% of capacity.
pub(crate) const PREFILL: usize = CAPACITY * 9 / 10;
/// Generator threads.
const THREADS: usize = 2;
/// Churn operations per thread during set-up, before timing starts.
const WARMUP_OPS: usize = 20_000;

/// What the rig asks of a generator thread.
enum Command {
    Measure {
        duration: Duration,
        rounds: usize,
        trace: Option<Instant>,
    },
    Finish,
}

/// A generator thread's answer to a command.
enum Reply {
    Ready,
    Measured {
        rounds: Vec<Round>,
        recorder: Option<Recorder>,
        failed: u64,
    },
    Finished {
        release_errors: u64,
    },
}

/// One generator thread's state.
struct Generator {
    service: Arc<NameService>,
    occupancy: Arc<Occupancy>,
    held: Vec<Name>,
    rng: FastRng,
    failed: u64,
}

impl Generator {
    fn acquire(&mut self) {
        match self.service.acquire_name() {
            Ok(name) => {
                self.occupancy.acquired(name.value() as u64);
                self.held.push(name);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Releases a uniformly random held name, then acquires one; returns
    /// the instants before the release, between, and after the acquire.
    fn op(&mut self) -> [Instant; 3] {
        let index = (self.rng.next_u64() % self.held.len() as u64) as usize;
        let name = self.held.swap_remove(index);
        self.occupancy.released(name.value() as u64);
        let t0 = Instant::now();
        let released = self.service.release_name(name);
        let t1 = Instant::now();
        self.failed += u64::from(released.is_err());
        self.acquire();
        [t0, t1, Instant::now()]
    }

    fn measure(&mut self, duration: Duration, rounds: usize, trace: Option<Instant>) -> Reply {
        let failed_before = self.failed;
        let mut recorder = trace.map(|epoch| Recorder::new(epoch, "inproc_full"));
        let mut out = Vec::with_capacity(rounds);
        let start = Instant::now();
        let mut request = 0u64;
        for round in 0..rounds {
            let deadline = round_deadline(start, duration, round, rounds);
            let mut r = Round::default();
            let round_start = Instant::now();
            loop {
                let [t0, t1, t2] = self.op();
                r.release.record((t1 - t0).as_nanos() as u64);
                r.acquire.record((t2 - t1).as_nanos() as u64);
                r.ops += 2;
                if let Some(rec) = recorder.as_mut() {
                    let parent = rec.record("service.op", t0, t2, ROOT, request);
                    rec.record("service.release_name", t0, t1, parent, request);
                    rec.record("service.acquire_name", t1, t2, parent, request);
                }
                request += 1;
                if t2 >= deadline {
                    r.seconds = (t2 - round_start).as_secs_f64();
                    break;
                }
            }
            out.push(r);
        }
        Reply::Measured {
            rounds: out,
            recorder,
            failed: self.failed - failed_before,
        }
    }

    /// The thread body. Every name is acquired and released on this one
    /// thread, so a concurrency oracle sees each hold begin and end with
    /// the same participant.
    fn run(mut self, barrier: &Barrier, commands: Receiver<Command>, replies: Sender<Reply>) {
        for _ in 0..PREFILL / THREADS {
            self.acquire();
        }
        for _ in 0..WARMUP_OPS {
            self.op();
        }
        if replies.send(Reply::Ready).is_err() {
            return;
        }
        for command in commands {
            let reply = match command {
                Command::Measure {
                    duration,
                    rounds,
                    trace,
                } => {
                    barrier.wait();
                    self.measure(duration, rounds, trace)
                }
                Command::Finish => {
                    let mut release_errors = 0;
                    for name in std::mem::take(&mut self.held) {
                        self.occupancy.released(name.value() as u64);
                        release_errors += u64::from(self.service.release_name(name).is_err());
                    }
                    let _ = replies.send(Reply::Finished { release_errors });
                    return;
                }
            };
            if replies.send(reply).is_err() {
                return;
            }
        }
    }
}

/// A generator thread as the rig sees it.
struct Worker {
    commands: Sender<Command>,
    replies: Receiver<Reply>,
    thread: JoinHandle<()>,
}

pub(crate) struct Inproc {
    service: Arc<NameService>,
    occupancy: Arc<Occupancy>,
    workers: Vec<Worker>,
}

impl Inproc {
    pub(crate) fn service(&self) -> &NameService {
        &self.service
    }

    fn replies(&self) -> impl Iterator<Item = Reply> + '_ {
        self.workers
            .iter()
            .map(|w| w.replies.recv().expect("generator thread answers"))
    }
}

impl Rig for Inproc {
    const PINNED: bool = false;

    /// Builds the service; each generator thread prefills its share,
    /// warms up and reports ready.
    fn setup(cfg: &Config) -> Self {
        let service = Arc::new(wire::service(cfg, CAPACITY, false));
        let occupancy = Arc::new(Occupancy::new(service.namespace_size()));
        let barrier = Arc::new(Barrier::new(THREADS));
        let workers = (0..THREADS)
            .map(|t| {
                let (commands, inbox) = channel();
                let (outbox, replies) = channel();
                let generator = Generator {
                    service: Arc::clone(&service),
                    occupancy: Arc::clone(&occupancy),
                    held: Vec::with_capacity(PREFILL / THREADS + 1),
                    rng: FastRng::seed_from_u64(derive_seed(cfg.seed, 1, t as u64)),
                    failed: 0,
                };
                let barrier = Arc::clone(&barrier);
                let thread = std::thread::spawn(move || generator.run(&barrier, inbox, outbox));
                Worker {
                    commands,
                    replies,
                    thread,
                }
            })
            .collect();
        let rig = Self {
            service,
            occupancy,
            workers,
        };
        for reply in rig.replies() {
            assert!(matches!(reply, Reply::Ready), "generator thread set-up");
        }
        rig
    }

    fn measure(&mut self, duration: Duration, rounds: usize, trace: Option<Instant>) -> Phase {
        for w in &self.workers {
            let command = Command::Measure {
                duration,
                rounds,
                trace,
            };
            w.commands.send(command).expect("generator thread listens");
        }
        let mut phase = Phase::default();
        let replies: Vec<Reply> = self.replies().collect();
        for reply in replies {
            let Reply::Measured {
                rounds,
                recorder,
                failed,
            } = reply
            else {
                panic!("generator thread answered a measure with something else");
            };
            for (i, r) in rounds.into_iter().enumerate() {
                if phase.rounds.len() <= i {
                    phase.rounds.push(Round::default());
                }
                let merged = &mut phase.rounds[i];
                merged.ops += r.ops;
                // Threads share the round deadlines: a round lasts as long
                // as its slowest thread's share of it.
                merged.seconds = merged.seconds.max(r.seconds);
                merged.acquire.merge(&r.acquire);
                merged.release.merge(&r.release);
            }
            phase.recorders.extend(recorder);
            phase.failed += failed;
        }
        phase.attempted = phase.rounds.iter().map(|r| r.ops).sum();
        phase
    }

    fn name_max_ratio(&self) -> f64 {
        self.occupancy
            .max_issued()
            .map_or(f64::NAN, |max| (max + 1) as f64 / CAPACITY as f64)
    }

    fn finish(self, checks: &mut Checks) {
        for w in &self.workers {
            w.commands
                .send(Command::Finish)
                .expect("generator thread listens");
        }
        for reply in self.replies() {
            let Reply::Finished { release_errors } = reply else {
                panic!("generator thread answered finish with something else");
            };
            checks.expect(release_errors == 0, || {
                format!("{release_errors} releases failed at the end")
            });
        }
        for w in self.workers {
            w.thread.join().expect("generator thread");
        }
        checks.occupancy(&self.occupancy);
        checks.service(&self.service);
    }
}
