//! The worker threads of a multi-shard [`Service`](crate::Service).
//!
//! Shards 1..k each get one thread, started by the service's first
//! `step` and kept until the service drops; the caller of `step` drives
//! shard 0. Starting fresh threads for every batch instead would cost a
//! thread start plus a wake-up of the idle core it lands on, once per
//! `step` call whatever the batch holds: tens of microseconds typically
//! and milliseconds in the tail on a small, shared machine, where a
//! 128-slot batch itself takes a few milliseconds. Between batches a
//! worker spins for up to [`IDLE_SPIN`], which covers a client's
//! requests between two batches, and then parks.
//!
//! Each worker read-locks the router itself for the batch. The standard
//! `RwLock` holds new readers back while a writer waits, so a writer
//! that queued after the caller's read lock but before a worker's would
//! deadlock the batch: the caller waits in the slot barrier for the
//! worker, the worker for the writer, the writer for the caller. Every
//! router writer therefore takes `Core::gate` first, and `step` holds the
//! gate from its own read lock until every worker reports its read lock
//! taken ([`Crew::post`]).

use crate::router::Router;
use crate::service::Core;
use crate::shard::{worker_loop, StepCtx};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urn_coloring::AlgorithmParams;

/// How long an idle worker spins for the next batch before it parks.
const IDLE_SPIN: Duration = Duration::from_micros(200);

/// Spins before a waiting thread starts yielding its core.
const SPINS: u32 = 128;

/// One `step` batch, as every shard thread needs it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Job {
    pub(crate) slots: u64,
    /// Parameters for FSMs re-admitted this batch (watchdog resets).
    pub(crate) params: AlgorithmParams,
    pub(crate) seed: u64,
    pub(crate) stall_slots: u64,
}

impl Job {
    /// The batch's step context under the read-locked `router`.
    pub(crate) fn ctx<'a>(&self, core: &'a Core, router: &'a Router) -> StepCtx<'a> {
        StepCtx {
            router,
            shared: &core.shared,
            mailbox: &core.mailbox,
            params: self.params,
            seed: self.seed,
            stall_slots: self.stall_slots,
        }
    }
}

/// Where `step` posts batches for the workers.
struct Board {
    /// Batches posted so far; a worker runs each one exactly once.
    posted: AtomicU64,
    /// The latest batch; `None` tells the workers to exit.
    job: Mutex<Option<Job>>,
    /// Workers holding the router read lock for the latest batch.
    ready: AtomicUsize,
}

/// The worker threads of shards 1..k.
pub(crate) struct Crew {
    board: Arc<Board>,
    workers: Vec<JoinHandle<()>>,
}

impl Crew {
    /// Starts one idle worker per shard but the first.
    pub(crate) fn start(core: &Arc<Core>) -> Crew {
        let board = Arc::new(Board {
            posted: AtomicU64::new(0),
            job: Mutex::new(None),
            ready: AtomicUsize::new(0),
        });
        let workers = (1..core.shards.len())
            .map(|at| {
                let (core, board) = (Arc::clone(core), Arc::clone(&board));
                std::thread::Builder::new()
                    .name(format!("colord-shard-{at}"))
                    .spawn(move || crew_loop(at, &core, &board))
                    .expect("spawn shard worker")
            })
            .collect();
        Crew { board, workers }
    }

    /// Hands `job` to every worker; returns once each one holds the
    /// router's read lock for it. The caller holds the gate throughout.
    pub(crate) fn post(&self, job: Job) {
        // Every worker counted itself in for the previous batch before
        // that `post` returned; the `Release` bump of `posted` orders
        // this reset before their next count.
        self.board.ready.store(0, Ordering::Relaxed);
        self.publish(Some(job));
        let mut spins = 0u32;
        while self.board.ready.load(Ordering::Acquire) < self.workers.len() {
            spins += 1;
            if spins < SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn publish(&self, job: Option<Job>) {
        *self.board.job.lock().expect("job lock") = job;
        self.board.posted.fetch_add(1, Ordering::Release);
        for worker in &self.workers {
            worker.thread().unpark();
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.publish(None);
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// A worker's life: wait for a batch, read-lock the router, run the
/// batch's slots for shard `at`, repeat until told to exit.
fn crew_loop(at: usize, core: &Core, board: &Board) {
    let mut seen = 0;
    loop {
        seen = next_post(board, seen);
        let Some(job) = *board.job.lock().expect("job lock") else {
            return;
        };
        let router = core.router.read().expect("router lock");
        board.ready.fetch_add(1, Ordering::Release);
        let ctx = job.ctx(core, &router);
        worker_loop(at, &core.shards, &core.tdma, &ctx, &core.barrier, job.slots);
    }
}

/// Waits until a batch after `seen` is posted and returns its number:
/// spins, then yields, and parks once [`IDLE_SPIN`] has passed.
fn next_post(board: &Board, seen: u64) -> u64 {
    let idle = Instant::now();
    let mut spins = 0u32;
    loop {
        let posted = board.posted.load(Ordering::Acquire);
        if posted != seen {
            return posted;
        }
        spins += 1;
        if spins < SPINS {
            std::hint::spin_loop();
        } else if idle.elapsed() < IDLE_SPIN {
            std::thread::yield_now();
        } else {
            // `publish` unparks after bumping `posted`, so a post that
            // lands between the load above and this park is not lost.
            std::thread::park();
        }
    }
}
