//! Timed runs of the whole deployment, measured from outside at its public
//! API.
//!
//! One instance of a run:
//!
//! 1. **Setup.** `start()` (calibration partitioning) plus the µ warm-up
//!    insertions, until every routed insertion has been absorbed. Absorption
//!    is read from the public completion counter: each routed copy of an
//!    insertion completes once, and an insertion routed nowhere completes
//!    once at its dispatcher.
//! 2. **Open loop.** The open-loop records are sent on a fixed schedule at
//!    the workload's offered rate. Delivery latency runs from an object's
//!    *scheduled* send time to the first of its matches at the subscriber,
//!    so a stalled `send` delays every later object too. The generator's
//!    own lateness is reported.
//! 3. **Closed loop.** The closed-loop records are sent as fast as `send`
//!    accepts them; `drain_rps` is their count over the time from the first
//!    send until `finish()` returns and the delivery channel is drained.
//!
//! One thread sends; a second drains the delivery channel. Every delivered
//! pair is checked against the reference afterwards.

use crate::reference::{compare, Pair, PairCheck, Reference, Timeline};
use crate::report::{release_free_memory, rss_mb};
use crate::workloads::{Inputs, Workload};
use ps2stream::prelude::*;
use ps2stream_stream::{unbounded, RuntimeBackend};
use std::time::{Duration, Instant};

/// Pause between the open and the closed loop, so the open loop's last
/// records leave the pipeline before the closed loop's clock starts.
const SETTLE: Duration = Duration::from_millis(100);
/// A warm-up not absorbed by then lost records: the run fails instead of
/// waiting forever.
const ABSORB_LIMIT: Duration = Duration::from_secs(60);

/// What one instance measured.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Seconds from `start()` until the warm-up was absorbed.
    pub setup_s: f64,
    /// Resident-memory growth over setup, MiB. Only the first instance of a
    /// process reads a true figure: later ones reuse heap pages an earlier
    /// one freed.
    pub setup_rss_mb: f64,
    /// Closed-loop records per second.
    pub drain_rps: f64,
    /// Delivery latency of every open-loop object with a delivered match, ms.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each open-loop record, ms.
    pub lateness_ms: Vec<f64>,
    /// Delivered pairs, until [`Instance::check_against`] consumes them.
    pub pairs: Vec<Pair>,
    /// Pair-by-pair delivery check.
    pub check: PairCheck,
    /// Spurious pairs the predicate does not explain.
    pub invented: u64,
    /// For every other wrong pair, how many send positions its object
    /// would have to move to make it right ([`Timeline::reorder_distance`]).
    pub reorder_gaps: Vec<usize>,
    /// The system's own end-of-run report.
    pub report: RunReport,
    /// The routing table `start()` calibrated, before any record was sent.
    pub table: RoutingTable,
}

/// Runs one instance of `workload` on `inputs` with `dispatchers`
/// dispatchers.
pub fn run_instance(workload: &Workload, inputs: &Inputs, dispatchers: usize) -> Instance {
    // every record is cloned before any clock starts
    let warmup = inputs.warmup.clone();
    let open = inputs.open.clone();
    let closed = inputs.closed.clone();
    let sample = inputs.sample.clone();
    let config = workload.system_config(dispatchers, RuntimeBackend::Threads);

    let (tx, rx) = unbounded::<MatchResult>();
    let epoch = Instant::now();
    let first_id = inputs.first_object_id;
    let span = inputs.object_id_span;
    // the drain thread's buffers are allocated here, before the setup's
    // memory baseline is read
    let mut pairs: Vec<Pair> = Vec::new();
    let mut first_seen = vec![u64::MAX; span];
    let drain = std::thread::spawn(move || {
        while let Ok(m) = rx.recv() {
            pairs.push((m.query_id.value(), m.object_id.value()));
            let slot = m.object_id.value().wrapping_sub(first_id) as usize;
            if slot < span && first_seen[slot] == u64::MAX {
                first_seen[slot] = epoch.elapsed().as_nanos() as u64;
            }
        }
        (pairs, first_seen)
    });

    // 1. setup
    release_free_memory();
    let rss_before = rss_mb();
    let started = Instant::now();
    let mut system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(HybridPartitioner::default()))
        .with_calibration_sample(sample)
        .with_delivery(tx)
        .start();
    let start_time = started.elapsed();
    // the absorption target is computed on a copy of the fresh routing
    // table, off the clock
    let table = system.routing().read().clone();
    let target: u64 = warmup
        .iter()
        .map(|r| match r {
            StreamRecord::Update(QueryUpdate::Insert(q)) => {
                table.route_insert(q).len().max(1) as u64
            }
            _ => 1,
        })
        .sum();
    let completions = std::sync::Arc::clone(system.metrics());
    let warm_started = Instant::now();
    for record in warmup {
        system.send(record);
    }
    system.flush();
    while completions.throughput.count() < target {
        assert!(
            warm_started.elapsed() < ABSORB_LIMIT,
            "warm-up not absorbed: {} of {target} completions",
            completions.throughput.count()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let setup_s = (start_time + warm_started.elapsed()).as_secs_f64();
    let setup_rss_mb = rss_mb() - rss_before;

    // 2. open loop
    let period = 1.0 / inputs.open_rate;
    let open_start = Instant::now();
    let mut lateness_ms = Vec::with_capacity(open.len());
    for (i, record) in open.into_iter().enumerate() {
        let due = open_start + Duration::from_secs_f64(i as f64 * period);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lateness_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        system.send(record);
    }
    system.flush();
    std::thread::sleep(SETTLE);

    // 3. closed loop
    let closed_len = closed.len();
    let closed_start = Instant::now();
    for record in closed {
        system.send(record);
    }
    let report = system.finish();
    let (pairs, first_seen) = drain.join().expect("delivery drain thread");
    let drain_rps = closed_len as f64 / closed_start.elapsed().as_secs_f64();

    // latency of open-loop objects, from their scheduled send time
    let open_start_ns = open_start.duration_since(epoch).as_nanos() as f64;
    let mut latencies_ms = Vec::new();
    for (i, record) in inputs.open.iter().enumerate() {
        let StreamRecord::Object(o) = record else {
            continue;
        };
        let Some(slot) = inputs.object_slot(o.id) else {
            continue;
        };
        let seen = first_seen[slot];
        if seen != u64::MAX {
            let due_ns = open_start_ns + i as f64 * period * 1e9;
            latencies_ms.push((seen as f64 - due_ns) / 1e6);
        }
    }

    Instance {
        setup_s,
        setup_rss_mb,
        drain_rps,
        latencies_ms,
        lateness_ms,
        pairs,
        check: PairCheck::default(),
        invented: 0,
        reorder_gaps: Vec::new(),
        report,
        table,
    }
}

/// Runs the deployment once on the deterministic `sim:<seed>` backend,
/// starting from `table`, and returns its report and the pairs it
/// delivered. The backend interleaves the executors in a fixed order, so
/// the result is a function of the code and the inputs, never of the
/// scheduler.
pub fn sim_run<'a>(
    workload: &Workload,
    table: &RoutingTable,
    inputs: &Inputs,
    records: impl Iterator<Item = &'a StreamRecord>,
    seed: u64,
    dispatchers: usize,
) -> (RunReport, Vec<Pair>) {
    let config = workload.system_config(dispatchers, RuntimeBackend::deterministic(seed));
    let (tx, rx) = unbounded::<MatchResult>();
    let mut system = Ps2StreamBuilder::new(config)
        .with_routing_table(table.clone())
        .with_calibration_sample(inputs.sample.clone())
        .with_delivery(tx)
        .start();
    for record in records {
        system.send(record.clone());
    }
    let report = system.finish();
    let pairs = rx
        .try_iter()
        .map(|m| (m.query_id.value(), m.object_id.value()))
        .collect();
    (report, pairs)
}

impl Instance {
    /// Checks the delivered pairs against the reference, pair by pair, and
    /// releases them.
    pub fn check_against(&mut self, reference: &Reference, timeline: &Timeline) {
        let (check, wrong) = compare(&reference.pairs, &mut self.pairs);
        self.check = check;
        (self.reorder_gaps, self.invented) = wrong.reorder_gaps(timeline);
        self.pairs = Vec::new();
    }
}
