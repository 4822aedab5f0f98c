//! The traced pass: per-layer numbers, measured by timing calls into each
//! layer's public functions on one thread.
//!
//! The replay feeds each workload's records through route → per-worker
//! GI² index → merger, input batch by input batch, the way the dispatchers,
//! workers and mergers see them. A span (name, start, end, parent) is kept
//! in memory around every layer call and written out at the end; each
//! layer's self time is its spans' time minus the time of their children.
//! The remaining layers (stream hop, op log, migration, the single-index
//! baseline) and one deterministic `sim:<seed>` run of the whole deployment
//! are measured beside it.

use crate::pipeline;
use crate::reference::{compare, replay, PairCheck, Reference};
use crate::report::{median, Metrics};
use crate::workloads::{self, Inputs, Workload, BATCH_SIZE, GRID_EXP, MERGERS, WORKERS};
use ps2stream::merger::Merger;
use ps2stream::messages::MergerMessage;
use ps2stream::prelude::*;
use ps2stream_balance::{GreedySelector, MigrationCell, MigrationSelection, MigrationSelector};
use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
use ps2stream_stream::{bounded, unbounded, Batch, BatchingEmitter, Emitter, Envelope, Operator};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Stream records (after the warm-up) replayed and run under `sim`; longer
/// streams are cut here so a traced run stays short.
pub const TRACE_RECORDS: usize = 150_000;
/// Ops fed to the op log: two snapshot-and-compaction cycles.
const PERSIST_OPS: usize = 2 * workloads::SNAPSHOT_EVERY_OPS as usize + 512;
/// Records pushed through the channel hop per repetition.
const HOP_RECORDS: usize = 200_000;
/// Repetitions of the channel hop; its median is reported.
const HOP_REPEATS: usize = 3;
/// Repetitions of the selector call, which takes microseconds; its median
/// is reported.
const SELECT_REPEATS: usize = 25;

/// One span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Parent span index, if any.
    pub parent: Option<u32>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span and returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Self time per span name, ns: each span's duration minus the time its
    /// children cover (children of one span never overlap).
    pub fn self_times(&self) -> HashMap<&'static str, u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_time[i]);
            *out.entry(span.name).or_default() += own;
        }
        out
    }

    /// Writes one JSON array per line: `[index, parent, name, start_ns,
    /// end_ns]` (parent -1 for a root).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "[{i},{parent},\"{}\",{},{}]",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One worker of the replay: its index, scratch and busy time.
struct ReplayWorker {
    index: Gi2Index,
    scratch: MatchScratch,
    busy_ns: u64,
}

/// Counters of the replay.
#[derive(Default)]
struct Counts {
    objects: u64,
    object_copies: u64,
    discarded: u64,
    update_copies: u64,
    matches: u64,
    warm_inserts: u64,
    warm_insert_copies: u64,
    tracked_peak: usize,
}

/// Runs the traced pass and returns the per-layer metrics, the replay's and
/// the `sim` run's pair checks, and the spans.
pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    dispatchers: usize,
    out_dir: &Path,
) -> (Metrics, PairCheck, PairCheck, Spans) {
    let stream: Vec<&StreamRecord> = inputs.stream_records().take(TRACE_RECORDS).collect();
    let mut metrics = Metrics::default();
    let sample = &inputs.sample;

    // partition: calibration
    let started = Instant::now();
    let mut table = HybridPartitioner::default().partition(sample, WORKERS);
    let calibrate_s = started.elapsed().as_secs_f64();
    table.reshard_for_topology(1, None);
    let pristine = table.clone();
    metrics.push("partition.calibrate_s", calibrate_s, "s");
    metrics.push(
        "partition.text_share",
        table.text_partitioned_fraction(),
        "share",
    );

    // reference, and the single-index baseline over the same stream
    let reference: Reference = replay(
        sample.bounds(),
        GRID_EXP,
        sample.object_stats(),
        inputs.warmup.iter().chain(stream.iter().copied()),
        inputs.warmup.len(),
    );
    metrics.push(
        "baseline.single_index_rps",
        reference.timed_records as f64 / reference.timed.as_secs_f64(),
        "1/s",
    );

    // replay: route -> per-worker index -> merger
    let bounds = table.grid().bounds();
    let mut workers: Vec<ReplayWorker> = (0..WORKERS)
        .map(|_| {
            let mut index = Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(GRID_EXP));
            index.set_term_stats(sample.object_stats().clone());
            ReplayWorker {
                index,
                scratch: MatchScratch::new(),
                busy_ns: 0,
            }
        })
        .collect();
    let merger_metrics = SystemMetrics::new(WORKERS);
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let mut mergers: Vec<Merger> = (0..MERGERS)
        .map(|_| Merger::new(merger_metrics.clone(), Some(delivery_tx.clone()), 100_000))
        .collect();
    drop(delivery_tx);
    let sink: Emitter<()> = Emitter::sink();
    let mut counts = Counts::default();
    let mut routes: Vec<Vec<WorkerId>> = Vec::with_capacity(BATCH_SIZE);

    // warm-up inserts: routed and indexed, counted but not traced
    for record in &inputs.warmup {
        if let StreamRecord::Update(QueryUpdate::Insert(q)) = record {
            let to = table.route_insert(q);
            counts.warm_inserts += 1;
            counts.warm_insert_copies += to.len() as u64;
            for w in to {
                workers[w.index()].index.insert(q.clone());
            }
        }
    }
    let checked_before: u64 = workers.iter().map(|w| w.index.matches_checked()).sum();
    let sigrej_before: u64 = workers.iter().map(|w| w.index.signature_rejections()).sum();

    let mut spans = Spans::new();
    let root = spans.open("replay", None);
    let mut sequence = inputs.warmup.len() as u64;
    let mut per_worker: Vec<Vec<(u64, &StreamRecord)>> = vec![Vec::new(); WORKERS];
    let mut per_merger: Vec<Vec<Envelope<Vec<MatchResult>>>> = vec![Vec::new(); MERGERS];
    for chunk in stream.chunks(BATCH_SIZE) {
        let batch = spans.open("batch", Some(root));
        // routing: the dispatcher's decision for every record of the batch
        let routing = spans.open("routing", Some(batch));
        routes.clear();
        for record in chunk {
            routes.push(match record {
                StreamRecord::Object(o) => table.route_object(o),
                StreamRecord::Update(QueryUpdate::Insert(q)) => table.route_insert(q),
                StreamRecord::Update(QueryUpdate::Delete(q)) => table.route_delete(q),
            });
        }
        spans.close(routing);
        for (record, to) in chunk.iter().zip(&routes) {
            sequence += 1;
            match record {
                StreamRecord::Object(_) => {
                    counts.objects += 1;
                    counts.object_copies += to.len() as u64;
                    counts.discarded += u64::from(to.is_empty());
                }
                StreamRecord::Update(_) => {
                    counts.update_copies += to.len() as u64;
                }
            }
            for w in to {
                per_worker[w.index()].push((sequence, record));
            }
        }
        // index: each worker's routed sub-batch, objects through
        // match_batch, updates through insert / delete
        for (w, records) in per_worker.iter_mut().enumerate() {
            if records.is_empty() {
                continue;
            }
            let worker = &mut workers[w];
            let index_span = spans.open("index", Some(batch));
            let mut i = 0;
            while i < records.len() {
                let run_end = records[i..]
                    .iter()
                    .position(|(_, r)| r.is_object() != records[i].1.is_object())
                    .map_or(records.len(), |p| i + p);
                let run = &records[i..run_end];
                if run[0].1.is_object() {
                    let s = spans.open("index.match", Some(index_span));
                    let ReplayWorker { index, scratch, .. } = worker;
                    index.match_batch(
                        run.iter().map(|(_, r)| match r {
                            StreamRecord::Object(o) => o,
                            StreamRecord::Update(_) => unreachable!("object run"),
                        }),
                        scratch,
                        |j, object, results| {
                            if !results.is_empty() {
                                let merger = (object.id.value() as usize) % MERGERS;
                                per_merger[merger].push(Envelope::now(run[j].0, results.to_vec()));
                            }
                        },
                    );
                    spans.close(s);
                } else {
                    let s = spans.open("index.update", Some(index_span));
                    for (_, r) in run {
                        match r {
                            StreamRecord::Update(QueryUpdate::Insert(q)) => {
                                worker.index.insert(q.clone())
                            }
                            StreamRecord::Update(QueryUpdate::Delete(q)) => {
                                worker.index.delete(q);
                            }
                            StreamRecord::Object(_) => unreachable!("update run"),
                        }
                    }
                    spans.close(s);
                }
                i = run_end;
            }
            worker.busy_ns += spans.close(index_span);
            records.clear();
        }
        // merger: the match batches of this input batch
        for (m, envelopes) in per_merger.iter_mut().enumerate() {
            if envelopes.is_empty() {
                continue;
            }
            let n: u64 = envelopes.iter().map(|e| e.payload.len() as u64).sum();
            counts.matches += n;
            let message = MergerMessage::Matches(Batch::from_records(std::mem::take(envelopes)));
            let s = spans.open("merger", Some(batch));
            mergers[m].process(message, &sink);
            spans.close(s);
            counts.tracked_peak = counts.tracked_peak.max(mergers[m].tracked_objects());
        }
        spans.close(batch);
    }
    spans.close(root);
    drop(mergers);
    let mut replay_pairs: Vec<(u64, u64)> = delivery_rx
        .try_iter()
        .map(|m| (m.query_id.value(), m.object_id.value()))
        .collect();
    let (replay_check, _) = compare(&reference.pairs, &mut replay_pairs);

    let self_ns = spans.self_times();
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    metrics.push("replay.self_ms", ns("replay") / 1e6, "ms");
    metrics.push("replay.batch_self_ms", ns("batch") / 1e6, "ms");
    metrics.push("routing.self_ms", ns("routing") / 1e6, "ms");
    metrics.push("index.self_ms", ns("index") / 1e6, "ms");
    metrics.push("index.match_self_ms", ns("index.match") / 1e6, "ms");
    metrics.push("index.update_self_ms", ns("index.update") / 1e6, "ms");
    metrics.push("merger.self_ms", ns("merger") / 1e6, "ms");
    metrics.push(
        "routing.ns_per_record",
        per(ns("routing"), stream.len() as u64),
        "ns",
    );
    metrics.push(
        "routing.object_fanout",
        per(counts.object_copies as f64, counts.objects),
        "copies/object",
    );
    metrics.push(
        "routing.discard_share",
        per(counts.discarded as f64, counts.objects),
        "share",
    );
    metrics.push(
        "routing.insert_fanout",
        per(counts.warm_insert_copies as f64, counts.warm_inserts),
        "copies/insert",
    );
    let checked: u64 = workers
        .iter()
        .map(|w| w.index.matches_checked())
        .sum::<u64>()
        - checked_before;
    let sigrej: u64 = workers
        .iter()
        .map(|w| w.index.signature_rejections())
        .sum::<u64>()
        - sigrej_before;
    metrics.push(
        "index.match_ns_per_object",
        per(ns("index.match"), counts.object_copies),
        "ns",
    );
    metrics.push(
        "index.matches_per_object",
        per(counts.matches as f64, counts.object_copies),
        "count",
    );
    metrics.push(
        "index.candidates_per_object",
        per(checked as f64, counts.object_copies),
        "count",
    );
    metrics.push(
        "index.useful_ratio",
        per(counts.matches as f64, checked),
        "ratio",
    );
    metrics.push(
        "index.sigrej_per_object",
        per(sigrej as f64, counts.object_copies),
        "count",
    );
    metrics.push(
        "index.update_ns_per_op",
        per(ns("index.update"), counts.update_copies),
        "ns",
    );
    let bytes: usize = workers.iter().map(|w| w.index.memory_usage()).sum();
    let queries: usize = workers.iter().map(|w| w.index.num_queries()).sum();
    metrics.push(
        "index.bytes_per_query",
        per(bytes as f64, queries as u64),
        "B",
    );
    let busy: Vec<f64> = workers.iter().map(|w| w.busy_ns as f64).collect();
    let busy_mean = busy.iter().sum::<f64>() / busy.len() as f64;
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    metrics.push("index.busy_skew", busy_max / busy_mean.max(1.0), "ratio");
    metrics.push(
        "merger.ns_per_match",
        per(ns("merger"), counts.matches),
        "ns",
    );
    metrics.push(
        "merger.duplicate_share",
        per(
            merger_metrics
                .duplicates_removed
                .load(std::sync::atomic::Ordering::Relaxed) as f64,
            counts.matches,
        ),
        "share",
    );
    metrics.push("merger.tracked_peak", counts.tracked_peak as f64, "count");

    metrics.push("stream.hop_ns_per_record", stream_hop_ns(&stream), "ns");
    persist_layer(inputs, &stream, &table, out_dir, &mut metrics);
    balance_layer(&workers, &mut metrics);

    // one deterministic run of the whole deployment
    let sim_check = sim_run(
        workload,
        inputs,
        &stream,
        &pristine,
        &reference,
        seed,
        dispatchers,
        &mut metrics,
    );
    (metrics, replay_check, sim_check, spans)
}

/// Time per record through a bounded channel plus a `BatchingEmitter` at
/// the system's batch size: one thread emits, a second receives.
fn stream_hop_ns(stream: &[&StreamRecord]) -> f64 {
    let mut samples = Vec::with_capacity(HOP_REPEATS);
    for _ in 0..HOP_REPEATS {
        let envelopes: Vec<Envelope<StreamRecord>> = stream
            .iter()
            .cycle()
            .take(HOP_RECORDS)
            .enumerate()
            .map(|(i, r)| Envelope::now(i as u64, (*r).clone()))
            .collect();
        let (tx, rx) = bounded::<Batch<StreamRecord>>(4096);
        let consumer = std::thread::spawn(move || {
            let mut received = 0usize;
            while let Ok(batch) = rx.recv() {
                received += batch.len();
            }
            received
        });
        let started = Instant::now();
        let mut emitter = BatchingEmitter::new(Emitter::new(vec![tx]), BATCH_SIZE);
        for envelope in envelopes {
            emitter.emit_to(0, envelope);
        }
        emitter.flush_all();
        drop(emitter);
        let received = consumer.join().expect("hop consumer");
        let elapsed = started.elapsed();
        assert_eq!(received, HOP_RECORDS, "the channel hop lost records");
        samples.push(elapsed.as_nanos() as f64 / HOP_RECORDS as f64);
    }
    median(&samples)
}

/// Op-log append and snapshot cost on the workload's own updates, with the
/// durable store's default policy, in a scratch directory.
fn persist_layer(
    inputs: &Inputs,
    stream: &[&StreamRecord],
    table: &RoutingTable,
    out_dir: &Path,
    metrics: &mut Metrics,
) {
    let dir = out_dir.join(format!("persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) =
        PersistentStore::open(workloads::store_config(dir.clone())).expect("open scratch store");
    store.set_stats(inputs.sample.object_stats().clone());
    let registry = table.registry_export();
    let updates = inputs
        .warmup
        .iter()
        .chain(stream.iter().copied())
        .filter_map(|r| match r {
            StreamRecord::Update(u) => Some(u),
            StreamRecord::Object(_) => None,
        })
        .take(PERSIST_OPS);
    let mut append_ns = 0u128;
    let mut appends = 0u64;
    let mut snapshot_ms = Vec::new();
    let mut first_cycle: Option<(u64, u64)> = None;
    for update in updates {
        let started = Instant::now();
        let due = store.log_update(update).expect("op-log append");
        append_ns += started.elapsed().as_nanos();
        appends += 1;
        if due {
            if first_cycle.is_none() {
                store.flush().expect("op-log flush");
                first_cycle = Some((store.log_bytes(), appends));
            }
            let started = Instant::now();
            store
                .snapshot_now(registry.clone())
                .expect("snapshot and compaction");
            snapshot_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    metrics.push(
        "persist.append_us_per_op",
        append_ns as f64 / 1e3 / appends.max(1) as f64,
        "us",
    );
    metrics.push(
        "persist.snapshot_ms",
        snapshot_ms.iter().sum::<f64>() / snapshot_ms.len().max(1) as f64,
        "ms",
    );
    let (bytes, ops) = first_cycle.unwrap_or((0, 1));
    metrics.push("persist.log_bytes_per_op", bytes as f64 / ops as f64, "B");
}

/// The controller's selector, then `extract_cell` and `insert`, between the
/// replay's most and least loaded workers.
fn balance_layer(workers: &[ReplayWorker], metrics: &mut Metrics) {
    let loads: Vec<f64> = workers
        .iter()
        .map(|w| w.index.cell_loads().iter().map(|c| c.load()).sum())
        .collect();
    let hot = (0..loads.len())
        .max_by(|&a, &b| loads[a].total_cmp(&loads[b]))
        .unwrap_or(0);
    let cold = (0..loads.len())
        .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
        .unwrap_or(0);
    let cells: Vec<MigrationCell> = workers[hot]
        .index
        .cell_loads()
        .into_iter()
        .filter(|c| c.queries > 0)
        .map(|c| MigrationCell::new(c.cell, c.load().max(1.0), c.bytes as u64))
        .collect();
    let tau = ((loads[hot] - loads[cold]) / 2.0).max(1.0);
    let mut select_us = Vec::with_capacity(SELECT_REPEATS);
    let mut selection = MigrationSelection::default();
    for _ in 0..SELECT_REPEATS {
        let started = Instant::now();
        selection = GreedySelector.select(&cells, tau);
        select_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let mut moving = selection.cells;
    if moving.is_empty() {
        if let Some(top) = cells.iter().max_by(|a, b| a.load.total_cmp(&b.load)) {
            moving.push(top.cell);
        }
    }
    let mut source = workers[hot].index.clone();
    let mut target = workers[cold].index.clone();
    let started = Instant::now();
    let mut moved = 0u64;
    for cell in moving {
        for q in source.extract_cell(cell) {
            target.insert(q);
            moved += 1;
        }
    }
    let migrate = started.elapsed();
    metrics.push("balance.select_us", median(&select_us), "us");
    metrics.push(
        "balance.migrate_us_per_query",
        migrate.as_secs_f64() * 1e6 / moved.max(1) as f64,
        "us",
    );
    metrics.push("balance.queries_moved", moved as f64, "count");
}

/// One `sim:<seed>` run of the whole deployment on the traced stream. Its
/// counts repeat exactly for a seed.
#[allow(clippy::too_many_arguments)]
fn sim_run(
    workload: &Workload,
    inputs: &Inputs,
    stream: &[&StreamRecord],
    table: &RoutingTable,
    reference: &Reference,
    seed: u64,
    dispatchers: usize,
    metrics: &mut Metrics,
) -> PairCheck {
    let records = inputs.warmup.iter().chain(stream.iter().copied());
    let (report, mut pairs) =
        pipeline::sim_run(workload, table, inputs, records, seed, dispatchers);
    let (check, _) = compare(&reference.pairs, &mut pairs);
    metrics.push(
        "sim.matches_delivered",
        report.matches_delivered as f64,
        "count",
    );
    metrics.push(
        "sim.duplicates_removed",
        report.duplicates_removed as f64,
        "count",
    );
    metrics.push(
        "sim.discarded_objects",
        report.discarded_objects as f64,
        "count",
    );
    metrics.push("sim.tuple_balance", report.balance_factor(), "ratio");
    metrics.push(
        "sim.migration_moves",
        report.migration_moves as f64,
        "count",
    );
    metrics.push("sim.match_error_share", check.error_share(), "share");
    check
}
