//! The named workloads and the inputs each one generates from its seed.
//!
//! Every record the system receives is generated here, up front, before any
//! timer starts. The same `(workload, seed, seconds, size)` always yields the
//! same records.

use ps2stream::prelude::*;
use ps2stream_partition::CostConstants;
use ps2stream_stream::RuntimeBackend;
use std::path::PathBuf;

/// The system's default deployment, spelled out field by field so that no
/// `PS2_*` environment variable can change a workload.
pub const DISPATCHERS: usize = 4;
/// Worker executors of the default deployment.
pub const WORKERS: usize = 8;
/// Merger executors of the default deployment.
pub const MERGERS: usize = 2;
/// Records per hot-path batch in the default deployment.
pub const BATCH_SIZE: usize = 16;
/// GI² / routing grid granularity exponent of the default deployment.
pub const GRID_EXP: u32 = 6;
/// Ops between snapshots of the durable store (its default).
pub const SNAPSHOT_EVERY_OPS: u64 = 4096;
/// Fsync interval of the durable store's op log (its default `every:64`).
pub const FSYNC_EVERY: u64 = 64;
/// Poll interval of the adjustment controller under a scenario, as fig07
/// `--scenario` uses it.
pub const ADJUST_POLL_MS: u64 = 50;

/// Which synthetic corpus a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The TWEETS-US substitute.
    Us,
    /// The TWEETS-UK substitute.
    Uk,
}

impl Dataset {
    fn spec(self, tiny: bool) -> DatasetSpec {
        match (tiny, self) {
            (true, _) => DatasetSpec::tiny(),
            (false, Dataset::Us) => DatasetSpec::tweets_us(),
            (false, Dataset::Uk) => DatasetSpec::tweets_uk(),
        }
    }
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (mirrors `BENCHMARK.json`).
    pub why: &'static str,
    /// Corpus.
    pub dataset: Dataset,
    /// Query class.
    pub class: QueryClass,
    /// Seed of the dataset: the corpus map (its clusters), the calibration
    /// sample and the query population. Fixed per workload, like the
    /// paper's fixed tweet datasets; the run seed draws the stream from it.
    pub dataset_seed: u64,
    /// Live subscriptions µ (also the warm-up size).
    pub mu: usize,
    /// Objects per query update in the stream (5 is the paper mix).
    pub objects_per_update: u64,
    /// Adversarial scenario overlaid on the measured stream.
    pub scenario: Option<Scenario>,
    /// Whether the adjustment controller runs.
    pub adjustment: bool,
    /// Deployments set up and measured per timed run: the medians over
    /// them are reported. More for workloads whose setup is cheap.
    pub instances: usize,
    /// Offered rate of the open-loop phase, records per second.
    pub open_rate: f64,
    /// Records per second used to size the closed-loop stream (about the
    /// seed's drain rate, so a phase lasts about its share of `--seconds`).
    pub drain_sizing_rate: f64,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "q3-match",
            why: "TWEETS-UK Q3 paper mix, mu 40k: the GI2 index and merger do most of the work (about 33 matches per object)",
            dataset: Dataset::Uk,
            class: QueryClass::Q3,
            dataset_seed: 99,
            mu: 40_000,
            objects_per_update: 5,
            scenario: None,
            adjustment: false,
            instances: 3,
            open_rate: 12_000.0,
            drain_sizing_rate: 40_000.0,
        },
        Workload {
            name: "hotspot-adjust",
            why: "TWEETS-US Q1, mu 20k, moving hotspot with the adjustment controller on: the only workload that runs selection and cell migration",
            dataset: Dataset::Us,
            class: QueryClass::Q1,
            dataset_seed: 2017,
            mu: 20_000,
            objects_per_update: 5,
            scenario: Some(Scenario::Hotspot),
            adjustment: true,
            instances: 12,
            open_rate: 60_000.0,
            drain_sizing_rate: 480_000.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred subscriptions and a few thousand records: for the
    /// benchmark's own tests.
    Tiny,
}

/// Everything a run sends, generated from the seed before measuring.
pub struct Inputs {
    /// The partitioner's calibration sample.
    pub sample: WorkloadSample,
    /// The µ warm-up insertions.
    pub warmup: Vec<StreamRecord>,
    /// Records of the open-loop (fixed-rate) phase.
    pub open: Vec<StreamRecord>,
    /// Records of the closed-loop (as-fast-as-accepted) phase.
    pub closed: Vec<StreamRecord>,
    /// Offered rate of the open-loop phase, records per second.
    pub open_rate: f64,
    /// Id of the first object of the stream; object ids are dense from here.
    pub first_object_id: u64,
    /// Number of object ids the stream spans.
    pub object_id_span: usize,
}

impl Inputs {
    /// Every record in send order: warm-up, open loop, closed loop.
    pub fn all_records(&self) -> impl Iterator<Item = &StreamRecord> {
        self.warmup.iter().chain(&self.open).chain(&self.closed)
    }

    /// Records after the warm-up, in send order.
    pub fn stream_records(&self) -> impl Iterator<Item = &StreamRecord> {
        self.open.iter().chain(&self.closed)
    }

    /// Dense index of an object id within the stream, if it is one of the
    /// stream's objects.
    pub fn object_slot(&self, id: ObjectId) -> Option<usize> {
        let slot = id.value().checked_sub(self.first_object_id)? as usize;
        (slot < self.object_id_span).then_some(slot)
    }
}

/// Share of an instance's measured time given to the open loop; the closed
/// loop gets the rest. The open loop's p50 settles on fewer samples than
/// the closed loop's rate does.
pub const OPEN_SHARE: f64 = 1.0 / 3.0;

/// Measured seconds of one instance: its open plus its closed loop.
pub fn instance_seconds(seconds: f64, instances: usize) -> f64 {
    seconds / instances as f64
}

impl Workload {
    /// Generates the inputs of one run. `instance_s` is the measured time of
    /// one instance, split between its two phases by [`OPEN_SHARE`].
    pub fn generate(&self, seed: u64, instance_s: f64, size: Size) -> Inputs {
        let tiny = size == Size::Tiny;
        let spec = self.dataset.spec(tiny);
        let mu = if tiny { 300 } else { self.mu };
        let (open_len, closed_len, open_rate) = if tiny {
            (600, 600, 5_000.0)
        } else {
            (
                (self.open_rate * instance_s * OPEN_SHARE).round() as usize,
                (self.drain_sizing_rate * instance_s * (1.0 - OPEN_SHARE)).round() as usize,
                self.open_rate,
            )
        };
        let calibration_objects = (mu / 2).clamp(1_000, 40_000);
        let calibration_queries = (mu / 8).clamp(200, 10_000);
        // the dataset: corpus map, calibration sample and query population
        let bounds = spec.bounds;
        let mut corpus = CorpusGenerator::new(spec, self.dataset_seed);
        let corpus_sample = corpus.generate(calibration_objects);
        let config = QueryGeneratorConfig::new(self.class);
        let calibration = QueryGenerator::from_corpus(
            &corpus,
            &corpus_sample,
            config.clone(),
            self.dataset_seed.wrapping_add(1),
        )
        .generate(calibration_queries);
        let queries = QueryGenerator::from_corpus(
            &corpus,
            &corpus_sample,
            config,
            self.dataset_seed.wrapping_add(2),
        );
        let sample = WorkloadSample::from_objects_and_queries(bounds, corpus_sample, calibration);
        // the run seed draws the stream: where it starts in the corpus, the
        // query lifetimes and the scenario's moves
        for _ in 0..(seed % 1024) * 97 {
            corpus.next_object();
        }
        let config = DriverConfig {
            mu: mu as u64,
            sigma_fraction: 0.2,
            objects_per_update: self.objects_per_update,
        };
        let mut driver = WorkloadDriver::new(config, corpus, queries, seed);
        let warmup = driver.warm_up(mu);
        let stream: Vec<StreamRecord> = match self.scenario {
            Some(scenario) => ScenarioDriver::new(driver, scenario, seed.wrapping_add(31))
                .take(open_len + closed_len)
                .collect(),
            None => driver.take(open_len + closed_len).collect(),
        };
        let mut open = stream;
        let closed = open.split_off(open_len);
        let object_ids: Vec<u64> = open
            .iter()
            .chain(&closed)
            .filter_map(|r| match r {
                StreamRecord::Object(o) => Some(o.id.value()),
                StreamRecord::Update(_) => None,
            })
            .collect();
        let first_object_id = object_ids.first().copied().unwrap_or(0);
        let dense = object_ids
            .iter()
            .enumerate()
            .all(|(i, &id)| id == first_object_id + i as u64);
        assert!(dense, "stream object ids must be dense and increasing");
        Inputs {
            sample,
            warmup,
            open,
            closed,
            open_rate,
            first_object_id,
            object_id_span: object_ids.len(),
        }
    }

    /// The deployment every run of this workload uses: the system defaults
    /// written out, with this workload's controller setting. The durable
    /// store is off.
    pub fn system_config(&self, dispatchers: usize, runtime: RuntimeBackend) -> SystemConfig {
        SystemConfig {
            num_dispatchers: dispatchers,
            num_workers: WORKERS,
            num_mergers: MERGERS,
            input_capacity: 4096,
            merger_capacity: 4096,
            batch_size: BATCH_SIZE,
            grid_exp: GRID_EXP,
            costs: CostConstants::default(),
            adjustment: self.adjustment.then(|| AdjustmentConfig {
                poll_interval_ms: ADJUST_POLL_MS,
                ..AdjustmentConfig::default()
            }),
            runtime,
            pinning: false,
            numa_shards: None,
            durability: None,
            faults: None,
            overload: OverloadPolicy::Block,
        }
    }
}

/// The durable store's defaults, set explicitly (`PS2_FSYNC` is not read);
/// the traced pass measures the op log with them.
pub fn store_config(dir: PathBuf) -> StoreConfig {
    StoreConfig {
        dir,
        fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
        snapshot_every_ops: Some(SNAPSHOT_EVERY_OPS),
    }
}
