//! Command-line entry point of the benchmark. The last line of standard
//! output is the JSON result.

use ps2bench::pipeline::{self, Instance};
use ps2bench::reference::{self, PairCheck, Timeline};
use ps2bench::report::{self, median, percentile, Metrics};
use ps2bench::trace;
use ps2bench::workloads::{self, Size, DISPATCHERS, GRID_EXP};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directory, relative to the working directory, for spans and scratch
/// stores.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    dispatchers: usize,
}

fn usage() -> &'static str {
    "usage: ps2bench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
     [--size full|tiny] [--dispatchers <n>]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::Full,
        dispatchers: DISPATCHERS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--dispatchers" => args.dispatchers = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || args.seconds <= 0.0 || args.dispatchers == 0 {
        return Err(usage().to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {}; known: {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(error) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {OUT_DIR}: {error}");
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} seconds {} trace {} dispatchers {} size {:?}",
        workload.name, args.seed, args.seconds, args.trace as u8, args.dispatchers, args.size
    );
    println!("host {}", report::host_fingerprint(Path::new(".")));
    let generated = std::time::Instant::now();
    let inputs = workload.generate(
        args.seed,
        workloads::instance_seconds(args.seconds, workload.instances),
        args.size,
    );
    println!(
        "inputs warmup {} open {} at {}/s closed {} (generated in {:.2} s)",
        inputs.warmup.len(),
        inputs.open.len(),
        inputs.open_rate,
        inputs.closed.len(),
        generated.elapsed().as_secs_f64()
    );
    let line = if args.trace {
        traced(&workload, &inputs, &args, &out_dir)
    } else {
        timed(&workload, &inputs, &args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn print_metrics(metrics: &Metrics) {
    for m in &metrics.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
}

/// The timed runs: end-to-end metrics with tracing off.
fn timed(workload: &workloads::Workload, inputs: &workloads::Inputs, args: &Args) -> String {
    let mut instances: Vec<Instance> = (0..workload.instances)
        .map(|k| {
            let instance = pipeline::run_instance(workload, inputs, args.dispatchers);
            println!(
                "instance {k}: setup_s {:.4} setup_rss_mb {:.2} drain_rps {:.0} p50_ms {:.4} \
                 p99_ms {:.4} matches {} migration_moves {}",
                instance.setup_s,
                instance.setup_rss_mb,
                instance.drain_rps,
                percentile(&instance.latencies_ms, 0.5),
                percentile(&instance.latencies_ms, 0.99),
                instance.report.matches_delivered,
                instance.report.migration_moves,
            );
            instance
        })
        .collect();
    // the reference is built after the timed instances, so the first
    // instance's memory growth is not absorbed by pages it freed
    let checked = std::time::Instant::now();
    let sample = &inputs.sample;
    let reference = reference::replay(
        sample.bounds(),
        GRID_EXP,
        sample.object_stats(),
        inputs.all_records(),
        inputs.warmup.len(),
    );
    let timeline = Timeline::new(inputs.all_records());
    for (k, instance) in instances.iter_mut().enumerate() {
        instance.check_against(&reference, &timeline);
        println!(
            "instance {k}: missed {} spurious {} duplicates {} invented {} largest reorder gap {}",
            instance.check.missed,
            instance.check.spurious,
            instance.check.duplicates,
            instance.invented,
            instance.reorder_gaps.iter().max().copied().unwrap_or(0)
        );
    }
    // the failure count comes from one deterministic run of the same
    // deployment on the same records: under `threads` the interleaving of
    // the dispatchers, and with it the set of wrong pairs, changes from run
    // to run (`match_error_share` below reports it)
    let (sim_report, mut sim_pairs) = pipeline::sim_run(
        workload,
        &instances[0].table,
        inputs,
        inputs.all_records(),
        args.seed,
        args.dispatchers,
    );
    let (sim_check, sim_wrong) = reference::compare(&reference.pairs, &mut sim_pairs);
    let (sim_gaps, sim_invented) = sim_wrong.reorder_gaps(&timeline);
    println!(
        "sim:{} pairs reference {} delivered {} missed {} spurious {} duplicates {} invented {} \
         largest reorder gap {} migration_moves {}",
        args.seed,
        sim_check.reference,
        sim_check.delivered,
        sim_check.missed,
        sim_check.spurious,
        sim_check.duplicates,
        sim_invented,
        sim_gaps.iter().max().copied().unwrap_or(0),
        sim_report.migration_moves
    );
    println!(
        "reference and pair checks took {:.2} s",
        checked.elapsed().as_secs_f64()
    );
    let pick = |f: fn(&Instance) -> f64| -> Vec<f64> { instances.iter().map(f).collect() };
    let latencies: Vec<f64> = instances
        .iter()
        .flat_map(|i| i.latencies_ms.iter().copied())
        .collect();
    let lateness: Vec<f64> = instances
        .iter()
        .flat_map(|i| i.lateness_ms.iter().copied())
        .collect();
    let mut check = PairCheck::default();
    for i in &instances {
        check.add(&i.check);
    }
    let invented: u64 = instances.iter().map(|i| i.invented).sum();

    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&pick(|i| i.setup_s)), "s");
    metrics.push("setup_rss_mb", instances[0].setup_rss_mb, "MB");
    metrics.push("drain_rps", median(&pick(|i| i.drain_rps)), "1/s");
    metrics.push(
        "delivery_p50_ms",
        median(&pick(|i| percentile(&i.latencies_ms, 0.50))),
        "ms",
    );

    // printed, not gated: too unsteady on a small shared host (README)
    let mut extra = Metrics::default();
    extra.push(
        "delivery_p99_ms",
        median(&pick(|i| percentile(&i.latencies_ms, 0.99))),
        "ms",
    );
    extra.push("latency_samples", latencies.len() as f64, "count");
    extra.push("match_error_share", check.error_share(), "share");
    extra.push("sim_match_error_share", sim_check.error_share(), "share");
    extra.push("generator_late_p50_ms", percentile(&lateness, 0.50), "ms");
    extra.push("generator_late_p99_ms", percentile(&lateness, 0.99), "ms");
    extra.push(
        "generator_late_max_ms",
        lateness.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    print_metrics(&metrics);
    print_metrics(&extra);
    println!(
        "threads pairs reference {} delivered {} missed {} spurious {} duplicates {} invented {}",
        check.reference, check.delivered, check.missed, check.spurious, check.duplicates, invented
    );
    let correct = invented == 0
        && check.duplicates == 0
        && sim_invented == 0
        && sim_check.duplicates == 0
        && !latencies.is_empty()
        && metrics
            .0
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0);
    report::result_line(
        correct,
        sim_check.reference.max(1),
        sim_check.errors(),
        &metrics,
    )
}

/// The traced pass: per-layer metrics.
fn traced(
    workload: &workloads::Workload,
    inputs: &workloads::Inputs,
    args: &Args,
    out_dir: &Path,
) -> String {
    let (metrics, replay_check, sim_check, spans) =
        trace::run(workload, inputs, args.seed, args.dispatchers, out_dir);
    let path = out_dir.join(format!("spans-{}.jsonl", workload.name));
    if let Err(error) = spans.write(&path) {
        eprintln!("cannot write {}: {error}", path.display());
    }
    print_metrics(&metrics);
    println!(
        "replay pairs reference {} missed {} spurious {}; sim missed {} spurious {}; spans {}",
        replay_check.reference,
        replay_check.missed,
        replay_check.spurious,
        sim_check.missed,
        sim_check.spurious,
        path.display()
    );
    let correct = replay_check.errors() == 0;
    report::result_line(
        correct,
        sim_check.reference.max(1),
        sim_check.errors(),
        &metrics,
    )
}
