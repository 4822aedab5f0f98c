//! The benchmark's self-test: tiny runs of every workload emit every
//! metric `BENCHMARK.json` names, with its unit, and the pair check is
//! exact where it must be and sensitive where it must be.

use ps2bench::reference::{compare, replay, Pair, Timeline};
use ps2bench::workloads::{self, Size, GRID_EXP};
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values of the objects in the `key` array of the manifest.
fn names_in(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &manifest[start..];
    let end = body.find(']').expect("array end");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|part| {
            let value = part.split('"').nth(1).expect("name value");
            value.to_string()
        })
        .collect()
}

/// Runs the benchmark binary in a scratch directory and returns its
/// standard output.
fn run(args: &[&str]) -> String {
    run_with_env(args, &[])
}

fn run_with_env(args: &[&str], env: &[(&str, &str)]) -> String {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_ps2bench"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

/// `(attempted, failed)` of a result line.
fn counts(line: &str) -> (u64, u64) {
    let field = |key: &str| -> u64 {
        let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        line[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|n| n.parse().ok())
            .expect("a whole number")
    };
    (field("attempted"), field("failed"))
}

fn assert_metrics(line: &str, names: &[String]) {
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    for name in names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let value = rest.split(',').next().expect("value");
        assert!(
            value.parse::<f64>().is_ok(),
            "{name} is not a number: {value}"
        );
        let unit = rest.split("\"unit\": \"").nth(1).expect("unit");
        assert!(!unit.starts_with('"'), "{name} has an empty unit");
    }
    let emitted = line.matches("\"value\": ").count();
    assert_eq!(emitted, names.len(), "unexpected extra metrics in {line}");
}

#[test]
fn workloads_match_the_manifest() {
    let manifest = manifest();
    let listed = names_in(&manifest, "workloads");
    let known: Vec<String> = workloads::all()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(listed, known);
    for w in workloads::all() {
        assert!(
            manifest.contains(&format!("\"why\": \"{}\"", w.why)),
            "the why of {} differs from BENCHMARK.json",
            w.name
        );
    }
}

#[test]
fn tiny_runs_emit_every_metric_with_a_unit() {
    let manifest = manifest();
    let end_to_end = names_in(&manifest, "end_to_end");
    let per_layer = names_in(&manifest, "per_layer");
    for w in workloads::all() {
        let base = [
            "--workload",
            w.name,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ];
        let timed = run(&[&base[..], &["--trace", "0"]].concat());
        assert_metrics(last_line(&timed), &end_to_end);
        assert!(timed.contains("match_error_share = "), "{timed}");
        let traced = run(&[&base[..], &["--trace", "1"]].concat());
        assert_metrics(last_line(&traced), &per_layer);
    }
}

#[test]
fn one_dispatcher_delivers_the_reference_exactly() {
    let out = run(&[
        "--workload",
        "q3-match",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--size",
        "tiny",
        "--trace",
        "0",
        "--dispatchers",
        "1",
    ]);
    let (attempted, failed) = counts(last_line(&out));
    assert!(attempted > 0, "no reference pairs");
    assert_eq!(failed, 0, "the sim run is not exact:\n{out}");
    assert!(out.contains("match_error_share = 0 share"), "{out}");
}

/// The system reads these variables when a configuration is left to its
/// defaults, and panics on the malformed values below. A run that succeeds
/// with them set read none of them.
#[test]
fn the_environment_cannot_change_a_workload() {
    let env = [
        ("PS2_RUNTIME", "not-a-backend"),
        ("PS2_FAULTS", "not-a-plan"),
        ("PS2_FSYNC", "not-a-policy"),
        ("PS2_PIN", "1"),
        ("PS2_SCALE", "0.001"),
    ];
    for trace in ["0", "1"] {
        let out = run_with_env(
            &[
                "--workload",
                "hotspot-adjust",
                "--seed",
                "2",
                "--seconds",
                "1",
                "--size",
                "tiny",
                "--trace",
                trace,
            ],
            &env,
        );
        assert!(last_line(&out).starts_with("{\"correct\": true,"), "{out}");
    }
}

#[test]
fn one_removed_and_one_added_pair_is_an_error() {
    let w = workloads::by_name("q3-match").expect("workload");
    let inputs = w.generate(9, 0.1, Size::Tiny);
    let sample = &inputs.sample;
    let reference = replay(
        sample.bounds(),
        GRID_EXP,
        sample.object_stats(),
        inputs.all_records(),
        inputs.warmup.len(),
    );
    assert!(reference.pairs.len() > 10);
    let mut exact: Vec<Pair> = reference.pairs.clone();
    let (check, _) = compare(&reference.pairs, &mut exact);
    assert_eq!(check.error_share(), 0.0);

    let mut swapped: Vec<Pair> = reference.pairs.clone();
    swapped.remove(swapped.len() / 2);
    swapped.push((u64::MAX, u64::MAX));
    assert_eq!(swapped.len(), reference.pairs.len());
    let (check, wrong) = compare(&reference.pairs, &mut swapped);
    assert_eq!((check.missed, check.spurious), (1, 1));
    assert!(check.error_share() > 0.0);
    // the removed pair was a live match, so moving its object out of the
    // query's lifetime explains it; the added pair names no known query
    let (gaps, unexplained) = wrong.reorder_gaps(&Timeline::new(inputs.all_records()));
    assert_eq!((gaps.len(), unexplained), (1, 1));
    assert!(gaps[0] > 0);
}

/// `failed` comes from the deterministic `sim` run, so two processes given
/// the same seed report the same counts; `hotspot-adjust` migrates cells.
#[test]
fn the_failure_count_repeats_for_a_seed() {
    let args = [
        "--workload",
        "hotspot-adjust",
        "--seed",
        "4",
        "--seconds",
        "1",
        "--size",
        "tiny",
        "--trace",
        "0",
    ];
    let first = counts(last_line(&run(&args)));
    let second = counts(last_line(&run(&args)));
    assert!(first.0 > 0);
    assert_eq!(first, second);
}
