//! Suite-scheduler baseline: emits `BENCH_suite.json`.
//!
//! Usage: `suite_bench [--timeout <seconds>] [--out <path>] [--slice]`
//!
//! Measures the two-level batch scheduler over the NPN4 workloads and
//! documents two facts at once:
//!
//! * **Determinism** — the deterministic NPN4 24-class slice runs at
//!   `jobs = 1` and `jobs = 4`, recording the
//!   [`SUITE_PINNED_COUNTERS`] totals for both. The static budget
//!   split keeps every instance at one shape worker for any
//!   `jobs ≤` suite size, so the two runs must agree exactly; the
//!   committed document doubles as a regression baseline (the
//!   `suite_baseline` integration test re-runs the slice and fails on
//!   any drift, at either jobs count).
//! * **Wall-clock** — the full 222-class NPN4 suite runs at `jobs = 1`
//!   and `jobs = 4` (skipped under `--slice`), recording wall times.
//!   These fields are informational: on a single-CPU host the instance
//!   pool degrades to the sequential loop and no speedup is expected —
//!   the pinned counters above are the machine-independent contract.
//!
//! [`SUITE_PINNED_COUNTERS`]: stp_bench::profdiff::SUITE_PINNED_COUNTERS

use std::time::{Duration, Instant};

use stp_bench::cli::{flag_error, parse_flag_value};
use stp_bench::profdiff::SUITE_PINNED_COUNTERS;
use stp_bench::{npn4, run_suite, Algorithm, Suite};
use stp_telemetry::Json;

/// The NPN4 prefix pinned by the drift gate — the same slice as the
/// `determinism` and `suite_baseline` integration tests.
fn npn4_slice() -> Suite {
    let mut suite = npn4();
    suite.functions.truncate(24);
    Suite { name: "NPN4[0..24]", functions: suite.functions }
}

/// Runs `suite` once at `jobs` and renders one baseline entry. Pinned
/// counters are recorded only for `pin_counters` runs (the slice); the
/// full-suite entries carry wall-clock numbers alone.
fn measure(suite: &Suite, timeout: Duration, jobs: usize, pin_counters: bool) -> Json {
    let start = Instant::now();
    let report = run_suite(Algorithm::Stp, suite, timeout, jobs);
    let wall = start.elapsed();
    let mut fields = vec![
        ("suite", Json::Str(suite.name.to_string())),
        ("jobs", Json::UInt(jobs as u64)),
        ("instances", Json::UInt(suite.functions.len() as u64)),
        ("solved", Json::UInt(report.solved as u64)),
        ("timeouts", Json::UInt(report.timeouts as u64)),
        ("errors", Json::UInt(report.errors as u64)),
        ("wall_s", Json::Num((wall.as_secs_f64() * 1000.0).round() / 1000.0)),
    ];
    if pin_counters {
        let counters: Vec<(String, Json)> = SUITE_PINNED_COUNTERS
            .iter()
            .map(|name| (name.to_string(), Json::UInt(*report.counters.get(*name).unwrap_or(&0))))
            .collect();
        fields.push(("counters", Json::Obj(counters)));
    }
    Json::obj(fields)
}

fn main() {
    stp_telemetry::init_from_env();
    // A malformed STP_JOBS is a usage error, diagnosed up front. The
    // value itself is unused — the baseline always measures the fixed
    // jobs=1 / jobs=4 pair — but this bin keeps the workspace-wide
    // strictness contract.
    if let Err(message) = stp_synth::jobs_from_env_checked() {
        flag_error(message);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut timeout = 60.0f64;
    let mut out: Option<String> = None;
    let mut slice_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeout" => {
                timeout = parse_flag_value(a, it.next(), "a number of seconds");
            }
            "--out" => {
                let Some(v) = it.next() else {
                    flag_error("--out expects a path".to_string());
                };
                out = Some(v.clone());
            }
            "--slice" => slice_only = true,
            other => {
                flag_error(format!("unknown option `{other}`"));
            }
        }
    }
    let timeout = Duration::from_secs_f64(timeout);
    let slice = npn4_slice();
    let mut slice_runs = Vec::new();
    for jobs in [1usize, 4] {
        eprintln!("suite_bench: running {} at jobs={jobs}…", slice.name);
        slice_runs.push(measure(&slice, timeout, jobs, true));
    }
    let mut fields = vec![
        ("schema", Json::Str("stp-bench-suite v1".to_string())),
        ("timeout_s", Json::Num(timeout.as_secs_f64())),
        ("slice", Json::Arr(slice_runs)),
    ];
    if !slice_only {
        let full = npn4();
        let mut full_runs = Vec::new();
        for jobs in [1usize, 4] {
            eprintln!("suite_bench: running {} at jobs={jobs}…", full.name);
            full_runs.push(measure(&full, timeout, jobs, false));
        }
        fields.push(("full", Json::Arr(full_runs)));
    }
    let doc = Json::obj(fields);
    let text = format!("{doc}\n");
    match out {
        Some(path) => {
            std::fs::write(&path, &text).unwrap_or_else(|e| {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("suite_bench: wrote {path}");
        }
        None => print!("{text}"),
    }
}
