//! Factorization-kernel perf baseline: emits `BENCH_factor.json`.
//!
//! Usage: `factor_bench [--jobs <n>] [--timeout <seconds>] [--out <path>]
//!                      [--slice] [--profile] [--profile-folded <path>]`
//!
//! Runs the STP engine **cold** (store-free, straight [`synthesize`]
//! per instance) over four workloads — the deterministic NPN4 24-class
//! slice used by the CI drift gate, the full 222-class NPN4 suite, the
//! quick-profile FDSD6 suite, and the 9–12-input WIDE suite that pins
//! the split kernel's four-word instance (the NPN4 and FDSD6 suites run
//! its one-word instance) — and reports per-suite wall-clock
//! plus the `factor.*` counter deltas. The counter totals at `--jobs 1`
//! are exact and machine-independent, so the committed
//! `BENCH_factor.json` doubles as a regression baseline: the
//! `factor_baseline` integration test re-runs the slice and fails when
//! the counters drift (wall-clock fields are informational only), and
//! `stpprof --drift` renders the same verdict from two documents.
//!
//! `--slice` restricts the run to the NPN4 slice — the fast way to
//! produce a drift-check candidate in CI. `--profile` aggregates the
//! span profile tree over the whole run and embeds it in the output
//! document (each suite is a subtree, named by the suite);
//! `--profile-folded <path>` additionally writes flamegraph-compatible
//! folded stacks.
//!
//! [`synthesize`]: stp_synth::synthesize

use std::time::{Duration, Instant};

use stp_bench::profdiff::PINNED_COUNTERS;
use stp_bench::{fdsd, npn4, run_suite, wide, Algorithm, Suite};
use stp_telemetry::cli::{flag_error, parse_flag_value};
use stp_telemetry::Json;

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

/// The NPN4 prefix used by the CI drift gate — the same slice as the
/// `determinism` integration test, fast enough for debug-build CI.
fn npn4_slice() -> Suite {
    let mut suite = npn4();
    suite.functions.truncate(24);
    Suite { name: "NPN4[0..24]", functions: suite.functions }
}

fn measure(suite: &Suite, timeout: Duration, jobs: usize) -> Json {
    let start = Instant::now();
    let report = run_suite(Algorithm::Stp, suite, timeout, jobs);
    let wall = start.elapsed();
    let mut counters: Vec<(String, Json)> = Vec::new();
    for name in PINNED_COUNTERS {
        counters.push((name.to_string(), Json::UInt(*report.counters.get(name).unwrap_or(&0))));
    }
    Json::obj(vec![
        ("suite", Json::Str(suite.name.to_string())),
        ("instances", Json::UInt(suite.functions.len() as u64)),
        ("solved", Json::UInt(report.solved as u64)),
        ("timeouts", Json::UInt(report.timeouts as u64)),
        ("errors", Json::UInt(report.errors as u64)),
        ("wall_s", Json::Num((wall.as_secs_f64() * 1000.0).round() / 1000.0)),
        ("counters", Json::Obj(counters)),
    ])
}

fn main() {
    stp_telemetry::init_from_env();
    // A malformed STP_JOBS is a usage error, diagnosed up front — not a
    // silent fall-back to sequential.
    let env_jobs = stp_synth::jobs_from_env_checked().unwrap_or_else(|e| flag_error(e));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = env_jobs;
    let mut timeout = 60.0f64;
    let mut out: Option<String> = None;
    let mut slice_only = false;
    let mut profile = false;
    let mut folded: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = parse_flag_value(a, it.next(), "a thread count (0 = one per CPU)");
            }
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
            "--profile" => profile = true,
            "--profile-folded" => {
                let Some(v) = it.next() else {
                    flag_error("--profile-folded expects a path".to_string());
                };
                folded = Some(v.clone());
            }
            other => {
                flag_error(format!("unknown option `{other}`"));
            }
        }
    }
    if profile || folded.is_some() {
        stp_telemetry::profile::set_enabled(true);
    }
    let timeout = Duration::from_secs_f64(timeout);
    let all = if slice_only {
        vec![npn4_slice()]
    } else {
        vec![npn4_slice(), npn4(), fdsd(6, 40, 6), wide()]
    };
    let mut suites = Vec::new();
    for suite in all {
        eprintln!("factor_bench: running {} ({} instances)…", suite.name, suite.functions.len());
        suites.push(measure(&suite, timeout, jobs));
    }
    let mut fields = vec![
        ("schema", Json::Str("stp-bench-factor v1".to_string())),
        ("jobs", Json::UInt(jobs as u64)),
        ("timeout_s", Json::Num(timeout.as_secs_f64())),
        ("suites", Json::Arr(suites)),
    ];
    if let Some(tree) = stp_telemetry::profile::finish(folded.as_deref().map(std::path::Path::new))
    {
        fields.push(("profile", tree.to_json()));
    }
    let doc = Json::obj(fields);
    let text = format!("{doc}\n");
    match out {
        Some(path) => {
            std::fs::write(&path, &text).unwrap_or_else(|e| {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("factor_bench: wrote {path}");
        }
        None => print!("{text}"),
    }
}
