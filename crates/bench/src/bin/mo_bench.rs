//! Multi-output shared-synthesis baseline: emits `BENCH_mo.json`.
//!
//! Usage: `mo_bench [--timeout <seconds>] [--out <path>]`
//!
//! Runs the fixed [`MO_CASES`] slice (shared multi-output synthesis)
//! and the committed 2-output cut-cone rewrite case at `jobs = 1` and
//! `jobs = 4`, and records gate totals, shared-node savings and wall
//! clock. The deterministic fields must agree across jobs counts — the
//! multi-output merge is enumeration-order invariant — so the document
//! doubles as a regression baseline: the `mo_baseline` integration
//! test re-measures the slice and fails on any drift.
//!
//! [`MO_CASES`]: stp_bench::mo::MO_CASES

use std::time::Duration;

use stp_bench::mo::{measure_case, measure_rewrite, MO_CASES};
use stp_telemetry::cli::{flag_error, parse_flag_value};
use stp_telemetry::Json;

/// Rounds a wall-clock reading to milliseconds for the committed
/// document (the raw nanoseconds churn on every run).
fn wall_s(wall: Duration) -> Json {
    Json::Num((wall.as_secs_f64() * 1000.0).round() / 1000.0)
}

/// Runs every case and the rewrite workload once at `jobs`, rendering
/// one baseline entry.
fn measure(timeout: Duration, jobs: usize) -> Json {
    let mut cases = Vec::new();
    for case in MO_CASES {
        eprintln!("mo_bench: case {} at jobs={jobs}…", case.name);
        let m = measure_case(case, timeout, jobs);
        cases.push(Json::obj(vec![
            ("name", Json::Str(case.name.to_string())),
            ("num_vars", Json::UInt(case.num_vars as u64)),
            ("specs", Json::Arr(case.specs.iter().map(|s| Json::Str((*s).to_string())).collect())),
            ("shared_gates", Json::UInt(m.shared_gates as u64)),
            (
                "per_output_gates",
                Json::Arr(m.per_output_gates.iter().map(|g| Json::UInt(*g as u64)).collect()),
            ),
            ("gates_saved", Json::UInt(m.gates_saved as u64)),
            ("combinations_tried", Json::UInt(m.combinations_tried as u64)),
            ("wall_s", wall_s(m.wall)),
        ]));
    }
    eprintln!("mo_bench: rewrite case at jobs={jobs}…");
    let r = measure_rewrite(timeout, jobs);
    let rewrite = Json::obj(vec![
        ("name", Json::Str("unshared-full-adder".to_string())),
        ("gates_before", Json::UInt(r.gates_before as u64)),
        ("gates_single", Json::UInt(r.gates_single as u64)),
        ("gates_shared", Json::UInt(r.gates_shared as u64)),
        ("mo_replacements", Json::UInt(r.mo_replacements as u64)),
        ("wall_s", wall_s(r.wall)),
    ]);
    Json::obj(vec![
        ("jobs", Json::UInt(jobs as u64)),
        ("cases", Json::Arr(cases)),
        ("rewrite", rewrite),
    ])
}

fn main() {
    stp_telemetry::init_from_env();
    // A malformed STP_JOBS is a usage error, diagnosed up front; the
    // baseline itself always measures the fixed jobs=1 / jobs=4 pair.
    if let Err(message) = stp_synth::jobs_from_env_checked() {
        flag_error(message);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut timeout = 60.0f64;
    let mut out: Option<String> = None;
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
            other => {
                flag_error(format!("unknown option `{other}`"));
            }
        }
    }
    let timeout = Duration::from_secs_f64(timeout);
    let runs: Vec<Json> = [1usize, 4].iter().map(|&jobs| measure(timeout, jobs)).collect();
    let doc = Json::obj(vec![
        ("schema", Json::Str("stp-bench-mo v1".to_string())),
        ("timeout_s", Json::Num(timeout.as_secs_f64())),
        ("runs", Json::Arr(runs)),
    ]);
    let text = format!("{doc}\n");
    match out {
        Some(path) => {
            std::fs::write(&path, &text).unwrap_or_else(|e| {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("mo_bench: wrote {path}");
        }
        None => print!("{text}"),
    }
}
