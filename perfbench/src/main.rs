//! The repository benchmark's workload runner.
//!
//! `stp-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints one JSON line: the
//! end-to-end metrics, the per-layer block when traced, the counter
//! fingerprint and every self-check problem. `run.py` builds this
//! binary, starts one fresh process per run and prints the final
//! result. `stp-perfbench expected [--cross-check]` regenerates
//! `expected/suite.tsv`.
//!
//! The benchmark drives the program only through public functions of
//! the workspace crates and times each layer from outside those calls;
//! see `METRICS.md` for the metrics and why each workload exists.

mod common;
mod layers;
mod oracle;
mod rewrite_fresh;
mod serve_mixed;
mod synth_cold;

use std::process::ExitCode;

use stp_telemetry::Json;

use common::{Outcome, Params};

const WORKLOADS: &[&str] = &["synth_cold", "rewrite_fresh", "serve_mixed"];

fn usage() -> String {
    "usage: stp-perfbench run --workload <synth_cold|rewrite_fresh|serve_mixed> --seed <n> \
     --seconds <s> --trace <0|1>\n       stp-perfbench expected [--jobs <n>] [--cross-check]"
        .to_string()
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    flag(args, name)
        .ok_or_else(|| format!("missing {name}\n{}", usage()))?
        .parse()
        .map_err(|_| format!("{name} expects a whole number"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn report(workload: &str, p: &Params, out: &Outcome) -> Json {
    let nums = |m: &mut dyn Iterator<Item = (String, f64)>| {
        Json::Obj(m.map(|(k, v)| (k, Json::Num(v))).collect())
    };
    Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::UInt(p.seed)),
        ("jobs", Json::UInt(p.jobs as u64)),
        ("correct", Json::Bool(out.problems.is_empty())),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("problems", Json::Arr(out.problems.iter().cloned().map(Json::Str).collect())),
        ("errors", Json::Arr(out.errors.iter().cloned().map(Json::Str).collect())),
        ("timed_wall_s", Json::Num(out.timed_wall.as_secs_f64())),
        ("timed_cpu_s", Json::Num(out.timed_cpu.as_secs_f64())),
        ("metrics", nums(&mut out.metrics.iter().map(|(k, v)| (k.to_string(), *v)))),
        ("layers", nums(&mut out.layers.iter().map(|(k, v)| (k.clone(), *v)))),
        (
            "fingerprint",
            Json::Obj(out.fingerprint.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))).collect()),
        ),
        ("pinned", Json::Arr(out.pinned.iter().map(|k| Json::Str(k.to_string())).collect())),
        ("notes", Json::Obj(out.notes.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())),
    ])
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or_else(usage)?;
    let p = Params {
        seed: number(args, "--seed")?,
        seconds: number(args, "--seconds")?.max(1),
        traced: match flag(args, "--trace") {
            Some("1") => true,
            Some("0") | None => false,
            Some(other) => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
        jobs: nproc(),
    };
    let out = match workload {
        "synth_cold" => synth_cold::run(&p)?,
        "rewrite_fresh" => rewrite_fresh::run(&p)?,
        "serve_mixed" => serve_mixed::run(&p)?,
        other => return Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    };
    println!("{}", report(workload, &p, &out));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("expected") => {
            let jobs = flag(&args, "--jobs").and_then(|j| j.parse().ok()).unwrap_or_else(nproc);
            synth_cold::write_expected(jobs, args.iter().any(|a| a == "--cross-check"))
        }
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
