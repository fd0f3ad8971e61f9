//! `loadgen` — deterministic load generator for `stpd`.
//!
//! ```text
//! Usage: loadgen --addr <host:port> [options]
//!
//! Options:
//!   --addr <host:port>      the running stpd to drive (required)
//!   --connections <list>    comma-separated row sizes, e.g. 1,4,16
//!                           (default 1,4,16); each entry is one
//!                           measurement row
//!   --requests <n>          work requests per connection (default 60)
//!   --rate <rps>            open-loop send rate per connection,
//!                           requests/second (default 200)
//!   --seed <n>              LCG seed for the request mix (default 42)
//!   --arity <n>             truth-table arity, 2..=8 (default 3)
//!   --classes <n>           distinct tables in the pool (default 24)
//!   --timeout-ms <ms>       per-request deadline sent to the server
//!                           (default 30000)
//!   --malformed <n>         malformed-frame probes per row (default 6)
//!   --oversized <n>         oversized-frame probes per row (default 3)
//!   --oversized-bytes <n>   junk bytes per oversized probe (default 8192)
//!   --out <path>            write the JSON doc there instead of stdout
//! ```
//!
//! Emits one `stp-bench-serve v1` JSON document: one row per
//! connection count (sent/ok/timeout/overloaded/lost splits, latency
//! percentiles, throughput) plus the server's own counters from a
//! final `stats` request. With a fixed seed the request mix — and
//! therefore every admission/store counter on a 1-CPU, capacity-bound
//! server — is reproducible; `BENCH_serve.json` pins those fields.

use std::process::ExitCode;
use std::time::Duration;

use stp_serve::loadgen::{request_once, run, LoadgenConfig, RunStats};
use stp_telemetry::cli::{flag_error, parse_flag_value};
use stp_telemetry::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen --addr <host:port> [--connections <list>] [--requests <n>] \
         [--rate <rps>] [--seed <n>] [--arity <n>] [--classes <n>] [--timeout-ms <ms>] \
         [--malformed <n>] [--oversized <n>] [--oversized-bytes <n>] [--out <path>]"
    );
    ExitCode::FAILURE
}

/// One measurement row as a JSON object.
fn row_json(connections: usize, stats: &RunStats) -> Json {
    Json::obj(vec![
        ("connections", Json::UInt(connections as u64)),
        ("sent", Json::UInt(stats.sent)),
        ("ok", Json::UInt(stats.ok)),
        ("timeout", Json::UInt(stats.timeout)),
        ("overloaded", Json::UInt(stats.overloaded)),
        ("error", Json::UInt(stats.error)),
        ("lost", Json::UInt(stats.lost)),
        ("coalesced", Json::UInt(stats.coalesced)),
        ("malformed_sent", Json::UInt(stats.malformed_sent)),
        ("malformed_acked", Json::UInt(stats.malformed_acked)),
        ("oversized_sent", Json::UInt(stats.oversized_sent)),
        ("oversized_acked", Json::UInt(stats.oversized_acked)),
        ("wall_s", Json::Num(stats.wall_s)),
        ("throughput_rps", Json::Num(stats.throughput_rps())),
        ("p50_ms", Json::Num(stats.percentile_ms(50.0))),
        ("p99_ms", Json::Num(stats.percentile_ms(99.0))),
    ])
}

fn main() -> ExitCode {
    stp_telemetry::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut base = LoadgenConfig::default();
    let mut connections_list: Vec<usize> = vec![1, 4, 16];
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error("--addr expects <host:port>".to_string());
                };
                base.addr = value.clone();
                i += 1;
            }
            "--connections" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error(
                        "--connections expects a comma-separated list, e.g. 1,4,16".to_string(),
                    );
                };
                let mut list = Vec::new();
                for part in value.split(',') {
                    match part.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => list.push(n),
                        _ => {
                            flag_error(format!(
                                "--connections expects positive integers, got `{part}` in `{value}`"
                            ));
                        }
                    }
                }
                if list.is_empty() {
                    flag_error("--connections expects at least one entry".to_string());
                }
                connections_list = list;
                i += 1;
            }
            "--requests" => {
                base.requests_per_conn =
                    parse_flag_value("--requests", args.get(i + 1), "a request count");
                if base.requests_per_conn == 0 {
                    flag_error("--requests expects a count >= 1, got `0`".into());
                }
                i += 1;
            }
            "--rate" => {
                base.rate_per_conn = parse_flag_value("--rate", args.get(i + 1), "requests/second");
                if !(base.rate_per_conn.is_finite() && base.rate_per_conn > 0.0) {
                    flag_error(format!(
                        "--rate expects a finite rate > 0, got `{}`",
                        base.rate_per_conn
                    ));
                }
                i += 1;
            }
            "--seed" => {
                base.seed = parse_flag_value("--seed", args.get(i + 1), "an integer seed");
                i += 1;
            }
            "--arity" => {
                base.arity = parse_flag_value("--arity", args.get(i + 1), "an arity (2..=8)");
                if !(2..=8).contains(&base.arity) {
                    flag_error(format!("--arity expects an arity in 2..=8, got `{}`", base.arity));
                }
                i += 1;
            }
            "--classes" => {
                base.classes = parse_flag_value("--classes", args.get(i + 1), "a pool size");
                let universe = 1usize << (1usize << base.arity).min(20);
                if base.classes == 0 || base.classes > universe / 2 {
                    flag_error(format!(
                        "--classes expects 1..={} for arity {}, got `{}`",
                        universe / 2,
                        base.arity,
                        base.classes
                    ));
                }
                i += 1;
            }
            "--timeout-ms" => {
                base.timeout_ms = parse_flag_value("--timeout-ms", args.get(i + 1), "milliseconds");
                if base.timeout_ms == 0 {
                    flag_error("--timeout-ms expects milliseconds >= 1, got `0`".into());
                }
                i += 1;
            }
            "--malformed" => {
                base.malformed_probes =
                    parse_flag_value("--malformed", args.get(i + 1), "a probe count");
                i += 1;
            }
            "--oversized" => {
                base.oversized_probes =
                    parse_flag_value("--oversized", args.get(i + 1), "a probe count");
                i += 1;
            }
            "--oversized-bytes" => {
                base.oversized_bytes =
                    parse_flag_value("--oversized-bytes", args.get(i + 1), "a byte count");
                if base.oversized_bytes == 0 {
                    flag_error("--oversized-bytes expects a byte count >= 1, got `0`".into());
                }
                i += 1;
            }
            "--out" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error("--out expects a path".to_string());
                };
                out = Some(value.clone());
                i += 1;
            }
            "--help" | "-h" => return usage(),
            other => flag_error(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if base.addr.is_empty() {
        flag_error("--addr is required".to_string());
    }

    let mut rows = Vec::new();
    for &connections in &connections_list {
        let config = LoadgenConfig { connections, ..base.clone() };
        eprintln!(
            "loadgen: row connections={connections} requests={} rate={}/s",
            config.requests_per_conn, config.rate_per_conn
        );
        match run(&config) {
            Ok(stats) => rows.push(row_json(connections, &stats)),
            Err(e) => {
                eprintln!("loadgen: row connections={connections} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The server's own view, for the drift gate: admission and store
    // counters straight from a final stats request.
    let stats_resp = match request_once(
        &base.addr,
        "{\"op\":\"stats\",\"id\":\"loadgen\"}",
        Duration::from_secs(10),
    ) {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("loadgen: final stats request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server_counters = stats_resp.get("counters").cloned().unwrap_or(Json::Obj(Vec::new()));
    let hits = server_counters.get("store.hits").and_then(Json::as_u64).unwrap_or(0);
    let misses = server_counters.get("store.misses").and_then(Json::as_u64).unwrap_or(0);
    let hit_rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };

    let doc = Json::obj(vec![
        ("schema", Json::Str("stp-bench-serve v1".to_string())),
        ("seed", Json::UInt(base.seed)),
        ("arity", Json::UInt(base.arity as u64)),
        ("classes", Json::UInt(base.classes as u64)),
        ("requests_per_conn", Json::UInt(base.requests_per_conn as u64)),
        ("rate_per_conn", Json::Num(base.rate_per_conn)),
        ("timeout_ms", Json::UInt(base.timeout_ms)),
        ("rows", Json::Arr(rows)),
        ("server_counters", server_counters),
        (
            "store",
            Json::obj(vec![
                ("hits", Json::UInt(hits)),
                ("misses", Json::UInt(misses)),
                ("hit_rate", Json::Num(hit_rate)),
            ]),
        ),
    ]);
    let text = format!("{doc}\n");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("loadgen: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("loadgen: wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
