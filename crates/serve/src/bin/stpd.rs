//! `stpd` — the crash-safe synthesis daemon.
//!
//! ```text
//! Usage: stpd [options]
//!
//! Options:
//!   --addr <host:port>        bind address (default 127.0.0.1:0; port 0
//!                             picks an ephemeral port, printed on stdout)
//!   --store <path>            persistent store snapshot; opened with its
//!                             crash journal and saved on graceful shutdown
//!   --capacity <n>            max concurrently admitted work requests
//!                             (default 4); excess gets `overloaded`
//!   --jobs <n>                worker threads per synthesis call
//!                             (default from STP_JOBS, else 1; 0 = one
//!                             per CPU)
//!   --max-gates <n>           gate-count ceiling per request (default 20)
//!   --timeout-ms <ms>         default per-request deadline (default 10000)
//!   --drain-timeout-ms <ms>   shutdown drain window (default 5000)
//!   --idle-timeout-ms <ms>    close byte-free connections after (default
//!                             60000)
//!   --frame-timeout-ms <ms>   slow-loris guard: max wall time per frame
//!                             (default 10000)
//!   --max-frame-bytes <n>     per-frame byte cap (default 1048576)
//!   --retry-after-ms <ms>     hint sent with `overloaded` (default 100)
//!   --port-file <path>        also write the bound address to <path>
//!   --log <level>             off|error|warn|info|debug|trace
//! ```
//!
//! The daemon speaks line-delimited JSON; see the `stp_serve::protocol`
//! docs for the wire format. Shutdown is a protocol request (`{"op":
//! "shutdown"}`): the daemon stops accepting, drains in-flight work
//! under the drain window, and saves the store atomically. Exit code 0
//! means a graceful drain; 1 a runtime failure; 2 a usage error.

use std::process::ExitCode;
use std::time::Duration;

use stp_serve::server::{ServeConfig, Server};
use stp_telemetry::cli::{flag_error, parse_flag_value};

fn usage() -> ExitCode {
    eprintln!(
        "usage: stpd [--addr <host:port>] [--store <path>] [--capacity <n>] [--jobs <n>] \
         [--max-gates <n>] [--timeout-ms <ms>] [--drain-timeout-ms <ms>] \
         [--idle-timeout-ms <ms>] [--frame-timeout-ms <ms>] [--max-frame-bytes <n>] \
         [--retry-after-ms <ms>] [--port-file <path>] [--log <level>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    stp_telemetry::init_from_env();
    // A malformed STP_JOBS is a usage error, diagnosed before any other
    // argument handling — not a silent fall-back to sequential.
    let env_jobs = stp_synth::jobs_from_env_checked().unwrap_or_else(|e| flag_error(e));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig { jobs: env_jobs, ..ServeConfig::default() };
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error("--addr expects <host:port>".to_string());
                };
                addr = value.clone();
                i += 1;
            }
            "--store" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error("--store expects a path".to_string());
                };
                config.store_path = Some(value.into());
                i += 1;
            }
            "--port-file" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error("--port-file expects a path".to_string());
                };
                port_file = Some(value.clone());
                i += 1;
            }
            "--capacity" => {
                config.capacity = parse_flag_value("--capacity", args.get(i + 1), "a slot count");
                if config.capacity == 0 {
                    flag_error("--capacity expects a slot count >= 1, got `0`".into());
                }
                i += 1;
            }
            "--jobs" => {
                config.jobs =
                    parse_flag_value("--jobs", args.get(i + 1), "a thread count (0 = one per CPU)");
                i += 1;
            }
            "--max-gates" => {
                config.max_gates = parse_flag_value("--max-gates", args.get(i + 1), "a gate count");
                if config.max_gates == 0 {
                    flag_error("--max-gates expects a gate count >= 1, got `0`".into());
                }
                i += 1;
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes =
                    parse_flag_value("--max-frame-bytes", args.get(i + 1), "a byte count");
                if config.max_frame_bytes == 0 {
                    flag_error("--max-frame-bytes expects a byte count >= 1, got `0`".into());
                }
                i += 1;
            }
            "--retry-after-ms" => {
                config.retry_after_ms =
                    parse_flag_value("--retry-after-ms", args.get(i + 1), "milliseconds");
                i += 1;
            }
            flag @ ("--timeout-ms" | "--drain-timeout-ms" | "--idle-timeout-ms"
            | "--frame-timeout-ms") => {
                let ms: u64 = parse_flag_value(flag, args.get(i + 1), "milliseconds");
                if ms == 0 {
                    flag_error(format!("{flag} expects milliseconds >= 1, got `0`"));
                }
                let value = Duration::from_millis(ms);
                match flag {
                    "--timeout-ms" => config.default_timeout = value,
                    "--drain-timeout-ms" => config.drain_timeout = value,
                    "--idle-timeout-ms" => config.idle_timeout = value,
                    "--frame-timeout-ms" => config.frame_timeout = value,
                    _ => unreachable!("matched above"),
                }
                i += 1;
            }
            "--log" => {
                let Some(value) = args.get(i + 1) else {
                    flag_error("--log expects a level".to_string());
                };
                match stp_telemetry::log::Level::parse(value) {
                    Some(level) => stp_telemetry::set_level(level),
                    None => {
                        flag_error(format!(
                            "--log expects off|error|warn|info|debug|trace, got `{value}`"
                        ));
                    }
                }
                i += 1;
            }
            "--help" | "-h" => return usage(),
            other => flag_error(format!("unknown option `{other}`")),
        }
        i += 1;
    }

    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("stpd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stpd: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tests and scripts parse this exact line to find the ephemeral
    // port; keep it first and flushed.
    println!("stpd listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, bound.to_string()) {
            eprintln!("stpd: cannot write --port-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(summary) => {
            if summary.drained_clean {
                stp_telemetry::info!("stpd: drained clean");
            } else {
                stp_telemetry::warn!("stpd: drain deadline expired; in-flight work was aborted");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stpd: {e}");
            ExitCode::FAILURE
        }
    }
}
