//! Prints the fence families of Fig. 2 and the valid partial DAGs of
//! Fig. 3.
//!
//! Usage: `fence_census [--max-k <k>] [--dags] [--log <level>]
//!                      [--profile] [--profile-folded <path>]`
//!
//! Output goes through the telemetry reporter: the census itself is
//! emitted at `info` (the default level, so output is unchanged unless
//! the level is lowered), and `--log off` silences it entirely.
//! `--profile` prints the aggregated span profile (per fence size `k`)
//! to stderr after the census; `--profile-folded <path>` writes
//! flamegraph-compatible folded stacks.

use stp_bench::cli::flag_error;
use stp_fence::{all_fences, dags_for_fence, pruned_fences};
use stp_telemetry::report;

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn main() {
    stp_telemetry::init_from_env();
    // fence_census itself is single-threaded, but a malformed STP_JOBS
    // is still a usage error: every bin in the workspace diagnoses it
    // up front rather than letting one tool silently accept what the
    // others reject.
    if let Err(message) = stp_synth::jobs_from_env_checked() {
        flag_error(message);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_k = 6usize;
    let mut show_dags = false;
    let mut folded: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dags" => show_dags = true,
            "--profile" => stp_telemetry::profile::set_enabled(true),
            "--profile-folded" => {
                let Some(path) = it.next() else {
                    flag_error("--profile-folded expects a path".to_string());
                };
                folded = Some(path.clone());
                stp_telemetry::profile::set_enabled(true);
            }
            "--max-k" => {
                let Some(raw) = it.next() else {
                    flag_error("--max-k expects a fence size".to_string());
                };
                max_k = raw.parse().unwrap_or_else(|_| {
                    flag_error(format!("--max-k expects a fence size, got `{raw}`"))
                });
            }
            "--log" => {
                let Some(level) = it.next().and_then(|v| stp_telemetry::Level::parse(v)) else {
                    flag_error("--log expects off|error|warn|info|debug|trace".to_string());
                };
                stp_telemetry::set_level(level);
            }
            other => {
                flag_error(format!("unknown option `{other}`"));
            }
        }
    }
    for k in 1..=max_k {
        let _k = stp_telemetry::span!("census.k{}", k);
        let full = all_fences(k);
        let pruned = pruned_fences(k);
        report!("F_{k}: {} fences, {} after pruning (Fig. 2)", full.len(), pruned.len());
        report!(
            "  full family:   {}",
            full.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(" ")
        );
        report!(
            "  pruned family: {}",
            pruned.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(" ")
        );
        if show_dags || k == 3 {
            let mut total = 0usize;
            for fence in &pruned {
                let dags = dags_for_fence(fence);
                report!("  fence {fence}: {} valid DAG(s) (Fig. 3)", dags.len());
                for dag in &dags {
                    for line in dag.to_string().lines() {
                        report!("    {line}");
                    }
                    report!("    --");
                    total += 1;
                }
            }
            report!("  total valid DAGs over pruned F_{k}: {total}");
        }
    }
    if let Some(tree) = stp_telemetry::profile::finish(folded.as_deref().map(std::path::Path::new))
    {
        eprint!("{}", tree.render_text());
    }
}
