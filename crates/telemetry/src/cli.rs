//! Helpers the workspace binaries share: strict flag parsing and the
//! run epilogue behind `--stats` / `--profile` / `--trace-json`.
//!
//! A usage error exits with status 2, so scripts can tell it from a
//! run that failed (exit 1).

use std::time::Instant;

use crate::{Json, RunReport};

/// Reports a malformed or missing flag value as `error: <message>` on
/// stderr and exits 2.
pub fn flag_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses the value of a `--flag <value>` pair, failing loudly: a
/// missing or unparsable value is an error, never a silent fallback to
/// the default.
pub fn parse_flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<&String>,
    expects: &str,
) -> T {
    let Some(raw) = value else {
        flag_error(format!("{flag} expects {expects}"));
    };
    raw.parse().unwrap_or_else(|_| flag_error(format!("{flag} expects {expects}, got `{raw}`")))
}

/// Ends a run of `tool`: flushes the profile (printing its span tree to
/// stderr and writing `folded` stacks when asked), prints the
/// [`RunReport`] with `extra` fields and the profile as the final stdout
/// line when `stats` is set, and flushes the trace sink. Called on every
/// exit path after the run started, so `--stats` reports failures too.
pub fn finish_run(
    tool: &str,
    stats: bool,
    args: &[String],
    outcome: &str,
    start: Instant,
    extra: Vec<(String, Json)>,
    folded: Option<&str>,
) {
    let profile = crate::profile::finish(folded.map(std::path::Path::new));
    if let Some(tree) = &profile {
        eprint!("{}", tree.render_text());
    }
    if stats {
        let snapshot = crate::metrics_global().snapshot();
        let mut report =
            RunReport::from_snapshot(tool, args, outcome, start.elapsed().as_secs_f64(), &snapshot);
        for (key, value) in extra {
            report = report.with_extra(&key, value);
        }
        if let Some(tree) = profile {
            report = report.with_profile(tree);
        }
        println!("{}", report.to_json_string());
    }
    crate::trace::finish();
}
