//! `stp-telemetry`: zero-dependency observability for the STP exact
//! synthesis workspace.
//!
//! Four pieces, all built on `std` alone:
//!
//! - [`log`] — a leveled stderr logger (`error!` … `trace!`) plus a
//!   stdout [`report!`](crate::report) channel for program output,
//!   controlled by one global [`Level`](log::Level) (`STP_LOG` env var
//!   or the CLIs' `--log` flag).
//! - [`metrics`] — a process-wide registry of named atomic
//!   [`Counter`](metrics::Counter)s and log2-bucket latency
//!   [`Histogram`](metrics::Histogram)s, with per-call-site handle
//!   caching via [`counter!`] / [`histogram!`] so hot paths pay one
//!   relaxed atomic add.
//! - [`span`] — RAII stopwatch guards ([`span!`]) that record into the
//!   histogram of the same name, nest via a thread-local depth, and
//!   feed the trace sink.
//! - [`trace`] / [`report`] — a Chrome-trace-style JSONL event writer
//!   (`--trace-json`) and the structured [`RunReport`](report::RunReport)
//!   printed by `--stats`, both serialized through the hand-rolled
//!   [`json::Json`] value type (which also parses, so tests and
//!   scripts can read reports back without serde).
//! - [`scope`] — thread-scoped counter attribution
//!   ([`CounterScope`](scope::CounterScope)): an exact per-window
//!   counter delta that stays exact when other threads run concurrent
//!   work, with worker-pool inheritance mirroring the profiler's
//!   `inherit_path`.
//! - [`profile`] / [`expose`] / `alloc` — the profiling layer: spans
//!   aggregate into a deterministic profile tree (`--profile`, folded
//!   flamegraph export, JSON embedding in reports), the registry
//!   renders as Prometheus exposition text
//!   ([`Metrics::render_prometheus`]), and the feature-gated
//!   `alloc-profile` counting allocator attributes bytes/allocations
//!   to the innermost open span.
//! - [`cli`] — the flag-parsing helpers and the run epilogue the
//!   workspace binaries share.
//!
//! Instrumentation cost when idle is a relaxed atomic load per
//! `enabled()` check and a relaxed add per counter bump; the STP matrix
//! kernels additionally hide their counters behind the off-by-default
//! `telemetry` cargo feature of `stp-matrix` so the inner loops stay
//! untouched in benchmark builds.

#[cfg(feature = "alloc-profile")]
pub mod alloc;
pub mod cli;
pub mod expose;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod scope;
pub mod span;
pub mod trace;

pub use json::Json;
pub use log::{enabled, init_from_env, level, set_level, Level};
pub use metrics::{global as metrics_global, Counter, Histogram, Metrics, MetricsSnapshot};
pub use profile::ProfileNode;
pub use report::{PhaseStats, RunReport};
pub use scope::CounterScope;
pub use span::Span;

#[cfg(test)]
mod tests {
    //! Cross-module smoke test; the per-module suites cover details.

    use super::*;

    #[test]
    fn end_to_end_report_from_global_metrics() {
        crate::counter!("telemetry.test.e2e").add(3);
        {
            let _s = crate::span!("telemetry.test.e2e_span");
        }
        let snap = metrics_global().snapshot();
        let report = RunReport::from_snapshot("smoke", &["x".to_string()], "ok", 0.01, &snap);
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert!(back.counters["telemetry.test.e2e"] >= 3);
        assert!(back.phases.iter().any(|p| p.name == "telemetry.test.e2e_span"));
    }
}
