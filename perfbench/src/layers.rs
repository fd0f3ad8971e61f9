//! The traced run: turns on the engine's profile tree around the timed
//! phase and folds it, with counter deltas and the benchmark's own
//! timings, into the per-layer block named in `METRICS.md`.

use std::collections::BTreeMap;
use std::time::Duration;

use stp_telemetry::profile;
use stp_telemetry::ProfileNode;

/// Every per-layer metric the runner computes from the trace. Besides
/// these, `BENCHMARK.json` lists `peak_rss_mb`, which every run measures,
/// and leaves out the `serve.*` ones, whose only workload, `serve_mixed`,
/// it does not name (see `METRICS.md`). Metrics a workload does not
/// exercise read 0.
pub const LAYER_METRICS: &[&str] = &[
    "fence.enum_s",
    "fence.shapes",
    "factor.self_s",
    "factor.subproblems",
    "factor.memo_hits",
    "factor.charts_built",
    "factor.memo_hit_ratio",
    "factor.memo_bytes",
    "verify.self_s",
    "verify.candidates",
    "verify.queries",
    "verify.yield",
    "sched.busy_s",
    "sched.idle_s",
    "synth.arity4_s",
    "synth.arity8_s",
    "synth.arity9_10_s",
    "synth.miss_s",
    "network.cut_enum_s",
    "network.cuts",
    "network.cut_function_s",
    "network.apply_s",
    "network.passes",
    "network.replacements",
    "tt.canonicalize_s",
    "tt.canonicalizations",
    "tt.canonicalize_us",
    "store.lookup_s",
    "store.hits",
    "store.misses",
    "store.inserts",
    "store.hit_ratio",
    "store.pending_waits",
    "chain.map_back_s",
    "serve.ping_rtt_p50_us",
    "serve.ping_rtt_p99_us",
    "serve.parse_us",
    "serve.synth_p99_ms",
    "serve.multi_p99_ms",
    "serve.rewrite_p99_ms",
    "serve.accepted",
    "serve.rejected_overload",
    "serve.coalesced",
    "serve.timeouts",
    "serve.gen_late_p99_ms",
    "telemetry.overhead_ratio",
];

/// The profile tree switched on for one timed phase (a no-op when the
/// run is untraced, so the untraced run pays one relaxed load per span).
pub struct Trace {
    on: bool,
}

impl Trace {
    pub fn start(on: bool) -> Trace {
        if on {
            profile::reset();
            profile::set_enabled(true);
        }
        Trace { on }
    }

    /// Stops collection and returns the tree when the run is traced.
    pub fn finish(self) -> Option<ProfileNode> {
        if !self.on {
            return None;
        }
        profile::set_enabled(false);
        Some(profile::take())
    }
}

/// Self nanoseconds summed per span label over the tree.
#[derive(Default)]
struct LabelTimes {
    self_ns: BTreeMap<String, u64>,
    /// Time spent under `store.solve_npn*` in engine phases other than
    /// canonicalization and map-back: solving on a miss.
    miss_ns: u64,
}

fn walk(node: &ProfileNode, acc: &mut LabelTimes) {
    *acc.self_ns.entry(node.label.clone()).or_insert(0) += node.self_ns();
    if node.label.starts_with("store.solve_npn") {
        acc.miss_ns += node
            .children
            .iter()
            .filter(|c| c.label != "phase.npn_canonicalize" && c.label != "phase.map_back")
            .map(|c| c.total_ns)
            .sum::<u64>();
    }
    for child in &node.children {
        walk(child, acc);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds the per-layer block. `counters` are the engine counter deltas
/// over the timed phase; `extra` holds metrics the workload measured
/// itself (scheduler, client-side and wire timings). Span times are
/// thread-seconds: with several workers they can exceed wall time.
///
/// Also checks that the benchmark's root spans account for at least
/// 95 % of the traced wall time, recording a problem otherwise.
pub fn layer_metrics(
    tree: &ProfileNode,
    counters: &BTreeMap<String, u64>,
    extra: BTreeMap<String, f64>,
    wall: Duration,
    problems: &mut Vec<String>,
) -> BTreeMap<String, f64> {
    let root_ns: u64 =
        tree.children.iter().filter(|c| c.label.starts_with("bench.")).map(|c| c.total_ns).sum();
    let coverage = root_ns as f64 / wall.as_nanos().max(1) as f64;
    if coverage < 0.95 {
        problems.push(format!("trace root covers {:.1}% of traced wall time", coverage * 100.0));
    }
    let mut t = LabelTimes::default();
    walk(tree, &mut t);
    let secs = |labels: &[&str]| -> f64 {
        labels.iter().map(|l| t.self_ns.get(*l).copied().unwrap_or(0)).sum::<u64>() as f64 / 1e9
    };
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

    let mut m: BTreeMap<String, f64> = LAYER_METRICS.iter().map(|n| (n.to_string(), 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    set("fence.enum_s", secs(&["phase.fence_enum"]));
    set("fence.shapes", count("fence.shapes_generated"));
    set("factor.self_s", secs(&["phase.factorize"]));
    for c in ["factor.subproblems", "factor.memo_hits", "factor.charts_built", "factor.memo_bytes"]
    {
        set(c, count(c));
    }
    set(
        "factor.memo_hit_ratio",
        ratio(count("factor.memo_hits"), count("factor.memo_hits") + count("factor.subproblems")),
    );
    set("verify.self_s", secs(&["phase.verify"]));
    set("verify.candidates", count("synth.candidates"));
    set("verify.queries", count("solver.queries"));
    set("verify.yield", ratio(count("synth.solutions"), count("synth.candidates")));
    set("synth.miss_s", t.miss_ns as f64 / 1e9);
    set("network.cut_enum_s", secs(&["rewrite.cut_enum"]));
    set("network.cuts", count("network.cuts_enumerated"));
    set("network.apply_s", secs(&["rewrite.apply"]));
    set("network.replacements", count("network.rewrite_replacements"));
    let canon_s = secs(&["phase.npn_canonicalize"]);
    let canons = count("tt.npn_canonicalizations") + count("tt.npn_mo_canonicalizations");
    set("tt.canonicalize_s", canon_s);
    set("tt.canonicalizations", canons);
    set("tt.canonicalize_us", ratio(canon_s * 1e6, canons));
    set("store.lookup_s", secs(&["store.solve_npn", "store.solve_npn_multi"]));
    for c in ["store.hits", "store.misses", "store.inserts", "store.pending_waits"] {
        set(c, count(c));
    }
    set("store.hit_ratio", ratio(count("store.hits"), count("store.hits") + count("store.misses")));
    set("chain.map_back_s", secs(&["phase.map_back"]));
    for c in ["serve.accepted", "serve.rejected_overload", "serve.coalesced", "serve.timeouts"] {
        set(c, count(c));
    }
    for (name, value) in extra {
        set(&name, value);
    }
    m
}
