//! `rewrite_fresh`: cut rewriting of circuit sets, closed loop, with a
//! fresh synthesis cache per pass so the store takes its few writes
//! beside mostly reads. Every pass rewrites the same named circuits and
//! its own batch of seeded random networks, so one run covers many
//! draws and its medians do not hang on a few of them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_network::{
    cut_function, enumerate_cuts, equality_comparator, mux_tree, random_network, rewrite,
    ripple_carry_adder, ripple_carry_adder_sop, Network, RewriteConfig, SynthesisCache,
};
use stp_store::{Entry, Store};

use stp_telemetry::Json;

use crate::common::{
    check_tail, counter_delta, counters_since, global_counters, peak_rss_mb, quantile, HostProbe,
    Outcome, Params, SetupTimes, SplitMix, FINGERPRINT,
};
use crate::{layers, oracle};

/// Seeded random networks drawn per pass, and their shape. Many small
/// draws of one live size rather than a few large ones, so that the
/// latency percentiles and the pass time vary little from seed to seed.
const RANDOM_NETWORKS: usize = 64;
const RANDOM_INPUTS: usize = 6;
const RANDOM_GATES: usize = 16;
const RANDOM_LIVE_GATES: usize = 12;
const RANDOM_OUTPUTS: usize = 3;
/// One pass over the circuit set takes about this long on the reference
/// host; `--seconds` buys this many passes.
const NOMINAL_PASS_S: f64 = 0.6;
/// Synthesis workers per `rewrite` call in the timed passes: one, the
/// library default (`STP_JOBS` unset). Rewriting synthesizes only its
/// store misses, most of them small, so a second worker adds thread
/// start-up and joins to each: on the reference host a pass was about
/// a fifth slower at two jobs, and repeats of one seed spread twice as
/// wide. The job-count contract is still checked, by re-running the
/// first pass with `max(nproc, 2)` workers after the timed phase.
const TIMED_JOBS: usize = 1;
/// The host probe's median on the reference host at its usual speed,
/// one slice after every pass.
const PROBE_REFERENCE_MS: f64 = 11.0;
/// Set-up repetitions before and again after the timed phase; one more
/// runs after every `SETUP_EVERY`th pass, outside its timing, so that
/// `setup_s` (their median) samples the host across the whole run.
const SETUP_REPEATS: usize = 3;
const SETUP_EVERY: usize = 4;
/// Counters the rewrite contract pins at any job count: which cut
/// functions are canonicalized and which classes miss the store.
/// `factor.*` and the solver counters also depend on how one synthesis
/// call's shapes are split between workers, so they are recorded but
/// not compared. The contract holds while no synthesis budget expires:
/// an expiry depends on timing, and it changes what the rest of the
/// pass rewrites.
const PINNED: &[&str] = &["store.misses", "store.inserts", "tt.npn_canonicalizations"];

/// Tail percentile of per-circuit latency.
const TAIL: f64 = 0.99;

struct Circuit {
    name: String,
    net: Network,
}

/// The circuits of one run: the named circuits, which every pass and
/// every seed rewrites (`gate_ratio` is taken over them, so it does not
/// depend on the seed), and one batch of random networks per pass.
struct Inputs {
    named: Vec<Circuit>,
    batches: Vec<Vec<Circuit>>,
}

impl Inputs {
    fn pass(&self, k: usize) -> Vec<&Circuit> {
        self.named.iter().chain(&self.batches[k]).collect()
    }
}

/// Set-up: the named circuits, then `RANDOM_NETWORKS` seeded draws per
/// pass that have `RANDOM_LIVE_GATES` live gates (one size, so that pass
/// time and the latency percentiles vary little with the seed). Every
/// circuit is handed to the program as BLIF text and read back with its
/// BLIF reader, as `stprewrite` reads its input.
fn set_up(seed: u64, passes: usize) -> Result<Inputs, String> {
    let through_blif = |name: String, net: Network| -> Result<Circuit, String> {
        let net = Network::from_blif(&net.to_blif("bench"))
            .map_err(|e| format!("{name}: BLIF does not read back: {e}"))?;
        Ok(Circuit { name, net })
    };
    let named = [
        ("ripple_carry_adder_sop(24)", ripple_carry_adder_sop(24)),
        ("ripple_carry_adder(48)", ripple_carry_adder(48)),
        ("equality_comparator(48)", equality_comparator(48)),
        ("mux_tree(6)", mux_tree(6)),
    ]
    .into_iter()
    .map(|(name, net)| through_blif(name.to_string(), net.map_err(|e| e.to_string())?))
    .collect::<Result<_, _>>()?;
    let mut rng = SmallRng::seed_from_u64(SplitMix::new(seed, 0x5257).next_u64());
    let mut drawn = 0;
    let mut batches = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut batch = Vec::with_capacity(RANDOM_NETWORKS);
        while batch.len() < RANDOM_NETWORKS {
            drawn += 1;
            let net = random_network(RANDOM_INPUTS, RANDOM_GATES, RANDOM_OUTPUTS, &mut rng)
                .map_err(|e| e.to_string())?;
            if net.live_gate_count() == RANDOM_LIVE_GATES {
                batch.push(through_blif(format!("random_network#{drawn}"), net)?);
            }
        }
        batches.push(batch);
    }
    Ok(Inputs { named, batches })
}

fn config(jobs: usize) -> RewriteConfig {
    RewriteConfig { jobs, ..RewriteConfig::default() }
}

/// One pass: every circuit through `rewrite` against one fresh cache.
/// Returns per-circuit latencies and results (failures as `Err`).
struct Pass {
    wall: Duration,
    latencies_ms: Vec<f64>,
    results: Vec<Result<stp_network::RewriteResult, String>>,
    fingerprint: BTreeMap<String, u64>,
    /// Classes whose synthesis ran out of `RewriteConfig`'s budget.
    budget_expiries: usize,
}

impl Pass {
    fn transcript(&self) -> Vec<String> {
        self.results
            .iter()
            .map(|r| r.as_ref().map_or_else(|e| e.clone(), |r| r.network.to_blif("bench")))
            .collect()
    }
}

fn run_pass(circuits: &[&Circuit], jobs: usize) -> Pass {
    let before = global_counters();
    let store = Arc::new(Store::new());
    let cache = SynthesisCache::with_store(Arc::clone(&store));
    let config = config(jobs);
    let mut latencies_ms = Vec::with_capacity(circuits.len());
    let mut results = Vec::with_capacity(circuits.len());
    let start = Instant::now();
    {
        let _root = stp_telemetry::Span::enter("bench.rewrite_fresh");
        for c in circuits {
            let t = Instant::now();
            let result = rewrite(&c.net, &config, &cache).map_err(|e| e.to_string());
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            results.push(result);
        }
    }
    let wall = start.elapsed();
    let fingerprint = counter_delta(&before, &global_counters(), FINGERPRINT);
    let budget_expiries =
        store.snapshot().iter().filter(|(_, e)| matches!(e, Entry::Exhausted { .. })).count();
    Pass { wall, latencies_ms, results, fingerprint, budget_expiries }
}

fn pinned(print: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    print
        .iter()
        .filter(|(k, _)| PINNED.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Outputs to check with the SAT miter after the timed phase: each
/// circuit's distinct outputs, with how many timed rewrites returned
/// each. Circuits are told apart by address.
#[derive(Default)]
struct Answers<'a> {
    slots: BTreeMap<*const Circuit, usize>,
    outputs: Vec<(&'a Circuit, BTreeMap<String, u64>)>,
}

impl<'a> Answers<'a> {
    fn record(&mut self, c: &'a Circuit, blif: String, timed: u64) {
        let next = self.outputs.len();
        let slot = *self.slots.entry(c as *const Circuit).or_insert(next);
        if slot == next {
            self.outputs.push((c, BTreeMap::new()));
        }
        *self.outputs[slot].1.entry(blif).or_insert(0) += timed;
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let passes = ((p.seconds as f64 / NOMINAL_PASS_S).round() as usize).max(1);
    let mut setup = SetupTimes::new();
    let inputs = setup.repeat(SETUP_REPEATS, || set_up(p.seed, passes))?;
    let named = inputs.named.len();
    let mut probe = HostProbe::new(PROBE_REFERENCE_MS);

    let counters0 = global_counters();
    let cpu0 = crate::common::cpu_time();
    let trace = layers::Trace::start(p.traced);
    let mut wall = Duration::ZERO;
    let mut latencies_ms = Vec::new();
    let mut answers = Answers::default();
    let mut first: Option<(Pass, Vec<String>)> = None;
    let mut budget_expiries = 0;
    let (mut before_sum, mut after_sum, mut rewrite_passes) = (0usize, 0usize, 0usize);
    for k in 0..passes {
        let circuits = inputs.pass(k);
        let pass = run_pass(&circuits, TIMED_JOBS);
        probe.sample();
        if k % SETUP_EVERY == SETUP_EVERY - 1 {
            setup.repeat(1, || set_up(p.seed, passes))?;
        }
        wall += pass.wall;
        latencies_ms.extend(&pass.latencies_ms);
        out.attempted += circuits.len() as u64;
        budget_expiries += pass.budget_expiries;
        let blifs = pass.transcript();
        for (i, (c, result)) in circuits.iter().zip(&pass.results).enumerate() {
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    out.error(1, format!("pass {k}, {}: {e}", c.name));
                    continue;
                }
            };
            rewrite_passes += r.passes;
            if k == 0 && i < named {
                before_sum += r.gates_before;
                after_sum += r.gates_after;
            }
            if r.gates_after > r.gates_before {
                let (before, after) = (r.gates_before, r.gates_after);
                out.wrong(1, format!("pass {k}, {}: grew from {before} to {after} gates", c.name));
            }
            answers.record(c, blifs[i].clone(), 1);
        }
        match &first {
            None => first = Some((pass, blifs)),
            Some((first, blifs0)) => {
                let (a, b) = (&blifs0[..named], &blifs[..named]);
                compare(&mut out, &format!("pass {k}"), first, a, &pass, b, &circuits, false);
            }
        }
    }
    out.timed_wall = wall;
    out.timed_cpu = crate::common::cpu_time().saturating_sub(cpu0);
    let peak_rss = peak_rss_mb();
    let profile = trace.finish();
    let counters = counters_since(&counters0);
    let (first, blifs0) = first.expect("at least one pass");
    out.fingerprint = first.fingerprint.clone();
    out.pinned = PINNED;

    // The rewrite contract: the same results at any job count.
    let circuits = inputs.pass(0);
    let check_jobs = p.jobs.max(2);
    let parallel = run_pass(&circuits, check_jobs);
    let blifs1 = parallel.transcript();
    let what = format!("the jobs={check_jobs} pass");
    compare(&mut out, &what, &first, &blifs0, &parallel, &blifs1, &circuits, true);
    budget_expiries += parallel.budget_expiries;
    for ((c, result), blif) in circuits.iter().zip(&parallel.results).zip(blifs1) {
        if result.is_ok() {
            answers.record(c, blif, 0);
        }
    }
    setup.repeat(SETUP_REPEATS, || set_up(p.seed, passes))?;

    // The oracle, outside the timed phase: every distinct output of
    // every circuit against its input.
    let mut variants = 0;
    for (c, outputs) in &answers.outputs {
        variants += outputs.len() - 1;
        for (blif, &timed) in outputs {
            let verdict = Network::from_blif(blif)
                .map_err(|e| format!("output does not read back: {e}"))
                .and_then(|got| oracle::networks_equivalent(&c.net, &got));
            if let Err(e) = verdict {
                out.wrong(timed, format!("{}: {e}", c.name));
            }
        }
    }

    let ok = out.attempted.saturating_sub(out.failed);
    check_tail(&mut out, "rewrite latency", latencies_ms.len(), TAIL);
    // Timings at the reference host's speed (see `HostProbe`).
    let unscaled = [
        ("setup_s", setup.median()),
        ("throughput_per_s", ok as f64 / wall.as_secs_f64()),
        ("latency_p50_ms", quantile(&latencies_ms, 0.5)),
        ("latency_tail_ms", quantile(&latencies_ms, TAIL)),
    ];
    probe.report(&mut out, &unscaled);
    out.notes.push(("setup_ms", setup.samples_ms()));
    out.metrics.insert("ok_ratio", ok as f64 / out.attempted as f64);
    out.metrics.insert("gate_ratio", after_sum as f64 / before_sum.max(1) as f64);
    out.metrics.insert("peak_rss_mb", peak_rss);
    out.notes.push(("timed_jobs", Json::UInt(TIMED_JOBS as u64)));
    out.notes.push(("check_jobs", Json::UInt(check_jobs as u64)));
    out.notes.push(("passes", Json::UInt(passes as u64)));
    out.notes.push(("circuits_per_pass", Json::UInt(circuits.len() as u64)));
    out.notes.push(("latency_samples", Json::UInt(latencies_ms.len() as u64)));
    out.notes.push(("tail_percentile", Json::UInt(99)));
    out.notes.push(("pass_wall_s", Json::Num(wall.as_secs_f64() / passes as f64)));
    out.notes.push(("budget_expiries", Json::UInt(budget_expiries as u64)));
    out.notes.push(("outputs_differing_from_pass0", Json::UInt(variants as u64)));

    if let Some(profile) = profile {
        let mut extra = BTreeMap::new();
        extra.insert("network.passes".to_string(), rewrite_passes as f64);
        let cut_s = cut_function_seconds(&inputs.named) * passes as f64
            + inputs.batches.iter().map(|b| cut_function_seconds(b)).sum::<f64>();
        extra.insert("network.cut_function_s".to_string(), cut_s);
        out.layers = layers::layer_metrics(&profile, &counters, extra, wall, &mut out.problems);
    }
    Ok(out)
}

/// Checks a pass's outputs for the same circuits against the first
/// pass's (the named circuits, or with `counters` the whole first pass
/// re-run, whose pinned counters must then match too). They must repeat
/// exactly while no synthesis budget expired in either pass; with an
/// expiry they may differ, and every distinct output is checked with
/// the SAT miter either way.
#[allow(clippy::too_many_arguments)]
fn compare(
    out: &mut Outcome,
    what: &str,
    first: &Pass,
    blifs0: &[String],
    pass: &Pass,
    blifs: &[String],
    circuits: &[&Circuit],
    counters: bool,
) {
    if first.budget_expiries + pass.budget_expiries > 0 {
        return;
    }
    if counters && pinned(&pass.fingerprint) != pinned(&first.fingerprint) {
        out.problem(format!("{what}: pinned counters differ from the first pass"));
    }
    for (c, (a, b)) in circuits.iter().zip(blifs0.iter().zip(blifs)) {
        if a != b {
            out.problem(format!("{what}, {}: output differs from the first pass", c.name));
        }
    }
}

/// Time to compute every cut function of the input circuits once, by
/// calling the public cut functions directly: `rewrite` has no span of
/// its own around them. Measured after the traced phase.
fn cut_function_seconds(circuits: &[Circuit]) -> f64 {
    let config = RewriteConfig::default();
    let mut total = Duration::ZERO;
    for c in circuits {
        let cuts = enumerate_cuts(&c.net, config.cut_size, config.cut_limit);
        let start = Instant::now();
        for (root, cuts) in cuts.cuts.iter().enumerate() {
            if c.net.is_gate(root) {
                for cut in cuts.iter().filter(|cut| cut.leaves.len() >= 2 && cut.leaves != [root]) {
                    std::hint::black_box(cut_function(&c.net, root, cut).ok());
                }
            }
        }
        total += start.elapsed();
    }
    total.as_secs_f64()
}
