//! `synth_cold`: store-free exact synthesis of the paper's suites,
//! closed loop, through the two-level scheduler at `jobs = nproc`.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_bench::{fdsd, npn4, run_suite_outcomes, Algorithm, InstanceOutcome, RetryPolicy, Suite};
use stp_tt::{random_fdsd, TruthTable};

use crate::common::{
    add_counters, check_tail, counter_delta, harrell_davis, peak_rss_mb, HostProbe, Outcome,
    Params, SetupTimes, SplitMix, FINGERPRINT,
};
use crate::{layers, oracle};

/// Size of the committed FDSD8 pool and how many of it a run draws.
const FDSD8_POOL: usize = 24;
const FDSD8_DRAW: usize = 6;
/// `stp_bench::fdsd` stream offset of the FDSD8 pool.
const FDSD8_OFFSET: u64 = 0x6265_6e63_6838; // "bench8"
/// Size of the committed 9- and 10-input pools and the draw per arity.
const WIDE_POOL: usize = 4;
const WIDE_DRAW: usize = 1;
const WIDE_SEED: u64 = 0x0077_6964_6539_3130; // "wide910"
/// One pass over the drawn suite takes about this long at two jobs on
/// the reference host; `--seconds` buys this many passes (at least one).
/// Work per run is a function of `--seconds` alone, so counters repeat.
const NOMINAL_PASS_S: f64 = 17.5;
/// Instances re-run at `jobs = 1` after the timed phase, to check that
/// their counters and chains match the `jobs = nproc` run.
const JOBS1_CHECK: usize = 12;
/// The committed answers: gate count and solution count per spec.
const EXPECTED: &str = include_str!("../expected/suite.tsv");

/// Set-up repetitions before the timed phase and again after each pass;
/// `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 10;

/// Host probe slices taken back to back before each pass and after the
/// last: its passes last 15 s, so the probe can run only at their
/// edges. The probe's median on the reference host at its usual speed,
/// sampled that way (the table stays warmer than when each slice
/// follows a pass, so it is lower than on `rewrite_fresh`).
const PROBE_SLICES: usize = 20;
const PROBE_REFERENCE_MS: f64 = 8.8;

/// One synthesis instance with its committed answer.
struct Instance {
    group: &'static str,
    spec: TruthTable,
    gates: usize,
    solutions: usize,
    /// FEN's gate count where the committed file cross-checked it.
    fen_gates: Option<usize>,
}

impl Instance {
    /// The fewest gates known to realize the spec: the engine's
    /// recorded count, or FEN's where FEN found fewer.
    fn optimum(&self) -> usize {
        self.fen_gates.map_or(self.gates, |fen| fen.min(self.gates))
    }

    /// FEN, an independent exact engine, found a chain with fewer gates
    /// than the count the engine returned when the file was made.
    fn known_gap(&self) -> bool {
        self.optimum() < self.gates
    }
}

/// The three pools a run draws from, in committed order.
fn pools() -> Vec<(&'static str, Vec<TruthTable>)> {
    let mut rng = SmallRng::seed_from_u64(WIDE_SEED);
    let wide =
        (9..=10).flat_map(|n| (0..WIDE_POOL).map(|_| random_fdsd(n, &mut rng)).collect::<Vec<_>>());
    vec![
        ("NPN4", npn4().functions),
        ("FDSD8", fdsd(8, FDSD8_POOL, FDSD8_OFFSET).functions),
        ("WIDE9_10", wide.collect()),
    ]
}

/// Parses `expected/suite.tsv`: `group  arity  hex  gates  solutions  fen_gates`.
/// Committed answers keyed by (arity, hex): gates, solutions and FEN's
/// gate count where cross-checked.
type Expected = HashMap<(usize, String), (usize, usize, Option<usize>)>;

fn expected() -> Result<Expected, String> {
    let mut map = HashMap::new();
    for line in EXPECTED.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let parse = |i: usize| -> Result<usize, String> {
            f.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad expected row `{line}`"))
        };
        map.insert((parse(1)?, f[2].to_string()), (parse(3)?, parse(4)?, parse(5).ok()));
    }
    Ok(map)
}

/// The instances of one run: every NPN4 class, a seeded draw from the
/// FDSD8 pool and one seeded 9- and 10-input spec, in dispatch order
/// (see [`dispatch_order`]).
fn instances(seed: u64) -> Result<Vec<Instance>, String> {
    let expected = expected()?;
    let mut rng = SplitMix::new(seed, 0x5359_4e54);
    let mut out = Vec::new();
    for (group, pool) in pools() {
        let mut picked: Vec<TruthTable> = match group {
            "NPN4" => pool,
            "FDSD8" => draw(&mut rng, pool, FDSD8_DRAW),
            _ => {
                let (nine, ten) = pool.split_at(WIDE_POOL);
                let mut v = draw(&mut rng, nine.to_vec(), WIDE_DRAW);
                v.extend(draw(&mut rng, ten.to_vec(), WIDE_DRAW));
                v
            }
        };
        for spec in picked.drain(..) {
            let key = (spec.num_vars(), spec.to_hex());
            let &(gates, solutions, fen_gates) = expected
                .get(&key)
                .ok_or_else(|| format!("{group} spec {} missing from expected/suite.tsv", key.1))?;
            out.push(Instance { group, spec, gates, solutions, fen_gates });
        }
    }
    Ok(dispatch_order(out))
}

/// Orders instances for the scheduler, which hands them out in order.
/// The costly ones (seven gates and up, longest first) lead, with the
/// cheap ones (five gates and less, which hold the median) dealt evenly
/// between them, and the six-gate ones close the run. So the median is
/// sampled across the whole run rather than in one short window, and
/// the run ends on short instances: where the two-second classes land
/// does not decide the wall time.
fn dispatch_order(mut insts: Vec<Instance>) -> Vec<Instance> {
    insts.sort_by_key(|i| std::cmp::Reverse(i.gates));
    let (costly, rest): (Vec<Instance>, Vec<Instance>) =
        insts.into_iter().partition(|i| i.gates >= 7);
    let (six, cheap): (Vec<Instance>, Vec<Instance>) = rest.into_iter().partition(|i| i.gates == 6);
    let per_costly = cheap.len().div_ceil(costly.len().max(1));
    let mut cheap = cheap.into_iter();
    let mut out = Vec::new();
    for inst in costly {
        out.push(inst);
        out.extend(cheap.by_ref().take(per_costly));
    }
    out.extend(cheap);
    out.extend(six);
    out
}

fn draw(rng: &mut SplitMix, mut pool: Vec<TruthTable>, k: usize) -> Vec<TruthTable> {
    rng.shuffle(&mut pool);
    pool.truncate(k);
    pool
}

fn policy() -> RetryPolicy {
    RetryPolicy::single(Duration::from_secs(60))
}

/// Checks one outcome against its committed answer by simulation.
/// The gate count must lie between the best known (FEN's, where FEN
/// found fewer) and the recorded one, so closing the engine's known
/// optimality gap is not scored as a wrong answer; the solution count
/// is compared only where the recorded gate count is the best known.
fn check(inst: &Instance, outcome: &InstanceOutcome) -> Result<(), String> {
    if !outcome.solved {
        return Err(format!("unsolved: {:?}", outcome.failure));
    }
    let gates = outcome.gate_count.unwrap_or(usize::MAX);
    let solutions_ok = inst.known_gap() || outcome.num_solutions == inst.solutions;
    if !(inst.optimum()..=inst.gates).contains(&gates) || !solutions_ok {
        return Err(format!(
            "got {:?} gates / {} solutions, expected {} / {}",
            outcome.gate_count, outcome.num_solutions, inst.gates, inst.solutions
        ));
    }
    if outcome.chains.is_empty() {
        return Err("no chain returned".to_string());
    }
    for chain in &outcome.chains {
        if chain.num_gates() != gates {
            return Err(format!("a chain has {} gates, not {gates}", chain.num_gates()));
        }
        oracle::chain_computes(chain, std::slice::from_ref(&inst.spec))?;
    }
    Ok(())
}

fn fingerprint_of(outcome: &InstanceOutcome) -> BTreeMap<String, u64> {
    counter_delta(&BTreeMap::new(), &outcome.counters, FINGERPRINT)
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut setup = SetupTimes::new();
    let insts = setup.repeat(SETUP_REPEATS, || instances(p.seed))?;
    let suite = Suite {
        name: "bench.synth_pass",
        functions: insts.iter().map(|i| i.spec.clone()).collect(),
    };
    let passes = ((p.seconds as f64 / NOMINAL_PASS_S).round() as usize).max(1);

    // Per-instance latency summed over the passes. A function's latency
    // is its mean over the passes, and the percentiles are taken over
    // functions by the Harrell–Davis estimator: the median falls among
    // the 5-gate classes, whose timings are spread out and noisy, and
    // averaging each function's repeats and the ranks around the median
    // steadies it.
    let mut latency_sum_ms = vec![0.0; insts.len()];
    let mut pass_prints: Vec<BTreeMap<String, u64>> = Vec::new();
    let mut first_pass: Vec<InstanceOutcome> = Vec::new();
    let (mut gates_got, mut gates_want) = (0usize, 0usize);
    let mut busy_s = 0.0;
    let mut arity_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut probe = HostProbe::new(PROBE_REFERENCE_MS);
    let cpu0 = crate::common::cpu_time();
    let trace = layers::Trace::start(p.traced);
    let mut wall = Duration::ZERO;
    for pass in 0..passes {
        (0..PROBE_SLICES).for_each(|_| probe.sample());
        let start = Instant::now();
        let outcomes = {
            let _root = stp_telemetry::Span::enter("bench.synth_cold");
            run_suite_outcomes(Algorithm::Stp, &suite, &policy(), p.jobs, None)
        };
        wall += start.elapsed();
        // Everything below is outside the timed region.
        setup.repeat(SETUP_REPEATS, || instances(p.seed))?;
        let mut print = BTreeMap::new();
        for ((inst, outcome), sum_ms) in insts.iter().zip(&outcomes).zip(&mut latency_sum_ms) {
            out.attempted += 1;
            *sum_ms += outcome.elapsed.as_secs_f64() * 1e3;
            busy_s += outcome.elapsed.as_secs_f64();
            let arity = match inst.spec.num_vars() {
                0..=4 => "synth.arity4_s",
                5..=8 => "synth.arity8_s",
                _ => "synth.arity9_10_s",
            };
            *arity_s.entry(arity).or_insert(0.0) += outcome.elapsed.as_secs_f64();
            add_counters(&mut print, &fingerprint_of(outcome));
            add_counters(&mut counters, &outcome.counters);
            gates_want += inst.optimum();
            gates_got += outcome.gate_count.unwrap_or(0);
            let what = format!("pass {pass}, {} {}", inst.group, inst.spec.to_hex());
            if !outcome.solved {
                out.error(1, format!("{what}: unsolved: {:?}", outcome.failure));
            } else if let Err(e) = check(inst, outcome) {
                out.wrong(1, format!("{what}: {e}"));
            }
        }
        pass_prints.push(print);
        if pass == 0 {
            first_pass = outcomes;
        }
    }
    (0..PROBE_SLICES).for_each(|_| probe.sample());
    out.timed_wall = wall;
    out.timed_cpu = crate::common::cpu_time().saturating_sub(cpu0);
    let peak_rss = peak_rss_mb();
    let profile = trace.finish();

    for (k, print) in pass_prints.iter().enumerate().skip(1) {
        if print != &pass_prints[0] {
            out.problem(format!("pass {k} counter fingerprint differs from pass 0"));
        }
    }
    out.fingerprint = pass_prints[0].clone();
    jobs1_check(p, &insts, &first_pass, &mut out);

    let solved = out.attempted - out.failed;
    let latencies_ms: Vec<f64> = latency_sum_ms.iter().map(|ms| ms / passes as f64).collect();
    let n = latencies_ms.len();
    check_tail(&mut out, "synth latency", n, 0.95);
    // Timings at the reference host's speed (see `HostProbe`).
    let unscaled = [
        ("setup_s", setup.median()),
        ("throughput_per_s", solved as f64 / wall.as_secs_f64()),
        ("latency_p50_ms", harrell_davis(&latencies_ms, 0.5)),
        ("latency_tail_ms", harrell_davis(&latencies_ms, 0.95)),
    ];
    probe.report(&mut out, &unscaled);
    out.notes.push(("setup_ms", setup.samples_ms()));
    out.metrics.insert("ok_ratio", solved as f64 / out.attempted as f64);
    out.metrics.insert("gate_ratio", gates_got as f64 / gates_want as f64);
    out.metrics.insert("peak_rss_mb", peak_rss);
    out.notes.push(("passes", stp_telemetry::Json::UInt(passes as u64)));
    out.notes.push(("instances_per_pass", stp_telemetry::Json::UInt(insts.len() as u64)));
    out.notes.push(("latency_samples", stp_telemetry::Json::UInt(n as u64)));
    out.notes.push(("timings_per_latency_sample", stp_telemetry::Json::UInt(passes as u64)));
    out.notes.push(("tail_percentile", stp_telemetry::Json::UInt(95)));
    // Specs where FEN, an independent exact engine, found fewer gates
    // than the engine returned when the committed file was made: a
    // known optimality gap, which keeps `gate_ratio` above 1.
    let gaps = insts.iter().filter(|i| i.known_gap()).count();
    out.notes.push(("fewer_gates_known_from_fen", stp_telemetry::Json::UInt(gaps as u64)));

    if let Some(profile) = profile {
        let mut extra = BTreeMap::new();
        extra.insert("sched.busy_s".to_string(), busy_s);
        extra.insert(
            "sched.idle_s".to_string(),
            (p.jobs as f64 * wall.as_secs_f64() - busy_s).max(0.0),
        );
        for (name, secs) in arity_s {
            extra.insert(name.to_string(), secs);
        }
        out.layers = layers::layer_metrics(&profile, &counters, extra, wall, &mut out.problems);
    }
    Ok(out)
}

/// Re-runs a seeded handful of the cheaper instances at `jobs = 1` and
/// checks their counters and chains against the timed `jobs = nproc`
/// pass. With at least as many instances as jobs, every instance runs
/// with one shape worker, so the engine's contract makes both equal.
fn jobs1_check(p: &Params, insts: &[Instance], timed: &[InstanceOutcome], out: &mut Outcome) {
    let mut rng = SplitMix::new(p.seed, 0x4a4f_4231);
    let mut idx: Vec<usize> = (0..insts.len()).filter(|&i| insts[i].gates <= 6).collect();
    rng.shuffle(&mut idx);
    idx.truncate(JOBS1_CHECK);
    let suite = Suite {
        name: "bench.jobs1_check",
        functions: idx.iter().map(|&i| insts[i].spec.clone()).collect(),
    };
    let again = run_suite_outcomes(Algorithm::Stp, &suite, &policy(), 1, None);
    for (&i, outcome) in idx.iter().zip(&again) {
        if fingerprint_of(outcome) != fingerprint_of(&timed[i]) || outcome.chains != timed[i].chains
        {
            out.problem(format!(
                "{} {}: jobs=1 counters or chains differ from jobs={}",
                insts[i].group,
                insts[i].spec.to_hex(),
                p.jobs
            ));
        }
    }
}

/// Prints `expected/suite.tsv` for every pool spec: the engine's gate
/// and solution counts, each checked by simulation. With `cross_check`
/// every NPN4 row also carries the gate count of the CNF baseline FEN,
/// an independent exact engine (`-` where not cross-checked).
pub fn write_expected(jobs: usize, cross_check: bool) -> Result<(), String> {
    println!("# group\tarity\thex\tgates\tsolutions\tfen_gates");
    for (group, functions) in pools() {
        let suite = Suite { name: group, functions };
        let start = Instant::now();
        let stp = run_suite_outcomes(Algorithm::Stp, &suite, &policy(), jobs, None);
        eprintln!("{group}: {} specs solved in {:.1}s", stp.len(), start.elapsed().as_secs_f64());
        let fen = if cross_check && group == "NPN4" {
            let start = Instant::now();
            let budget = RetryPolicy::single(Duration::from_secs(600));
            let fen = run_suite_outcomes(Algorithm::Fen, &suite, &budget, jobs, None);
            eprintln!("{group}: FEN cross-check in {:.1}s", start.elapsed().as_secs_f64());
            Some(fen)
        } else {
            None
        };
        for (i, (spec, outcome)) in suite.functions.iter().zip(&stp).enumerate() {
            let hex = spec.to_hex();
            let gates = outcome.gate_count.ok_or_else(|| format!("{group} {hex} unsolved"))?;
            let inst = Instance {
                group,
                spec: spec.clone(),
                gates,
                solutions: outcome.num_solutions,
                fen_gates: None,
            };
            check(&inst, outcome).map_err(|e| format!("{group} {hex}: {e}"))?;
            let fen_gates = match &fen {
                Some(fen) => {
                    let chain =
                        fen[i].chains.first().ok_or_else(|| format!("FEN left {hex} unsolved"))?;
                    oracle::chain_computes(chain, std::slice::from_ref(spec))
                        .map_err(|e| format!("FEN chain for {hex}: {e}"))?;
                    if chain.num_gates() != gates {
                        eprintln!(
                            "{group} {hex}: STP returns {gates} gates, FEN finds {}",
                            chain.num_gates()
                        );
                    }
                    chain.num_gates().to_string()
                }
                None => "-".to_string(),
            };
            println!(
                "{group}\t{}\t{hex}\t{gates}\t{}\t{fen_gates}",
                spec.num_vars(),
                outcome.num_solutions
            );
        }
    }
    Ok(())
}
