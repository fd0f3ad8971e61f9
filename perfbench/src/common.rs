//! Pieces every workload shares: the run report, order statistics,
//! process resource readings and the seeded generator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stp_telemetry::Json;

/// The counters recorded with every run. Each workload states which of
/// them the engine's contracts pin (see `METRICS.md`).
pub const FINGERPRINT: &[&str] = &[
    "factor.subproblems",
    "factor.memo_hits",
    "factor.charts_built",
    "synth.candidates",
    "solver.queries",
    "store.misses",
    "store.inserts",
    "tt.npn_canonicalizations",
];

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that timed out, errored, were refused, were lost or
    /// returned a wrong answer.
    pub failed: u64,
    /// Wrong answers and self-check failures (fingerprint drift, lost
    /// coverage); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Operations the program failed without answering (errors,
    /// timeouts, refusals, lost responses): counted in `failed` and
    /// reported, but not wrong answers.
    pub errors: Vec<String>,
    /// End-to-end metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: BTreeMap<String, f64>,
    /// The counter fingerprint of the timed phase.
    pub fingerprint: BTreeMap<String, u64>,
    /// The fingerprint counters the engine's contracts make repeat
    /// exactly for the same inputs.
    pub pinned: &'static [&'static str],
    /// Wall time of the timed phase.
    pub timed_wall: Duration,
    /// Process CPU time spent in the timed phase.
    pub timed_cpu: Duration,
    /// Free-form facts for the record line (sample counts, rates).
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            layers: BTreeMap::new(),
            fingerprint: BTreeMap::new(),
            pinned: FINGERPRINT,
            timed_wall: Duration::ZERO,
            timed_cpu: Duration::ZERO,
            notes: Vec::new(),
        }
    }

    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// `count` operations answered wrongly.
    pub fn wrong(&mut self, count: u64, message: String) {
        self.failed += count;
        self.problem(message);
    }

    /// `count` operations the program failed without answering.
    pub fn error(&mut self, count: u64, message: String) {
        self.failed += count;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// The run parameters every workload receives.
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub jobs: usize,
}

/// `q`-quantile (0..=1) of `samples` by the nearest-rank rule on a
/// sorted copy.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `q`-quantile (0 < q < 1) of `samples` by the Harrell–Davis
/// estimator: the mean of every order statistic weighted by the
/// Beta((n+1)q, (n+1)(1−q)) distribution's mass over its rank's share
/// of [0, 1]. Where the samples near the quantile are spread out, it
/// moves far less between runs than a single nearest-rank sample.
pub fn harrell_davis(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n as f64, a, b);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), on the side of `x` where it converges fast.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7, with reflection below 1/2).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let sum = C[1..].iter().enumerate().fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The median of a set of repeated measurements.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Checks that a tail percentile `q` keeps at least ten samples beyond
/// it, the rule `METRICS.md` states for every reported tail.
pub fn check_tail(out: &mut Outcome, what: &str, samples: usize, q: f64) {
    let beyond = samples as f64 * (1.0 - q);
    if beyond < 10.0 {
        out.problem(format!(
            "{what}: {samples} samples leave {beyond:.1} beyond p{}; need 10",
            q * 100.0
        ));
    }
}

/// A status-file field of this process, in kB (`VmHWM`, `VmRSS`).
fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far.
pub fn cpu_time() -> Duration {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; the field
    // list starts after the parenthesised command name.
    let ticks = std::fs::read_to_string("/proc/self/stat").ok().and_then(|stat| {
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        Some(utime + stime)
    });
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    Duration::from_millis(ticks.unwrap_or(0) * 10)
}

/// Wall times of repeated set-ups; `setup_s` is their median, so one
/// slow repetition does not move it. The host's speed drifts over
/// seconds, so each workload sets up before its timed phase, between
/// passes and after it, and the median spans them all.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    pub fn new() -> SetupTimes {
        SetupTimes(Vec::new())
    }

    /// Runs `f` `times` times, recording each wall time, and returns
    /// the last result.
    pub fn repeat<T>(&mut self, times: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..times {
            let start = Instant::now();
            last = Some(std::hint::black_box(f()));
            self.0.push(start.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up repetition")
    }

    /// Records one set-up measured by the caller.
    pub fn record(&mut self, wall: Duration) {
        self.0.push(wall.as_secs_f64());
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Every repetition's wall time, in milliseconds, in run order.
    pub fn samples_ms(&self) -> Json {
        Json::Arr(self.0.iter().map(|s| Json::Num(s * 1e3)).collect())
    }
}

/// A benchmark-owned probe of the host's speed: a fixed slice of work
/// (xorshift updates scattered over an 8 MiB table, so it waits on the
/// cache and memory the way the engine does) timed between a
/// workload's passes. Its median over a run, against the median the
/// same sampling gives on the reference host at its usual speed, is how
/// much slower the host ran; it calls no program code, so a change to
/// the program does not move it.
pub struct HostProbe {
    table: Vec<u64>,
    state: u64,
    reference_ms: f64,
    samples_ms: Vec<f64>,
}

impl HostProbe {
    const TABLE_WORDS: u64 = 1 << 20;
    const UPDATES: usize = 2_000_000;

    /// `reference_ms`: the median slice time on the reference host at
    /// its usual speed, sampled as the workload samples it.
    pub fn new(reference_ms: f64) -> HostProbe {
        HostProbe {
            table: (0..Self::TABLE_WORDS).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            reference_ms,
            samples_ms: Vec::new(),
        }
    }

    /// Times one slice.
    pub fn sample(&mut self) {
        let mask = self.table.len() - 1;
        let mut x = self.state;
        let start = Instant::now();
        for _ in 0..Self::UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.state = std::hint::black_box(x);
    }

    /// Median slice time ÷ the reference: above 1 when the host ran
    /// slower than the reference.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_ms) / self.reference_ms
    }

    /// Reports the time metrics of `unscaled` at the reference host's
    /// speed: times divided by the slowdown, rates (names ending in
    /// `_per_s`) multiplied by it. The measured figures, the slowdown
    /// and every slice time go into the record.
    pub fn report(&self, out: &mut Outcome, unscaled: &[(&'static str, f64)]) {
        let slowdown = self.slowdown();
        for &(name, value) in unscaled {
            let rate = name.ends_with("_per_s");
            out.metrics.insert(name, if rate { value * slowdown } else { value / slowdown });
        }
        let unscaled = unscaled.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect();
        out.notes.push(("unscaled", Json::Obj(unscaled)));
        out.notes.push(("host_slowdown", Json::Num(slowdown)));
        out.notes.push(("host_probe_ms", self.samples_ms()));
    }

    /// Every slice time, in milliseconds, in run order.
    pub fn samples_ms(&self) -> Json {
        Json::Arr(self.samples_ms.iter().map(|&ms| Json::Num(ms)).collect())
    }
}

/// Difference of two counter maps, restricted to `names`.
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    names: &[&str],
) -> BTreeMap<String, u64> {
    names
        .iter()
        .map(|name| {
            let a = after.get(*name).copied().unwrap_or(0);
            let b = before.get(*name).copied().unwrap_or(0);
            (name.to_string(), a.saturating_sub(b))
        })
        .collect()
}

/// The global counters right now.
pub fn global_counters() -> BTreeMap<String, u64> {
    stp_telemetry::metrics_global().snapshot().counters.into_iter().collect()
}

/// Every global counter's growth since `before`.
pub fn counters_since(before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    global_counters()
        .into_iter()
        .map(|(name, v)| {
            let delta = v.saturating_sub(before.get(&name).copied().unwrap_or(0));
            (name, delta)
        })
        .collect()
}

/// Sums `names` out of a per-instance counter map into `into`.
pub fn add_counters(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (name, value) in from {
        *into.entry(name.clone()).or_insert(0) += value;
    }
}

/// A tiny seeded generator (SplitMix64) for the benchmark's own
/// choices, so input generation does not depend on the engine's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
