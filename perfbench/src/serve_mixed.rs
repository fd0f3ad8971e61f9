//! `serve_mixed`: an in-process `stpd` driven open loop over loopback
//! at a fixed ladder of offered rates.
//!
//! The client is the benchmark's own. Each request has a due time on a
//! fixed schedule; it is sent at that time whatever the state of earlier
//! requests, its latency runs from the due time to the arrival of its
//! response, and how late the generator sent it is recorded. A stalled
//! server therefore shows in the latency of every request queued behind
//! the stall, not only the one it served slowly. One thread drives all
//! connections, and there are no more connections than CPUs.
//!
//! `BENCHMARK.json` leaves this workload out while `stpd`'s Nagle stall
//! makes its latency tail and throughput unsteady; `METRICS.md` gives
//! the figures. It runs by hand with the same command.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_bench::npn4;
use stp_network::{random_network, Network};
use stp_serve::{ServeConfig, Server};
use stp_telemetry::Json;
use stp_tt::{canonicalize_multi, NpnTransform, TruthTable};

use crate::common::{
    check_tail, counter_delta, counters_since, global_counters, peak_rss_mb, quantile, Outcome,
    Params, SetupTimes, SplitMix, FINGERPRINT,
};
use crate::{layers, oracle};

/// Offered rates of the ladder, requests per second over all
/// connections, lowest first. Every step runs. On the reference host
/// (2 CPUs) the steps from 3200 up miss the objective.
const LADDER: &[f64] = &[100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];
/// The rate at which `latency_p50_ms`, `latency_tail_ms`, `ok_ratio`
/// and the per-op tails are taken. `stpd` leaves Nagle's algorithm on,
/// so once a request takes longer than the per-connection send
/// interval, each later response on that connection waits for the
/// client's next request to carry the ACK of the one before (see
/// `METRICS.md`). Below about 400 req/s whether that stall starts
/// within a run depends on chance; at this rate it starts in every run.
const REFERENCE_RATE: f64 = 800.0;
/// A step meets the service objective when its p99 latency (from due
/// time) is at most this and the generator did not fall behind.
const SLO_P99_MS: f64 = 50.0;
/// Share of `--seconds` spent at the reference rate, and at each other
/// step.
const REFERENCE_SHARE: f64 = 0.7;
const STEP_SHARE: f64 = 0.05;
/// Mix of the timed requests, in draws per thousand: NPN-transformed
/// pool tables (store reads), never-seen 3-input two-output specs
/// (store writes; each is sent twice, so about one request in a
/// hundred) and small-network rewrites (the rest). No recorded traffic
/// backs these shares; they are an assumption (see `METRICS.md`).
const READ_PER_MILLE: usize = 970;
const WRITE_PER_MILLE: usize = 5;
/// Seed of the fixed order of the write classes.
const WRITE_CLASS_SEED: u64 = 0x7772_6974_6573; // "writes"
/// Small networks sent as `rewrite` frames (all warmed during set-up).
const BLIF_POOL: usize = 16;
const BLIF_POOL_SEED: u64 = 0x626c_6966; // "blif"
/// Tail percentile of `latency_tail_ms`.
const TAIL: f64 = 0.99;
/// Responses still missing this long after the last send are lost.
const DRAIN: Duration = Duration::from_secs(10);
/// Set-ups before the timed phase, and after it; `setup_s` is the
/// median of all of them.
const SETUP_BEFORE: usize = 2;
const SETUP_AFTER: usize = 1;
const PINGS: usize = 1000;
/// Longest sleep of the client's polling loop.
const POLL: Duration = Duration::from_micros(100);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Write,
    Rewrite,
}

/// One timed request and what a correct answer must compute.
struct Request {
    op: Op,
    line: String,
    tables: Vec<TruthTable>,
    /// For a rewrite: the frame's index in the pool, and its network.
    frame: Option<(usize, Network)>,
    /// The first request of a never-seen write class.
    fresh: bool,
}

/// The generated inputs of one run.
struct Inputs {
    pool: Vec<TruthTable>,
    blifs: Vec<(String, Network)>,
    requests: Vec<Request>,
    /// Gates before and after, per rewrite frame, as answered during
    /// set-up; every timed answer must repeat them.
    frame_gates: Vec<(usize, usize)>,
}

fn synth_line(id: usize, tables: &[TruthTable]) -> String {
    let hex: Vec<Json> = tables.iter().map(|t| Json::Str(t.to_hex())).collect();
    Json::obj(vec![
        ("op", Json::Str("synth".into())),
        ("id", Json::UInt(id as u64)),
        ("tables", Json::Arr(hex)),
        ("vars", Json::UInt(tables[0].num_vars() as u64)),
    ])
    .to_string()
}

fn rewrite_line(id: usize, blif: &str) -> String {
    Json::obj(vec![
        ("op", Json::Str("rewrite".into())),
        ("id", Json::UInt(id as u64)),
        ("blif", Json::Str(blif.to_string())),
    ])
    .to_string()
}

fn random_transform(rng: &mut SplitMix, n: usize) -> NpnTransform {
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    NpnTransform {
        perm,
        input_negations: (rng.next_u64() % (1 << n)) as u32,
        output_negated: rng.next_u64() & 1 == 1,
    }
}

/// How many requests the whole ladder sends.
fn total_requests(seconds: u64) -> usize {
    step_plan(seconds).iter().map(|(rate, secs)| (rate * secs).round() as usize).sum()
}

/// `(rate, seconds)` per ladder step.
fn step_plan(seconds: u64) -> Vec<(f64, f64)> {
    LADDER
        .iter()
        .map(|&rate| {
            let share = if rate == REFERENCE_RATE { REFERENCE_SHARE } else { STEP_SHARE };
            (rate, share * seconds as f64)
        })
        .collect()
}

fn inputs(seed: u64, seconds: u64) -> Result<Inputs, String> {
    let mut rng = SplitMix::new(seed, 0x5345_5256);
    // The 4-input pool: every NPN4 class that needs a gate, costly ones
    // included, each under a seeded NPN transform, in class order (so
    // the warm-up pairs the same classes on its connections every run).
    // Reads draw a class uniformly and send it under a further seeded
    // transform.
    let pool: Vec<TruthTable> = npn4()
        .functions
        .iter()
        .filter(|t| !t.is_trivial())
        .map(|rep| random_transform(&mut rng, 4).apply(rep).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    // The rewrite frames are a fixed pool, so `gate_ratio` (taken over
    // the pool's set-up answers) does not depend on the seed; the seed
    // picks the order.
    let mut net_rng = SmallRng::seed_from_u64(BLIF_POOL_SEED);
    let blifs: Vec<(String, Network)> = (0..BLIF_POOL)
        .map(|_| {
            let net = random_network(4, 6, 2, &mut net_rng).expect("random networks build");
            (net.to_blif("frame"), net)
        })
        .collect();

    // Writes: never-seen 3-input two-output classes, each sent twice in
    // a row so the two connections race on it (the coalescing path).
    // The classes come in one fixed order, so the solving work per run
    // does not depend on the seed; the seed picks where each write
    // falls and the NPN transform it is sent under.
    let total = total_requests(seconds);
    let mut seen = HashSet::new();
    let mut class_rng = SplitMix::new(WRITE_CLASS_SEED, 0);
    let mut fresh_class = |rng: &mut SplitMix| -> Result<Vec<TruthTable>, String> {
        for _ in 0..100_000 {
            let pair: Vec<TruthTable> = (0..2)
                .map(|_| TruthTable::from_u64(3, rng.next_u64() & 0xff).expect("3-input table"))
                .collect();
            if pair.iter().any(TruthTable::is_trivial) || pair[0] == pair[1] {
                continue;
            }
            let key: Vec<String> =
                canonicalize_multi(&pair).representatives.iter().map(TruthTable::to_hex).collect();
            if seen.insert(key) {
                return Ok(pair);
            }
        }
        Err(format!("ran out of 3-input two-output classes after {}", seen.len()))
    };

    let mut requests = Vec::with_capacity(total);
    let mut repeat_write: Option<Vec<TruthTable>> = None;
    for id in 0..total {
        let roll = rng.below(1000);
        let op = if repeat_write.is_some()
            || (READ_PER_MILLE..READ_PER_MILLE + WRITE_PER_MILLE).contains(&roll)
        {
            Op::Write
        } else if roll < READ_PER_MILLE {
            Op::Read
        } else {
            Op::Rewrite
        };
        let request = match op {
            Op::Read => {
                let rep = &pool[rng.below(pool.len())];
                let table = random_transform(&mut rng, 4).apply(rep).map_err(|e| e.to_string())?;
                Request {
                    op,
                    line: synth_line(id, std::slice::from_ref(&table)),
                    tables: vec![table],
                    frame: None,
                    fresh: false,
                }
            }
            Op::Write => {
                let fresh = repeat_write.is_none();
                let pair = match repeat_write.take() {
                    Some(pair) => pair,
                    None => {
                        let class = fresh_class(&mut class_rng)?;
                        let t = random_transform(&mut rng, 3);
                        let mut pair = class
                            .iter()
                            .map(|f| t.apply(f).map_err(|e| e.to_string()))
                            .collect::<Result<Vec<_>, _>>()?;
                        if rng.next_u64() & 1 == 1 {
                            pair.swap(0, 1);
                        }
                        repeat_write = Some(pair.clone());
                        pair
                    }
                };
                Request { op, line: synth_line(id, &pair), tables: pair, frame: None, fresh }
            }
            Op::Rewrite => {
                let k = rng.below(blifs.len());
                let (blif, net) = &blifs[k];
                Request {
                    op,
                    line: rewrite_line(id, blif),
                    tables: Vec::new(),
                    frame: Some((k, net.clone())),
                    fresh: false,
                }
            }
        };
        requests.push(request);
    }
    Ok(Inputs { pool, blifs, requests, frame_gates: Vec::new() })
}

/// A running in-process daemon.
struct Daemon {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<Result<stp_serve::ShutdownSummary, stp_serve::ServeError>>,
}

impl Daemon {
    fn start(jobs: usize) -> Result<Daemon, String> {
        let config = ServeConfig { capacity: 2 * jobs, jobs: 1, ..ServeConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle })
    }

    fn stop(self) -> Result<(), String> {
        let ack = call(self.addr, &[r#"{"op":"shutdown"}"#.to_string()])?;
        if ack[0].get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("shutdown refused: {}", ack[0]));
        }
        let summary = self.handle.join().map_err(|_| "server thread panicked".to_string())?;
        summary.map(|_| ()).map_err(|e| e.to_string())
    }
}

/// Sends `lines` one at a time on a fresh connection, closed loop, and
/// returns the parsed responses.
fn call(addr: SocketAddr, lines: &[String]) -> Result<Vec<Json>, String> {
    let mut conn = Conn::new(TcpStream::connect(addr).map_err(|e| e.to_string())?, false)?;
    lines
        .iter()
        .map(|line| {
            conn.send(line)?;
            let reply = conn.recv_blocking(Duration::from_secs(60))?;
            Json::parse(&reply).map_err(|e| format!("bad response: {e}"))
        })
        .collect()
}

/// A framed client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes queued for sending and not yet written.
    out: VecDeque<u8>,
    /// Bytes written so far.
    written: usize,
    /// Bytes queued so far.
    queued: usize,
    /// When the last bytes arrived: the arrival time of every line the
    /// last read completed.
    last_read: Instant,
}

impl Conn {
    /// A connection for the open-loop generator (`polled`: reads never
    /// block; a socket read timeout is rounded up to the kernel's
    /// scheduler tick, which would make the generator send late and
    /// quantize every latency) or for closed-loop calls (reads block
    /// until data arrives).
    fn new(stream: TcpStream, polled: bool) -> Result<Conn, String> {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(polled).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            out: VecDeque::new(),
            written: 0,
            queued: 0,
            last_read: Instant::now(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("send failed: connection closed".to_string()),
                Ok(n) => rest = &rest[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        Ok(())
    }

    /// Queues one frame for [`Conn::flush`]; returns the byte offset its
    /// end will have once written.
    fn queue(&mut self, line: &str) -> usize {
        self.out.extend(line.as_bytes());
        self.out.push_back(b'\n');
        self.queued += line.len() + 1;
        self.queued
    }

    /// Writes as much of the queued bytes as the socket takes without
    /// blocking; `true` when some were written.
    fn flush(&mut self) -> Result<bool, String> {
        let mut wrote = false;
        while !self.out.is_empty() {
            let (head, _) = self.out.as_slices();
            match self.stream.write(head) {
                Ok(0) => return Err("send failed: connection closed".to_string()),
                Ok(k) => {
                    self.out.drain(..k);
                    self.written += k;
                    wrote = true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    break;
                }
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        Ok(wrote)
    }

    /// Takes one complete line out of the buffer, if there is one.
    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }

    /// One read: `Ok(Some(bytes))`, `Ok(None)` when nothing arrived
    /// (before the read timeout, on a blocking socket), or an error on
    /// a closed connection.
    fn read_some(&mut self) -> Result<Option<usize>, String> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(n) => {
                self.last_read = Instant::now();
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Some(n))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    fn recv_blocking(&mut self, limit: Duration) -> Result<String, String> {
        self.stream.set_read_timeout(Some(limit)).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + limit;
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            if Instant::now() >= deadline {
                return Err("no response".to_string());
            }
            self.read_some()?;
        }
    }
}

/// What the client saw for one request.
#[derive(Clone, Default)]
struct Sample {
    /// Generator lateness: send time minus due time.
    late: Duration,
    /// Due time to response arrival; `None` when no response came.
    latency: Option<Duration>,
    response: Option<String>,
}

/// One ladder step's results, in request order.
struct Step {
    rate: f64,
    first: usize,
    samples: Vec<Sample>,
    elapsed: Duration,
}

impl Step {
    fn latencies_ms(&self, reqs: &[Request], op: Option<Op>) -> Vec<f64> {
        self.samples
            .iter()
            .enumerate()
            .filter(|(i, _)| op.is_none_or(|op| reqs[self.first + i].op == op))
            .map(|(_, s)| s.latency.map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3))
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect()
    }

    /// The generator fell behind when, over the last tenth of the
    /// step, it sent typically more than one per-connection interval
    /// late: a backlog of unsent requests had built up.
    fn fell_behind(&self, conns: usize) -> bool {
        let late = self.late_ms();
        let tail = &late[late.len() - late.len() / 10..];
        quantile(tail, 0.5) > 1e3 * conns as f64 / self.rate
    }

    fn meets_slo(&self, reqs: &[Request], conns: usize) -> bool {
        quantile(&self.latencies_ms(reqs, None), 0.99) <= SLO_P99_MS && !self.fell_behind(conns)
    }

    /// Responses with status `ok` per second of the step.
    fn achieved_rps(&self) -> f64 {
        let ok =
            self.samples.iter().filter(|s| s.response.as_deref().map(status) == Some("ok".into()));
        ok.count() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs one step: requests `first..first + n` at `rate`, request `i`
/// due at `i / rate` after the start and sent round robin over `conns`
/// connections. One thread drives every connection: it queues what is
/// due, writes what each socket takes without blocking, stamps what has
/// arrived, and sleeps at most [`POLL`] between rounds. It never blocks
/// on a send, so it keeps reading while a saturated server is slow to
/// read.
fn run_step(
    addr: SocketAddr,
    reqs: &[Request],
    first: usize,
    n: usize,
    rate: f64,
    conns: usize,
) -> Result<Step, String> {
    let mut links: Vec<Conn> = (0..conns)
        .map(|_| Conn::new(TcpStream::connect(addr).map_err(|e| e.to_string())?, true))
        .collect::<Result<_, String>>()?;
    // Per connection: requests awaiting a response, and requests whose
    // bytes are not all written yet, with the offset their frame ends at.
    let mut queued: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns];
    let mut unsent: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); conns];
    let mut samples = vec![Sample::default(); n];
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval * i as u32;
    let (mut sent, mut received) = (0usize, 0usize);
    let mut drain_deadline: Option<Instant> = None;
    while received < n {
        let now = Instant::now();
        while sent < n && due(sent) <= now {
            let c = sent % conns;
            let end = links[c].queue(&reqs[first + sent].line);
            unsent[c].push_back((sent, end));
            queued[c].push_back(sent);
            sent += 1;
        }
        let mut progressed = false;
        for ((link, queue), unsent) in links.iter_mut().zip(&mut queued).zip(&mut unsent) {
            if link.flush()? {
                progressed = true;
                let now = Instant::now();
                while let Some(&(i, end)) = unsent.front() {
                    if end > link.written {
                        break;
                    }
                    samples[i].late = now.saturating_duration_since(due(i));
                    unsent.pop_front();
                }
            }
            if queue.is_empty() || link.read_some()?.is_none() {
                continue;
            }
            progressed = true;
            while let Some(line) = link.take_line() {
                let Some(i) = queue.pop_front() else { break };
                samples[i].latency = Some(link.last_read.saturating_duration_since(due(i)));
                samples[i].response = Some(line);
                received += 1;
            }
        }
        if received == n || progressed {
            continue;
        }
        let wait = if sent < n {
            due(sent).saturating_duration_since(Instant::now())
        } else {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                break;
            }
            deadline - Instant::now()
        };
        std::thread::sleep(wait.min(POLL));
    }
    let elapsed = start.elapsed();
    Ok(Step { rate, first, samples, elapsed })
}

/// The `status` a response leads with (`?` when it has none).
fn status(response: &str) -> String {
    Json::parse(response)
        .ok()
        .and_then(|j| j.get("status").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| "?".to_string())
}

/// Checks one response against its request. `Ok(gates before, after)`
/// for rewrites.
fn verify(req: &Request, response: &str) -> Result<Option<(usize, usize)>, String> {
    let resp = Json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
    match req.op {
        Op::Read | Op::Write => {
            let text = resp.get("chain").and_then(Json::as_str).ok_or("no chain")?;
            let chain = oracle::parse_chain(text, req.tables[0].num_vars())?;
            oracle::chain_computes(&chain, &req.tables)?;
            Ok(None)
        }
        Op::Rewrite => {
            let blif = resp.get("blif").and_then(Json::as_str).ok_or("no blif")?;
            let got = Network::from_blif(blif).map_err(|e| format!("bad BLIF back: {e}"))?;
            let (_, want) = req.frame.as_ref().expect("rewrite requests carry their network");
            oracle::networks_equivalent(want, &got)?;
            let (before, after) = (want.live_gate_count(), got.live_gate_count());
            if after > before {
                return Err(format!("rewrite grew the network from {before} to {after} gates"));
            }
            Ok(Some((before, after)))
        }
    }
}

/// `serve.*` counters through the daemon's own `stats` op.
fn stats(addr: SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let resp = call(addr, &[r#"{"op":"stats"}"#.to_string()])?;
    let counters =
        resp[0].get("counters").and_then(Json::as_obj).ok_or("stats without counters")?;
    Ok(counters.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect())
}

/// Set-up: generate the inputs, start a daemon, send every pool class
/// once, spread over the client's connections, and then every rewrite
/// frame once. Returns the pinned counters the set-up moved, which
/// repeat exactly from one set-up to the next.
fn set_up(p: &Params, conns: usize) -> Result<(Inputs, Daemon, BTreeMap<String, u64>), String> {
    let before = global_counters();
    let mut inputs = inputs(p.seed, p.seconds)?;
    let daemon = Daemon::start(p.jobs)?;
    let addr = daemon.addr;
    let lines: Vec<String> = inputs
        .pool
        .iter()
        .enumerate()
        .map(|(i, t)| synth_line(i, std::slice::from_ref(t)))
        .collect();
    let mut responses: Vec<Json> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<String> = lines.iter().skip(c).step_by(conns).cloned().collect();
                scope.spawn(move || call(addr, &mine))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "warm-up thread panicked".to_string())?)
            .collect::<Result<Vec<Vec<Json>>, String>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    let frames: Vec<String> =
        inputs.blifs.iter().enumerate().map(|(i, (blif, _))| rewrite_line(i, blif)).collect();
    responses.extend(call(addr, &frames)?);
    for resp in responses {
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("warm-up request failed: {resp}"));
        }
        let gates = |key: &str| resp.get(key).and_then(Json::as_u64).map(|g| g as usize);
        if let (Some(before), Some(after)) = (gates("gates_before"), gates("gates_after")) {
            inputs.frame_gates.push((before, after));
        }
    }
    if inputs.frame_gates.len() != inputs.blifs.len() {
        return Err("a warm-up rewrite answered without gate counts".to_string());
    }
    let print = counter_delta(&before, &global_counters(), FINGERPRINT);
    Ok((inputs, daemon, print))
}

/// Runs one timed set-up and records its wall time and counters; the
/// daemon of an earlier set-up is stopped first, outside the timing.
fn timed_set_up(
    p: &Params,
    conns: usize,
    setup: &mut SetupTimes,
    prints: &mut Vec<BTreeMap<String, u64>>,
    earlier: Option<Daemon>,
) -> Result<(Inputs, Daemon), String> {
    if let Some(earlier) = earlier {
        earlier.stop()?;
    }
    let start = Instant::now();
    let (inputs, daemon, print) = set_up(p, conns)?;
    setup.record(start.elapsed());
    prints.push(print);
    Ok((inputs, daemon))
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let conns = p.jobs.max(1);
    let mut setup = SetupTimes::new();
    let mut setup_prints = Vec::new();
    let mut state: Option<(Inputs, Daemon)> = None;
    for _ in 0..SETUP_BEFORE {
        let earlier = state.take().map(|(_, daemon)| daemon);
        state = Some(timed_set_up(p, conns, &mut setup, &mut setup_prints, earlier)?);
    }
    let (inputs, daemon) = state.expect("at least one set-up");
    let reqs = &inputs.requests;

    let stats0 = stats(daemon.addr)?;
    let counters0 = global_counters();
    let cpu0 = crate::common::cpu_time();
    let trace = layers::Trace::start(p.traced);
    let wall_start = Instant::now();
    let mut steps: Vec<Step> = Vec::new();
    // The counters of the reference step, which every run sends in full.
    let mut reference_print = BTreeMap::new();
    {
        let _root = stp_telemetry::Span::enter("bench.serve_mixed");
        let mut first = 0;
        for (rate, secs) in step_plan(p.seconds) {
            let n = (rate * secs).round() as usize;
            let before = global_counters();
            let step = run_step(daemon.addr, reqs, first, n, rate, conns)?;
            if rate == REFERENCE_RATE {
                reference_print = counter_delta(&before, &global_counters(), FINGERPRINT);
            }
            first += n;
            steps.push(step);
        }
    }
    out.timed_wall = wall_start.elapsed();
    out.timed_cpu = crate::common::cpu_time().saturating_sub(cpu0);
    let peak_rss = peak_rss_mb();
    let profile = trace.finish();
    let counters = counters_since(&counters0);
    out.fingerprint = reference_print;
    let serve_counters = counter_delta(
        &stats0,
        &stats(daemon.addr)?,
        &["serve.accepted", "serve.rejected_overload", "serve.coalesced", "serve.timeouts"],
    );

    // The oracle, outside the timed phase.
    let mut reference_failed = 0u64;
    let mut reference_attempted = 0u64;
    for step in &steps {
        for (i, s) in step.samples.iter().enumerate() {
            let req = &reqs[step.first + i];
            let what = format!("request {}", step.first + i);
            if step.rate == REFERENCE_RATE {
                reference_attempted += 1;
            }
            let failed_before = out.failed;
            match s.response.as_deref().map(|r| (r, status(r))) {
                None => out.error(1, format!("{what}: lost: no response")),
                Some((r, status)) if status != "ok" => {
                    out.error(1, format!("{what}: status {status}: {r}"))
                }
                Some((r, _)) => {
                    let verdict = verify(req, r).and_then(|gates| match (gates, &req.frame) {
                        (Some(gates), Some((k, _))) if gates != inputs.frame_gates[*k] => {
                            Err(format!(
                                "frame {k} rewrote to {gates:?} gates, {:?} during set-up",
                                inputs.frame_gates[*k]
                            ))
                        }
                        _ => Ok(()),
                    });
                    if let Err(e) = verdict {
                        out.wrong(1, format!("{what}: {e}"));
                    }
                }
            }
            if step.rate == REFERENCE_RATE {
                reference_failed += out.failed - failed_before;
            }
            out.attempted += 1;
        }
    }
    let mut earlier = Some(daemon);
    for _ in 0..SETUP_AFTER {
        let (_, daemon) = timed_set_up(p, conns, &mut setup, &mut setup_prints, earlier.take())?;
        earlier = Some(daemon);
    }
    if let Some(daemon) = earlier {
        daemon.stop()?;
    }
    if setup_prints.iter().any(|print| print != &setup_prints[0]) {
        out.problem(format!("set-up counters differ between set-ups: {setup_prints:?}"));
    }

    let reference = steps
        .iter()
        .find(|s| s.rate == REFERENCE_RATE)
        .ok_or("the ladder stopped before the reference rate")?;
    // Each never-seen write class misses the store once, when its first
    // request arrives; its repeat coalesces or hits.
    let sent = &reqs[reference.first..reference.first + reference.samples.len()];
    let fresh = sent.iter().filter(|r| r.fresh).count() as u64;
    for name in ["store.misses", "store.inserts"] {
        let got = out.fingerprint.get(name).copied().unwrap_or(0);
        if got != fresh {
            out.problem(format!(
                "{name} is {got} at the reference rate, not the {fresh} new write classes sent"
            ));
        }
    }
    let ref_lat = reference.latencies_ms(reqs, None);
    check_tail(&mut out, "serve latency at the reference rate", ref_lat.len(), TAIL);
    // The highest step of the run of steps, from the reference rate up,
    // that meet the objective; its `ok` responses per second are the
    // throughput. When even the reference step misses, the lowest step
    // stands in and the record says so.
    let max_step = steps
        .iter()
        .filter(|s| s.rate >= REFERENCE_RATE)
        .take_while(|s| s.meets_slo(reqs, conns))
        .last();
    if max_step.is_none() {
        out.notes.push(("reference_step_meets_slo", Json::Bool(false)));
    }
    let max_step = max_step.unwrap_or(&steps[0]);
    out.metrics.insert("setup_s", setup.median());
    out.notes.push(("setup_ms", setup.samples_ms()));
    out.metrics.insert(
        "ok_ratio",
        (reference_attempted - reference_failed) as f64 / reference_attempted.max(1) as f64,
    );
    out.metrics.insert("throughput_per_s", max_step.achieved_rps());
    out.metrics.insert("latency_p50_ms", quantile(&ref_lat, 0.5));
    out.metrics.insert("latency_tail_ms", quantile(&ref_lat, TAIL));
    let (before, after) =
        inputs.frame_gates.iter().fold((0, 0), |(b, a), (fb, fa)| (b + fb, a + fa));
    out.metrics.insert("gate_ratio", after as f64 / before.max(1) as f64);
    out.metrics.insert("peak_rss_mb", peak_rss);
    out.notes.push(("reference_rate", Json::Num(REFERENCE_RATE)));
    out.notes.push(("reference_samples", Json::UInt(ref_lat.len() as u64)));
    out.notes.push(("tail_percentile", Json::UInt(99)));
    out.notes.push(("reference_p95_ms", Json::Num(quantile(&ref_lat, 0.95))));
    out.notes.push(("reference_p999_ms", Json::Num(quantile(&ref_lat, 0.999))));
    out.notes.push((
        "reference_by_op",
        Json::obj(
            [("read", Op::Read), ("write", Op::Write), ("rewrite", Op::Rewrite)]
                .into_iter()
                .map(|(name, op)| {
                    let lat = reference.latencies_ms(reqs, Some(op));
                    let row = Json::obj(vec![
                        ("requests", Json::UInt(lat.len() as u64)),
                        ("p50_ms", Json::Num(quantile(&lat, 0.5))),
                        ("p99_ms", Json::Num(quantile(&lat, 0.99))),
                    ]);
                    (name, row)
                })
                .collect(),
        ),
    ));
    out.notes.push(("max_rate_step", Json::Num(max_step.rate)));
    out.notes.push((
        "ladder",
        Json::Arr(
            steps
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("rate", Json::Num(s.rate)),
                        ("requests", Json::UInt(s.samples.len() as u64)),
                        ("p50_ms", Json::Num(quantile(&s.latencies_ms(reqs, None), 0.5))),
                        ("p99_ms", Json::Num(quantile(&s.latencies_ms(reqs, None), 0.99))),
                        ("gen_late_p99_ms", Json::Num(quantile(&s.late_ms(), 0.99))),
                        ("achieved_rps", Json::Num(s.achieved_rps())),
                        ("fell_behind", Json::Bool(s.fell_behind(conns))),
                        ("meets_slo", Json::Bool(s.meets_slo(reqs, conns))),
                    ])
                })
                .collect(),
        ),
    ));

    if let Some(profile) = profile {
        let mut extra: BTreeMap<String, f64> =
            serve_counters.iter().map(|(k, v)| (k.clone(), *v as f64)).collect();
        for (name, op) in [
            ("serve.synth_p99_ms", Op::Read),
            ("serve.multi_p99_ms", Op::Write),
            ("serve.rewrite_p99_ms", Op::Rewrite),
        ] {
            extra.insert(name.to_string(), quantile(&reference.latencies_ms(reqs, Some(op)), 0.99));
        }
        extra.insert("serve.gen_late_p99_ms".to_string(), quantile(&reference.late_ms(), 0.99));
        let (p50, p99) = ping_rtt_us(p)?;
        extra.insert("serve.ping_rtt_p50_us".to_string(), p50);
        extra.insert("serve.ping_rtt_p99_us".to_string(), p99);
        extra.insert("serve.parse_us".to_string(), parse_us(reqs));
        out.layers =
            layers::layer_metrics(&profile, &counters, extra, out.timed_wall, &mut out.problems);
    }
    Ok(out)
}

/// Round-trip time of `ping` on an idle daemon: the wire floor.
fn ping_rtt_us(p: &Params) -> Result<(f64, f64), String> {
    let daemon = Daemon::start(p.jobs)?;
    let mut conn = Conn::new(TcpStream::connect(daemon.addr).map_err(|e| e.to_string())?, false)?;
    let mut rtt = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.send(r#"{"op":"ping"}"#)?;
        conn.recv_blocking(Duration::from_secs(5))?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    daemon.stop()?;
    Ok((quantile(&rtt, 0.5), quantile(&rtt, 0.99)))
}

/// Mean time of the daemon's request parser over the timed request
/// lines, called directly.
fn parse_us(reqs: &[Request]) -> f64 {
    let start = Instant::now();
    for req in reqs {
        std::hint::black_box(stp_serve::parse_request(std::hint::black_box(&req.line)).is_ok());
    }
    start.elapsed().as_secs_f64() * 1e6 / reqs.len().max(1) as f64
}
