//! STP-based matrix factorization of canonical forms over DAG
//! topologies (§III-B of the paper).
//!
//! The paper decomposes the canonical form `M_Φ` of the target function
//! by repeatedly splitting it into "quartering parts": `M_Φ` factors
//! through a 2-input top gate iff the quartered matrix has at most **two
//! unique parts** per axis (Examples 5–6), with the power-reducing
//! matrix `M_r` admitting repeated variables (Property 3) and the swap
//! matrix `M_w` admitting arbitrary variable orders (Property 4).
//!
//! This module implements that factorization in its equivalent
//! column-grouping form (see `DESIGN.md`, *Semantics fixed for this
//! implementation*):
//!
//! * a candidate split partitions the support into `A` (exclusive to the
//!   left operand), `B` (exclusive to the right operand) and `S`
//!   (shared — the `M_r` case); enumerating all splits plays the role of
//!   the swap matrices;
//! * for each assignment of the shared variables, the decomposition
//!   chart must have at most two distinct row patterns and two distinct
//!   column patterns — the "two unique quartering parts" test; shared
//!   assignments contribute the `x` don't-care entries of Property 3;
//! * every consistent 2-labelling yields one candidate operand pair, so
//!   **all** factorizations are produced (the paper's one-pass AllSAT
//!   over solutions — Example 5 finds exactly two).
//!
//! The recursion walks a [`TreeShape`]; reconvergence enters through
//! shared primary inputs, which is precisely the reach of the paper's
//! `M_r`/`M_w` calculus.
//!
//! # Word-level kernel
//!
//! The inner loops run on one word-level body,
//! [`Factorizer::factor_split_words`] (see `DESIGN.md`, *Word-level
//! factorization kernels*). The spec is compacted onto the split's
//! variable order with the `stp-tt` kernel primitives, so every
//! decomposition chart is a contiguous power-of-two-aligned bit field,
//! patterns and labellings are masks of `L` words, the two-pattern test
//! and the consistency check are mask algebra, and candidate operands
//! are scattered word-level into stack buffers: the split/combination
//! loops never allocate. The body has two instances: one word per chart
//! for specs of at most [`FAST_MAX_VARS`] inputs with `|A| + |B| ≤ 6`
//! and `|S| ≤ 6`, four words per chart up to [`WIDE_MAX_VARS`] inputs
//! with `|A| + |B| ≤ 8` and `|S| ≤ 8`. Larger splits fall back to the
//! original scalar implementation ([`Factorizer::factor_split_naive`],
//! also the reference the fuzz tests pin the kernel against). All paths
//! enumerate candidates in the same order and share the same dedup
//! key, so the produced chains, their order, and the counters are
//! identical.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use stp_chain::{Chain, OutputRef};
use stp_fence::TreeShape;
use stp_tt::kernel;
use stp_tt::TruthTable;

use crate::error::SynthesisError;

/// Specs up to this arity use the one-word instance of
/// [`Factorizer::factor_split_words`] when the split fits
/// `|A| + |B| ≤ 6` and `|S| ≤ 6` (all suite workloads top out at 8
/// variables; a table then spans ≤ [`FAST_WORDS`] words, a chart cell
/// block fits one `u64`, and the shared-assignment loop stays
/// ≤ [`FAST_SHARED`] entries).
const FAST_MAX_VARS: usize = 8;

/// Packed words of a [`FAST_MAX_VARS`]-input table (`2^8 / 64`).
const FAST_WORDS: usize = 4;

/// Maximum shared assignments on the one-word instance (`2^6`).
const FAST_SHARED: usize = 64;

/// Specs up to this arity use the four-word instance of
/// [`Factorizer::factor_split_words`] when the split fits
/// `|A| + |B| ≤ 8` and `|S| ≤ 8`: the compact spec spans at most
/// [`WIDE_WORDS`] words, a chart cell block fits `[u64; 4]`, and the
/// shared-assignment loop stays ≤ [`WIDE_SHARED`] entries.
const WIDE_MAX_VARS: usize = 12;

/// Packed words of a [`WIDE_MAX_VARS`]-input table (`2^12 / 64`).
const WIDE_WORDS: usize = 64;

/// Maximum shared assignments on the four-word instance (`2^8`).
const WIDE_SHARED: usize = 256;

/// One deadline poll (`Instant::now()`) per this many checkpoint calls;
/// the cancel flag is still read on every call, so cooperative
/// cancellation stays prompt while the search loop stops paying for a
/// clock read per split/combination.
const DEADLINE_POLL_MASK: u32 = 1024 - 1;

/// One memo probe in this many is timed and extrapolated into the
/// `factor.memo_probe_ns` counter.
const PROBE_SAMPLE: u32 = 256;

/// Configuration for the factorization engine.
#[derive(Debug, Clone)]
pub struct FactorConfig {
    /// Cap on realizations materialized per (function, shape) node; the
    /// engine still proves realizability beyond the cap but stops
    /// enumerating. The paper's suites average between 12 and 192
    /// solutions per instance, well under the default of 4096.
    pub max_realizations: usize,
    /// Optional wall-clock deadline; factorization aborts with
    /// [`SynthesisError::Timeout`] once it passes.
    pub deadline: Option<Instant>,
    /// Optional cooperative cancellation flag, shared with the parallel
    /// search driver: once set, the engine aborts at its next deadline
    /// checkpoint (reported as [`SynthesisError::Timeout`], which the
    /// driver reinterprets — see `parallel.rs`).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Optional *external* kill switch, distinct from `cancel`: the
    /// search driver re-arms `cancel` every gate-count round (it doubles
    /// as the solution-cap brake), so a host that needs to revoke a
    /// whole synthesis run — e.g. `stpd` cancelling in-flight requests
    /// at its drain deadline — hands the same `abort` flag to every
    /// round. Once set it is never cleared by the engine; the next
    /// deadline checkpoint reports [`SynthesisError::Timeout`].
    pub abort: Option<Arc<AtomicBool>>,
    /// Differential-test knob: route every split through the scalar
    /// reference implementation ([`Factorizer::factor_split_naive`])
    /// instead of the word-level kernel. The differential
    /// suites compare a forced-naive engine against the default one;
    /// production callers leave this `false`.
    pub force_naive: bool,
}

impl Default for FactorConfig {
    fn default() -> Self {
        FactorConfig {
            max_realizations: 4096,
            deadline: None,
            cancel: None,
            abort: None,
            force_naive: false,
        }
    }
}

/// A realization of a function on a tree shape: leaves carry primary
/// input indices, internal nodes carry 4-bit gate truth tables.
///
/// Subtrees are shared through [`Arc`] (not `Rc`) so a [`Factorizer`]
/// — and the realization forests inside its memo table — can move
/// between the worker threads of the parallel search driver.
#[derive(Debug, PartialEq, Eq, Hash)]
enum RealTree {
    Leaf(usize),
    Node(u8, Arc<RealTree>, Arc<RealTree>),
}

/// Dedup key for a candidate `(g, h1, h2)` triple within one
/// factorization node: the same triple can surface under several
/// splits, so keys are full operand tables — inline arrays on the ≤ 8
/// variable path (no heap traffic in the combination loop), owned words
/// beyond that.
#[derive(Debug, PartialEq, Eq, Hash)]
enum SeenKey {
    Small(u8, [u64; 4], [u64; 4]),
    Big(u8, Vec<u64>, Vec<u64>),
}

/// The one dedup key of every split path: `f1`/`f2` are the operand
/// tables' packed words at arity `n`.
fn seen_key(g: u8, f1: &[u64], f2: &[u64], n: usize) -> SeenKey {
    if n <= FAST_MAX_VARS {
        let mut w1 = [0u64; 4];
        w1[..f1.len()].copy_from_slice(f1);
        let mut w2 = [0u64; 4];
        w2[..f2.len()].copy_from_slice(f2);
        SeenKey::Small(g, w1, w2)
    } else {
        SeenKey::Big(g, f1.to_vec(), f2.to_vec())
    }
}

/// Initial slot-array capacity of a [`MemoTable`] (a power of two).
const MEMO_INITIAL_SLOTS: usize = 64;

/// One slot of the packed memo table: the spec words inline, the arity
/// (the same words encode different functions at different arities),
/// and the realization forest. `val.is_some()` doubles as the
/// occupancy flag.
#[derive(Debug, Clone)]
struct MemoSlot {
    key: [u64; 4],
    num_vars: u8,
    val: Option<Arc<Vec<Arc<RealTree>>>>,
}

const EMPTY_SLOT: MemoSlot = MemoSlot { key: [0; 4], num_vars: 0, val: None };

/// Fixed multiply-xor mix (the 64-bit finalizer of MurmurHash3, folded
/// over the key words). Deterministic across runs and processes —
/// unlike `RandomState` — so probe sequences, and therefore timing,
/// reproduce exactly.
fn memo_hash(key: &[u64; 4], num_vars: u8) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ num_vars as u64;
    for &w in key {
        h = (h ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    h
}

/// Packs a ≤ [`FAST_MAX_VARS`]-input table into an inline slot key.
fn pack_key(h: &TruthTable) -> [u64; 4] {
    let mut key = [0u64; 4];
    key[..h.words().len()].copy_from_slice(h.words());
    key
}

/// Per-shape memo table: a packed open-addressing slot array with
/// inline `[u64; 4]` keys for specs of at most [`FAST_MAX_VARS`]
/// inputs, plus a conventional spill map for wider specs.
///
/// The previous design was `HashMap<TruthTable, Arc<_>>`: every probe
/// paid SipHash over a heap-allocated key, and every entry carried a
/// `TruthTable` (a `Vec` header plus a separate word allocation). The
/// full NPN4 run does 16.7M probes, all at arity ≤ 8 — inlining the
/// key words into the slot makes a probe one multiply-xor hash plus a
/// linear scan of cache-resident 48-byte slots, and an entry costs
/// exactly one slot (amortized ⁸⁄₇ under the 7/8 load cap) plus its
/// forest `Arc`.
#[derive(Debug, Default)]
struct MemoTable {
    slots: Vec<MemoSlot>,
    /// Occupied slots (packed entries only; the spill map tracks its
    /// own length).
    len: usize,
    spill: HashMap<TruthTable, Arc<Vec<Arc<RealTree>>>>,
}

impl MemoTable {
    /// Probes for `h`, cloning out the forest on a hit.
    fn get(&self, h: &TruthTable) -> Option<Arc<Vec<Arc<RealTree>>>> {
        if h.num_vars() > FAST_MAX_VARS {
            return self.spill.get(h).map(Arc::clone);
        }
        if self.slots.is_empty() {
            return None;
        }
        let key = pack_key(h);
        let nv = h.num_vars() as u8;
        let mask = self.slots.len() - 1;
        let mut i = memo_hash(&key, nv) as usize & mask;
        loop {
            let slot = &self.slots[i];
            match &slot.val {
                None => return None,
                Some(val) if slot.key == key && slot.num_vars == nv => {
                    return Some(Arc::clone(val));
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts (or replaces) `h`'s forest, returning how many bytes of
    /// slot storage the insert newly allocated (nonzero only when the
    /// table grew).
    fn insert(&mut self, h: &TruthTable, val: Arc<Vec<Arc<RealTree>>>) -> u64 {
        if h.num_vars() > FAST_MAX_VARS {
            self.spill.insert(h.clone(), val);
            return 0;
        }
        // Grow before probing so the insert scan always finds a free
        // slot; ×8/7 keeps the load factor at most 7/8.
        let grown = if (self.len + 1) * 8 > self.slots.len() * 7 { self.grow() } else { 0 };
        let key = pack_key(h);
        let nv = h.num_vars() as u8;
        let mask = self.slots.len() - 1;
        let mut i = memo_hash(&key, nv) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            match &slot.val {
                None => {
                    *slot = MemoSlot { key, num_vars: nv, val: Some(val) };
                    self.len += 1;
                    return grown;
                }
                Some(_) if slot.key == key && slot.num_vars == nv => {
                    slot.val = Some(val);
                    return grown;
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slot array (or allocates the initial one) and
    /// rehashes every occupied slot; returns the newly allocated bytes.
    fn grow(&mut self) -> u64 {
        let new_cap = if self.slots.is_empty() { MEMO_INITIAL_SLOTS } else { self.slots.len() * 2 };
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        let mask = new_cap - 1;
        let old_cap = old.len();
        for slot in old.into_iter().filter(|s| s.val.is_some()) {
            let mut i = memo_hash(&slot.key, slot.num_vars) as usize & mask;
            while self.slots[i].val.is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
        ((new_cap - old_cap) * std::mem::size_of::<MemoSlot>()) as u64
    }

    /// Entries stored (packed plus spilled).
    #[cfg(test)]
    fn entries(&self) -> u64 {
        (self.len + self.spill.len()) as u64
    }
}

/// The factorization engine with its memo table.
///
/// One engine instance should be reused across the shapes explored for a
/// single specification: sub-function factorizations recur constantly
/// (that reuse is a large part of the paper's speed on DSD-structured
/// functions).
///
/// Shapes are interned to dense ids and the memo is a per-shape
/// [`MemoTable`] keyed by the table words alone, so a probe neither
/// allocates nor chases a heap key (the previous design cloned the
/// spec words *and* the shape per call just to build the lookup key,
/// and kept a heap `TruthTable` per entry).
#[derive(Debug)]
pub struct Factorizer {
    config: FactorConfig,
    shape_ids: HashMap<TreeShape, u32>,
    memo: Vec<MemoTable>,
    /// Number of factorization nodes explored (for the harness).
    nodes_explored: u64,
    /// Number of memo-table hits across [`Factorizer::realize`] calls.
    memo_hits: u64,
    /// Number of decomposition charts materialized (word-level or naive
    /// path).
    charts_built: u64,
    /// Sampled nanoseconds spent probing the memo (one probe in
    /// [`PROBE_SAMPLE`] is timed and extrapolated).
    memo_probe_ns: u64,
    /// Bytes of packed memo slot storage currently allocated
    /// (monotonic: slot arrays only grow).
    memo_bytes: u64,
    /// Entries resident across the per-shape memo tables.
    memo_entries: u64,
    probe_tick: u32,
    poll_tick: u32,
}

impl Factorizer {
    /// Creates an engine with the given configuration.
    pub fn new(config: FactorConfig) -> Self {
        Factorizer {
            config,
            shape_ids: HashMap::new(),
            memo: Vec::new(),
            nodes_explored: 0,
            memo_hits: 0,
            charts_built: 0,
            memo_probe_ns: 0,
            memo_bytes: 0,
            memo_entries: 0,
            probe_tick: 0,
            poll_tick: 0,
        }
    }

    /// Number of (function, shape) factorization subproblems examined.
    pub fn nodes_explored(&self) -> u64 {
        self.nodes_explored
    }

    /// Number of memo-table hits (subproblems answered without search).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Number of decomposition charts built across every split path —
    /// identical between the word-level and naive routes, so the
    /// differential suites pin it as a search-shape fingerprint.
    pub fn charts_built(&self) -> u64 {
        self.charts_built
    }

    /// Enumerates every chain realizing `spec` on the given tree shape
    /// (all leaf-to-PI bindings and all gate assignments), up to the
    /// configured cap.
    ///
    /// The returned chains use only operators that depend on both
    /// fanins; callers are expected to verify them with the circuit
    /// solver (the paper's step iv).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Timeout`] when the configured deadline
    /// expires mid-search.
    pub fn chains_on_shape(
        &mut self,
        spec: &TruthTable,
        shape: &TreeShape,
    ) -> Result<Vec<Chain>, SynthesisError> {
        let support_len = spec.support_mask().count_ones() as usize;
        if support_len > shape.leaf_count() || support_len < 2 {
            // Trivial specs (constants, literals) need no gates and are
            // handled by the synthesis driver, not by factorization.
            return Ok(Vec::new());
        }
        let nodes_before = self.nodes_explored;
        let hits_before = self.memo_hits;
        let charts_before = self.charts_built;
        let probe_before = self.memo_probe_ns;
        let bytes_before = self.memo_bytes;
        let entries_before = self.memo_entries;
        let result = self.realize(spec, shape);
        // Flush this call's exploration to the global metrics (batched —
        // the recursion itself touches only the engine-local tallies).
        // The flush runs on the thread that drove the search, so every
        // delta — including the sampled `factor.memo_probe_ns` and the
        // `factor.memo_bytes` growth — lands in that worker's
        // `CounterScope`, not just the global registry.
        stp_telemetry::counter!("factor.subproblems").add(self.nodes_explored - nodes_before);
        stp_telemetry::counter!("factor.memo_hits").add(self.memo_hits - hits_before);
        stp_telemetry::counter!("factor.charts_built").add(self.charts_built - charts_before);
        stp_telemetry::counter!("factor.memo_probe_ns").add(self.memo_probe_ns - probe_before);
        stp_telemetry::counter!("factor.memo_bytes").add(self.memo_bytes - bytes_before);
        stp_telemetry::counter!("factor.memo_entries").add(self.memo_entries - entries_before);
        let trees = result?;
        let mut chains = Vec::with_capacity(trees.len());
        let mut seen = HashSet::new();
        for tree in trees.iter() {
            let chain = tree_to_chain(tree, spec.num_vars());
            if seen.insert(chain_key(&chain)) {
                chains.push(chain);
            }
        }
        Ok(chains)
    }

    fn check_deadline(&mut self) -> Result<(), SynthesisError> {
        stp_faultsim::fail_point!("factor.deadline", err = Err(SynthesisError::Timeout));
        if let Some(flag) = &self.config.abort {
            if flag.load(Ordering::Acquire) {
                return Err(SynthesisError::Timeout);
            }
        }
        if let Some(flag) = &self.config.cancel {
            if flag.load(Ordering::Acquire) {
                return Err(SynthesisError::Timeout);
            }
        }
        if let Some(d) = self.config.deadline {
            // Clock reads are throttled; the first checkpoint of a fresh
            // engine still polls, so an already-expired deadline aborts
            // immediately.
            self.poll_tick = self.poll_tick.wrapping_add(1);
            if self.poll_tick & DEADLINE_POLL_MASK == 1 && Instant::now() >= d {
                return Err(SynthesisError::Timeout);
            }
        }
        Ok(())
    }

    /// Interns `shape`, returning its dense memo index.
    fn shape_id(&mut self, shape: &TreeShape) -> usize {
        if let Some(&id) = self.shape_ids.get(shape) {
            return id as usize;
        }
        let id = self.memo.len();
        self.shape_ids.insert(shape.clone(), id as u32);
        self.memo.push(MemoTable::default());
        id
    }

    /// Core recursion: all realizations of `h` on `shape`.
    fn realize(
        &mut self,
        h: &TruthTable,
        shape: &TreeShape,
    ) -> Result<Arc<Vec<Arc<RealTree>>>, SynthesisError> {
        let sid = self.shape_id(shape);
        // Time the probe alone (shape interning excluded): one probe in
        // [`PROBE_SAMPLE`] is measured and extrapolated.
        self.probe_tick = self.probe_tick.wrapping_add(1);
        let t0 =
            if self.probe_tick & (PROBE_SAMPLE - 1) == 0 { Some(Instant::now()) } else { None };
        let hit = self.memo[sid].get(h);
        if let Some(t0) = t0 {
            self.memo_probe_ns +=
                (t0.elapsed().as_nanos() as u64).saturating_mul(PROBE_SAMPLE as u64);
        }
        if let Some(hit) = hit {
            self.memo_hits += 1;
            return Ok(hit);
        }
        self.check_deadline()?;
        self.nodes_explored += 1;
        let result = match shape {
            TreeShape::Leaf => {
                // A leaf realizes exactly a positive literal; complements
                // are absorbed by the parent gate's operator choice.
                let mut out = Vec::new();
                let sup = h.support();
                if sup.len() == 1 {
                    let v = sup[0];
                    if let Ok(proj) = TruthTable::variable(h.num_vars(), v) {
                        if *h == proj {
                            out.push(Arc::new(RealTree::Leaf(v)));
                        }
                    }
                }
                out
            }
            TreeShape::Node(s1, s2) => self.realize_node(h, s1, s2)?,
        };
        let rc = Arc::new(result);
        self.memo_bytes += self.memo[sid].insert(h, Arc::clone(&rc));
        self.memo_entries += 1;
        Ok(rc)
    }

    fn realize_node(
        &mut self,
        h: &TruthTable,
        s1: &TreeShape,
        s2: &TreeShape,
    ) -> Result<Vec<Arc<RealTree>>, SynthesisError> {
        let n = h.num_vars();
        let sup_mask = h.support_mask();
        let mut support = [0usize; 16];
        let mut d = 0usize;
        for v in 0..n {
            if sup_mask >> v & 1 == 1 {
                support[d] = v;
                d += 1;
            }
        }
        let l1 = s1.leaf_count();
        let l2 = s2.leaf_count();
        let symmetric = s1 == s2;
        let mut out: Vec<Arc<RealTree>> = Vec::new();
        if d > l1 + l2 || d == 0 {
            return Ok(out);
        }
        let mut seen_triples: HashSet<SeenKey> = HashSet::new();
        // Enumerate splits: each support variable goes to A (left
        // exclusive), B (right exclusive), or S (shared).
        let mut split = [0u8; 16];
        let mut a_vars = [0usize; 16];
        let mut b_vars = [0usize; 16];
        let mut s_vars = [0usize; 16];
        'splits: loop {
            self.check_deadline()?;
            let (mut na, mut nb, mut ns) = (0usize, 0usize, 0usize);
            for (&cls, &v) in split[..d].iter().zip(&support[..d]) {
                match cls {
                    0 => {
                        a_vars[na] = v;
                        na += 1;
                    }
                    1 => {
                        b_vars[nb] = v;
                        nb += 1;
                    }
                    _ => {
                        s_vars[ns] = v;
                        ns += 1;
                    }
                }
            }
            let feasible = na + ns >= 1 && nb + ns >= 1 && na + ns <= l1 && nb + ns <= l2;
            if feasible {
                // The one-word instance needs the whole spec in 4 words,
                // chart cell blocks in one word, and ≤ 64 shared
                // assignments. The four-word instance relaxes all three:
                // spec in 64 words, cell blocks in `[u64; 4]`, ≤ 256
                // shared assignments. Anything larger falls back to the
                // scalar reference.
                let force = self.config.force_naive;
                let fast = !force && n <= FAST_MAX_VARS && na + nb <= 6 && ns <= 6;
                let wide = !force && !fast && n <= WIDE_MAX_VARS && na + nb <= 8 && ns <= 8;
                if fast {
                    self.factor_split_words::<1, FAST_WORDS, FAST_SHARED>(
                        h,
                        &a_vars[..na],
                        &b_vars[..nb],
                        &s_vars[..ns],
                        s1,
                        s2,
                        symmetric,
                        &mut seen_triples,
                        &mut out,
                    )?;
                } else if wide {
                    self.factor_split_words::<4, WIDE_WORDS, WIDE_SHARED>(
                        h,
                        &a_vars[..na],
                        &b_vars[..nb],
                        &s_vars[..ns],
                        s1,
                        s2,
                        symmetric,
                        &mut seen_triples,
                        &mut out,
                    )?;
                } else {
                    self.factor_split_naive(
                        h,
                        &a_vars[..na],
                        &b_vars[..nb],
                        &s_vars[..ns],
                        s1,
                        s2,
                        symmetric,
                        &mut seen_triples,
                        &mut out,
                    )?;
                }
                if out.len() >= self.config.max_realizations {
                    break 'splits;
                }
            }
            // Advance the base-3 counter.
            let mut i = 0;
            loop {
                if i == d {
                    break 'splits;
                }
                split[i] += 1;
                if split[i] < 3 {
                    break;
                }
                split[i] = 0;
                i += 1;
            }
        }
        Ok(out)
    }

    /// Word-level `factor_split`: factors `h = g(h1(A ∪ S), h2(B ∪ S))`
    /// for one fixed split, appending every realization to `out`.
    ///
    /// One body, monomorphized per lane count. A chart's cell block is
    /// `[u64; L]` (`2^(|A|+|B|) ≤ 64·L`), the compact spec and operand
    /// buffers hold `SPEC_WORDS ≥ words_len(n)` words, and the
    /// per-shared-assignment arrays hold `SHARED ≥ 2^|S|` entries; the
    /// caller gates on these bounds. The two instances are
    /// `<1, FAST_WORDS, FAST_SHARED>` and `<4, WIDE_WORDS, WIDE_SHARED>`:
    /// the one-word instance keeps small stack buffers, which is what
    /// keeps it as fast as a dedicated `u64` kernel. Charts, patterns and
    /// labellings are masks in fixed stack buffers — the split and
    /// combination loops perform no heap allocation; memory is touched
    /// only when a fresh canonical candidate is materialized for
    /// recursion.
    ///
    /// Byte-equal to [`Factorizer::factor_split_naive`] in output,
    /// order, and counter increments (pinned by the differential fuzz
    /// tests below and the wide-spec bench differential).
    #[allow(clippy::too_many_arguments)]
    fn factor_split_words<const L: usize, const SPEC_WORDS: usize, const SHARED: usize>(
        &mut self,
        h: &TruthTable,
        a_vars: &[usize],
        b_vars: &[usize],
        s_vars: &[usize],
        s1: &TreeShape,
        s2: &TreeShape,
        symmetric: bool,
        seen_triples: &mut HashSet<SeenKey>,
        out: &mut Vec<Arc<RealTree>>,
    ) -> Result<(), SynthesisError> {
        let n = h.num_vars();
        let (ra, rb, rs) = (a_vars.len(), b_vars.len(), s_vars.len());
        let d = ra + rb + rs;
        let rows = 1usize << ra;
        let cols = 1usize << rb;
        let shared = 1usize << rs;
        let cells = rows * cols;
        let cells_mask = low_mask::<L>(cells);
        let rows_mask = low_mask::<L>(rows);
        let cols_mask = low_mask::<L>(cols);
        // The complement of a labelling or cell mask within its field.
        let flip = |x: &[u64; L], mask: &[u64; L]| -> [u64; L] {
            std::array::from_fn(|w| !x[w] & mask[w])
        };

        // Compact the spec onto `B ++ A ++ S` (row-major charts: cell
        // (r, c) of shared assignment s is bit `c + r·cols + s·cells`)
        // and onto `A ++ B ++ S` (the transposed charts, for column
        // patterns). Every chart is then the aligned field `s` of width
        // `cells`, a power of two.
        let mut order = [0usize; 16];
        order[..rb].copy_from_slice(b_vars);
        order[rb..rb + ra].copy_from_slice(a_vars);
        order[rb + ra..d].copy_from_slice(s_vars);
        let mut compact_rc = [0u64; SPEC_WORDS];
        compact_into(h, &order[..d], &mut compact_rc);
        order[..ra].copy_from_slice(a_vars);
        order[ra..ra + rb].copy_from_slice(b_vars);
        let mut compact_cr = [0u64; SPEC_WORDS];
        compact_into(h, &order[..d], &mut compact_cr);

        // Per shared assignment: the chart, the first row/column
        // labelling option (bit i ⇔ axis element i carries the second
        // distinct pattern; the other option is its complement), and
        // the labellings expanded to cell masks.
        let mut charts = [[0u64; L]; SHARED];
        let mut row0 = [[0u64; L]; SHARED];
        let mut col0 = [[0u64; L]; SHARED];
        let mut rcell0 = [[0u64; L]; SHARED];
        let mut ccell0 = [[0u64; L]; SHARED];
        for s in 0..shared {
            let chart = field::<L>(&compact_rc, s, cells);
            let chart_t = field::<L>(&compact_cr, s, cells);
            self.charts_built += 1;
            // Two unique quartering parts per axis (Examples 5–6).
            let Some(r0) = two_pattern_mask(&chart, rows, cols) else {
                return Ok(());
            };
            let Some(c0) = two_pattern_mask(&chart_t, cols, rows) else {
                return Ok(());
            };
            charts[s] = chart;
            row0[s] = r0;
            col0[s] = c0;
            // A labelled row fills its `cols` cells; the column labels
            // repeat in every row.
            for r in 0..rows {
                if r0[r >> 6] >> (r & 63) & 1 == 1 {
                    or_field(&mut rcell0[s], r, cols, &cols_mask);
                }
                or_field(&mut ccell0[s], r, cols, &c0);
            }
        }

        // Split-level support filter: the A-part of the left operand's
        // support is the union of the row-class supports across shared
        // assignments (complementing a labelling never changes its
        // support), so a split whose row classes do not jointly cover A
        // can never pass the canonical-split check — likewise for B.
        if !covers_axis_mask(&row0[..shared], ra) || !covers_axis_mask(&col0[..shared], rb) {
            return Ok(());
        }

        // Operand layout: compact over `own ++ S`, one labelling mask
        // per shared assignment at an aligned offset; expansion to the
        // full arity is a tile plus the inverse of the front-swap plan.
        let k1 = ra + rs;
        let k2 = rb + rs;
        let mut vars1 = [0usize; 16];
        vars1[..ra].copy_from_slice(a_vars);
        vars1[ra..k1].copy_from_slice(s_vars);
        let mut vars2 = [0usize; 16];
        vars2[..rb].copy_from_slice(b_vars);
        vars2[rb..k2].copy_from_slice(s_vars);
        let mut plan1 = [(0u8, 0u8); 16];
        let plan1_len = kernel::front_swap_plan(n, &vars1[..k1], &mut plan1);
        let mut plan2 = [(0u8, 0u8); 16];
        let plan2_len = kernel::front_swap_plan(n, &vars2[..k2], &mut plan2);
        let full1 = kernel::low_mask(k1);
        let full2 = kernel::low_mask(k2);
        let nw = kernel::words_len(n);

        // For each candidate operator g, pick one row/column labelling
        // per shared assignment, consistently.
        'ops: for &g in &stp_tt::NONTRIVIAL_OPS {
            // Valid (row label, col label) option pairs per shared
            // assignment; option 0 is the stored mask, 1 its complement.
            let mut pairs = [[(0u8, 0u8); 4]; SHARED];
            let mut plen = [0usize; SHARED];
            for s in 0..shared {
                let mut np = 0usize;
                for ri in 0..2u8 {
                    let r = if ri == 0 { rcell0[s] } else { flip(&rcell0[s], &cells_mask) };
                    for ci in 0..2u8 {
                        let c = if ci == 0 { ccell0[s] } else { flip(&ccell0[s], &cells_mask) };
                        let expected: [u64; L] = std::array::from_fn(|w| {
                            let (r, c) = (r[w], c[w]);
                            let mut e = 0u64;
                            if g & 1 != 0 {
                                e |= !r & !c & cells_mask[w];
                            }
                            if g & 2 != 0 {
                                e |= r & !c;
                            }
                            if g & 4 != 0 {
                                e |= !r & c;
                            }
                            if g & 8 != 0 {
                                e |= r & c;
                            }
                            e
                        });
                        if expected == charts[s] {
                            pairs[s][np] = (ri, ci);
                            np += 1;
                        }
                    }
                }
                if np == 0 {
                    continue 'ops;
                }
                plen[s] = np;
            }
            // Depth-first combination over shared assignments.
            let mut choice = [0usize; SHARED];
            'combos: loop {
                self.check_deadline()?;
                let mut cbuf1 = [0u64; SPEC_WORDS];
                let mut cbuf2 = [0u64; SPEC_WORDS];
                for s in 0..shared {
                    let (ri, ci) = pairs[s][choice[s]];
                    let rl = if ri == 0 { row0[s] } else { flip(&row0[s], &rows_mask) };
                    let cl = if ci == 0 { col0[s] } else { flip(&col0[s], &cols_mask) };
                    or_field(&mut cbuf1, s, rows, &rl);
                    or_field(&mut cbuf2, s, cols, &cl);
                }
                // Canonical split: the operands must depend on exactly
                // their assigned variables (otherwise the same triple is
                // found under a smaller split). On the compact tables
                // that is simply "full support".
                let canonical = kernel::support_mask(&cbuf1[..kernel::words_len(k1)], k1) == full1
                    && kernel::support_mask(&cbuf2[..kernel::words_len(k2)], k2) == full2;
                if canonical {
                    let mut f1 = [0u64; SPEC_WORDS];
                    expand_with_plan(&cbuf1, k1, n, &plan1[..plan1_len], &mut f1);
                    let mut f2 = [0u64; SPEC_WORDS];
                    expand_with_plan(&cbuf2, k2, n, &plan2[..plan2_len], &mut f2);
                    let (f1, f2) = (&f1[..nw], &f2[..nw]);
                    // Mirror dedup for symmetric shapes.
                    let ordered = !symmetric || f1 <= f2;
                    if ordered && seen_triples.insert(seen_key(g, f1, f2, n)) {
                        let h1 = TruthTable::from_words(n, f1.to_vec())
                            .expect("operand arity equals the spec arity");
                        let h2 = TruthTable::from_words(n, f2.to_vec())
                            .expect("operand arity equals the spec arity");
                        let r1 = self.realize(&h1, s1)?;
                        if !r1.is_empty() {
                            let r2 = self.realize(&h2, s2)?;
                            if self.emit_pairs(g, &r1, &r2, out) {
                                return Ok(());
                            }
                        }
                    }
                }
                // Advance.
                let mut i = 0;
                loop {
                    if i == shared {
                        break 'combos;
                    }
                    choice[i] += 1;
                    if choice[i] < plen[i] {
                        break;
                    }
                    choice[i] = 0;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Scalar reference `factor_split`, retained as the fallback for
    /// splits beyond the word-level bounds and as the ground truth for
    /// the differential fuzz tests.
    #[allow(clippy::too_many_arguments)]
    fn factor_split_naive(
        &mut self,
        h: &TruthTable,
        a_vars: &[usize],
        b_vars: &[usize],
        s_vars: &[usize],
        s1: &TreeShape,
        s2: &TreeShape,
        symmetric: bool,
        seen_triples: &mut HashSet<SeenKey>,
        out: &mut Vec<Arc<RealTree>>,
    ) -> Result<(), SynthesisError> {
        let n = h.num_vars();
        let rows = 1usize << a_vars.len();
        let cols = 1usize << b_vars.len();
        let shared = 1usize << s_vars.len();

        // Per shared assignment: the row/column labelling options.
        // labels[s] = (row label options, column label options); a label
        // option is the vector of h1 (resp. h2) values for that shared
        // assignment.
        let mut row_options: Vec<Vec<Vec<bool>>> = Vec::with_capacity(shared);
        let mut col_options: Vec<Vec<Vec<bool>>> = Vec::with_capacity(shared);
        let mut charts: Vec<Vec<bool>> = Vec::with_capacity(shared);
        for s in 0..shared {
            let mut chart = vec![false; rows * cols];
            let mut assign = vec![false; n];
            for (i, &v) in s_vars.iter().enumerate() {
                assign[v] = (s >> i) & 1 == 1;
            }
            for r in 0..rows {
                for (i, &v) in a_vars.iter().enumerate() {
                    assign[v] = (r >> i) & 1 == 1;
                }
                for c in 0..cols {
                    for (i, &v) in b_vars.iter().enumerate() {
                        assign[v] = (c >> i) & 1 == 1;
                    }
                    chart[r * cols + c] = h.eval(&assign);
                }
            }
            self.charts_built += 1;
            // Two unique quartering parts per axis (Examples 5–6).
            let row_opts = match two_pattern_labels(&chart, rows, cols, true) {
                Some(opts) => opts,
                None => return Ok(()),
            };
            let col_opts = match two_pattern_labels(&chart, rows, cols, false) {
                Some(opts) => opts,
                None => return Ok(()),
            };
            row_options.push(row_opts);
            col_options.push(col_opts);
            charts.push(chart);
        }

        // Split-level support filter (see the word-level path).
        if !covers_axis(&row_options, a_vars.len()) || !covers_axis(&col_options, b_vars.len()) {
            return Ok(());
        }

        // For each candidate operator g, pick one row/column labelling
        // per shared assignment, consistently.
        for &g in &stp_tt::NONTRIVIAL_OPS {
            // Valid (row label, col label) index pairs per shared
            // assignment.
            let mut pairs_per_s: Vec<Vec<(usize, usize)>> = Vec::with_capacity(shared);
            let mut dead = false;
            for s in 0..shared {
                let mut pairs = Vec::new();
                for (ri, rl) in row_options[s].iter().enumerate() {
                    for (ci, cl) in col_options[s].iter().enumerate() {
                        if chart_consistent(&charts[s], rows, cols, g, rl, cl) {
                            pairs.push((ri, ci));
                        }
                    }
                }
                if pairs.is_empty() {
                    dead = true;
                    break;
                }
                pairs_per_s.push(pairs);
            }
            if dead {
                continue;
            }
            // Depth-first combination over shared assignments.
            let mut choice = vec![0usize; shared];
            'combos: loop {
                self.check_deadline()?;
                let h1 =
                    build_operand(n, a_vars, s_vars, &row_options, &pairs_per_s, &choice, true);
                let h2 =
                    build_operand(n, b_vars, s_vars, &col_options, &pairs_per_s, &choice, false);
                // Canonical split: the operands must depend on exactly
                // their assigned variables (otherwise the same triple is
                // found under a smaller split).
                let h1_sup = h1.support();
                let h2_sup = h2.support();
                let mut want1: Vec<usize> = a_vars.iter().chain(s_vars).copied().collect();
                want1.sort_unstable();
                let mut want2: Vec<usize> = b_vars.iter().chain(s_vars).copied().collect();
                want2.sort_unstable();
                let canonical = h1_sup == want1 && h2_sup == want2;
                // Mirror dedup for symmetric shapes.
                let ordered = !symmetric || h1.words() <= h2.words();
                if canonical
                    && ordered
                    && seen_triples.insert(seen_key(g, h1.words(), h2.words(), n))
                {
                    let r1 = self.realize(&h1, s1)?;
                    if !r1.is_empty() {
                        let r2 = self.realize(&h2, s2)?;
                        if self.emit_pairs(g, &r1, &r2, out) {
                            return Ok(());
                        }
                    }
                }
                // Advance.
                let mut i = 0;
                loop {
                    if i == shared {
                        break 'combos;
                    }
                    choice[i] += 1;
                    if choice[i] < pairs_per_s[i].len() {
                        break;
                    }
                    choice[i] = 0;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Cross-products two realization forests under operator `g` into
    /// `out`; returns `true` when the realization cap was reached.
    fn emit_pairs(
        &self,
        g: u8,
        r1: &[Arc<RealTree>],
        r2: &[Arc<RealTree>],
        out: &mut Vec<Arc<RealTree>>,
    ) -> bool {
        for t1 in r1 {
            for t2 in r2 {
                // A gate reading the same leaf twice computes a unary
                // function, so a strictly smaller chain exists and the
                // candidate can never be part of a minimum solution
                // (chains also reject tied fanins).
                if let (RealTree::Leaf(a), RealTree::Leaf(b)) = (t1.as_ref(), t2.as_ref()) {
                    if a == b {
                        continue;
                    }
                }
                out.push(Arc::new(RealTree::Node(g, Arc::clone(t1), Arc::clone(t2))));
                if out.len() >= self.config.max_realizations {
                    return true;
                }
            }
        }
        false
    }
}

/// Compacts `h` onto `vars` into a caller-owned stack buffer: bit `m`
/// of the result is `h` at the assignment where input `vars[k]` takes
/// bit `k` of `m` and every other input is 0. Word-level (cofactor
/// masks + a front-swap plan), no allocation; `buf` must hold at least
/// `h`'s words.
fn compact_into(h: &TruthTable, vars: &[usize], buf: &mut [u64]) {
    let n = h.num_vars();
    let nw = h.words().len();
    buf[..nw].copy_from_slice(h.words());
    for w in &mut buf[nw..] {
        *w = 0;
    }
    let words = &mut buf[..nw];
    let mut listed = 0u64;
    for &v in vars {
        listed |= 1u64 << v;
    }
    for v in 0..n {
        if listed >> v & 1 == 0 {
            kernel::cofactor0_in_place(words, n, v);
        }
    }
    let mut plan = [(0u8, 0u8); 16];
    let len = kernel::front_swap_plan(n, vars, &mut plan);
    for &(i, p) in &plan[..len] {
        kernel::swap_in_place(words, n, i as usize, p as usize);
    }
    // Everything above the first `vars.len()` inputs is a replicated
    // don't-care now; keep only the compact table.
    let k = vars.len();
    if k < 6 {
        buf[0] &= kernel::low_mask(1 << k);
        for w in &mut buf[1..] {
            *w = 0;
        }
    } else {
        for w in &mut buf[kernel::words_len(k)..] {
            *w = 0;
        }
    }
}

/// Expands a `k`-input compact table to `n` inputs by tiling and then
/// undoing the front-swap `plan` (computed for the same variable list).
/// The inverse of [`compact_into`] up to don't-cares.
fn expand_with_plan(compact: &[u64], k: usize, n: usize, plan: &[(u8, u8)], out: &mut [u64]) {
    let nw = kernel::words_len(n);
    kernel::tile_words(&compact[..kernel::words_len(k)], k, n, &mut out[..nw]);
    for &(i, p) in plan.iter().rev() {
        kernel::swap_in_place(&mut out[..nw], n, i as usize, p as usize);
    }
}

/// `L` words with the low `count` bits set (`count ≤ 64·L`).
fn low_mask<const L: usize>(count: usize) -> [u64; L] {
    std::array::from_fn(|w| kernel::low_mask(count.saturating_sub(64 * w)))
}

/// The `i`-th `width`-bit field of a packed buffer, in the low bits of
/// `L` words (`width` a power of two ≤ `64·L`). Fields sit at
/// multiples of their width, so one of ≤ 64 bits never straddles a
/// word and a wider one is word-aligned.
#[inline]
fn field<const L: usize>(buf: &[u64], i: usize, width: usize) -> [u64; L] {
    let mut out = [0u64; L];
    if width <= 64 {
        let off = i * width;
        out[0] = (buf[off >> 6] >> (off & 63)) & kernel::low_mask(width);
    } else {
        let nw = width / 64;
        out[..nw].copy_from_slice(&buf[i * nw..(i + 1) * nw]);
    }
    out
}

/// ORs `val` into the `i`-th `width`-bit field of a packed buffer, the
/// inverse of [`field`]; `val` has no bits at or above `width`.
#[inline]
fn or_field<const L: usize>(buf: &mut [u64], i: usize, width: usize, val: &[u64; L]) {
    if width <= 64 {
        let off = i * width;
        buf[off >> 6] |= val[0] << (off & 63);
    } else {
        let nw = width / 64;
        for (dst, src) in buf[i * nw..(i + 1) * nw].iter_mut().zip(val) {
            *dst |= src;
        }
    }
}

/// Mask form of [`two_pattern_labels`]: returns the first labelling
/// option (bit `i` set ⇔ axis element `i` carries the second distinct
/// pattern; all zeros for a degenerate single-pattern axis), or `None`
/// when more than two distinct patterns exist. `chart` holds `count`
/// fields of `width` bits each.
fn two_pattern_mask<const L: usize>(
    chart: &[u64; L],
    count: usize,
    width: usize,
) -> Option<[u64; L]> {
    let first = field::<L>(chart, 0, width);
    let mut second: Option<[u64; L]> = None;
    let mut labels = [0u64; L];
    for i in 1..count {
        let p = field::<L>(chart, i, width);
        if p == first {
            continue;
        }
        match second {
            None => {
                second = Some(p);
                labels[i >> 6] |= 1u64 << (i & 63);
            }
            Some(sp) if p == sp => labels[i >> 6] |= 1u64 << (i & 63),
            Some(_) => return None,
        }
    }
    Some(labels)
}

/// Mask form of [`covers_axis`]: `labels[s]` is the first labelling
/// option for shared assignment `s` over `2^k` axis elements. Axis
/// variables below 6 pair bits within a word ([`kernel::VAR_MASK`]);
/// the ones above pair whole words.
fn covers_axis_mask<const L: usize>(labels: &[[u64; L]], k: usize) -> bool {
    let count = 1usize << k;
    let words = count.div_ceil(64);
    let in_word = kernel::low_mask(count);
    let full = (1u32 << k) - 1;
    let mut covered = 0u32;
    for l in labels {
        for bit in 0..k {
            let differs = if bit < 6 {
                let zeros = !kernel::VAR_MASK[bit] & in_word;
                l[..words].iter().any(|&w| ((w >> (1usize << bit)) ^ w) & zeros != 0)
            } else {
                let stride = 1usize << (bit - 6);
                (0..words).any(|w| w & stride == 0 && l[w] != l[w | stride])
            };
            if differs {
                covered |= 1 << bit;
            }
        }
        if covered == full {
            return true;
        }
    }
    covered == full
}

/// Returns `true` when the per-shared-assignment labellings jointly
/// depend on every one of the `k` axis variables.
fn covers_axis(options: &[Vec<Vec<bool>>], k: usize) -> bool {
    let mut covered = vec![false; k];
    for opts in options {
        // Any labelling of this shared assignment has the same support;
        // use the first.
        let labels = &opts[0];
        for (bit, slot) in covered.iter_mut().enumerate() {
            if *slot {
                continue;
            }
            let stride = 1usize << bit;
            for base in 0..labels.len() {
                if base & stride == 0 && labels[base] != labels[base | stride] {
                    *slot = true;
                    break;
                }
            }
        }
    }
    covered.into_iter().all(|c| c)
}

/// Collects the ≤ 2 distinct patterns along one axis of the chart and
/// returns the candidate labellings, or `None` when more than two
/// distinct patterns exist (the paper's "can not be factored",
/// Example 5.2).
///
/// With two distinct patterns there are two labellings (the classes and
/// their complement); with one there are the two constants.
#[allow(clippy::needless_range_loop)]
fn two_pattern_labels(
    chart: &[bool],
    rows: usize,
    cols: usize,
    by_rows: bool,
) -> Option<Vec<Vec<bool>>> {
    let (count, other) = if by_rows { (rows, cols) } else { (cols, rows) };
    let pattern = |i: usize| -> Vec<bool> {
        (0..other)
            .map(|j| if by_rows { chart[i * cols + j] } else { chart[j * cols + i] })
            .collect()
    };
    let first = pattern(0);
    let mut second: Option<Vec<bool>> = None;
    let mut labels = vec![false; count];
    for i in 1..count {
        let p = pattern(i);
        if p == first {
            continue;
        }
        match &second {
            None => {
                second = Some(p);
                labels[i] = true;
            }
            Some(s) if p == *s => labels[i] = true,
            Some(_) => return None,
        }
    }
    if second.is_some() {
        let inverted: Vec<bool> = labels.iter().map(|&b| !b).collect();
        Some(vec![labels, inverted])
    } else {
        // Degenerate axis: the operand is constant on this shared
        // assignment.
        Some(vec![vec![false; count], vec![true; count]])
    }
}

/// Checks `chart[a][b] == g(rl[a], cl[b])` for every cell.
fn chart_consistent(
    chart: &[bool],
    rows: usize,
    cols: usize,
    g: u8,
    rl: &[bool],
    cl: &[bool],
) -> bool {
    for r in 0..rows {
        for c in 0..cols {
            let v = (g >> ((rl[r] as u8) + 2 * (cl[c] as u8))) & 1 == 1;
            if v != chart[r * cols + c] {
                return false;
            }
        }
    }
    true
}

/// Builds an operand function from the chosen labellings.
fn build_operand(
    n: usize,
    own_vars: &[usize],
    s_vars: &[usize],
    options: &[Vec<Vec<bool>>],
    pairs_per_s: &[Vec<(usize, usize)>],
    choice: &[usize],
    is_row: bool,
) -> TruthTable {
    TruthTable::from_fn(n, |assign| {
        let mut s = 0usize;
        for (i, &v) in s_vars.iter().enumerate() {
            if assign[v] {
                s |= 1 << i;
            }
        }
        let mut idx = 0usize;
        for (i, &v) in own_vars.iter().enumerate() {
            if assign[v] {
                idx |= 1 << i;
            }
        }
        let (ri, ci) = pairs_per_s[s][choice[s]];
        let opt = if is_row { ri } else { ci };
        options[s][opt][idx]
    })
    .expect("operand arity equals the spec arity")
}

/// Converts a realization tree into a chain over `n` inputs with a
/// single positive output.
fn tree_to_chain(tree: &RealTree, n: usize) -> Chain {
    fn emit(tree: &RealTree, chain: &mut Chain) -> usize {
        match tree {
            RealTree::Leaf(v) => *v,
            RealTree::Node(g, l, r) => {
                let li = emit(l, chain);
                let ri = emit(r, chain);
                chain
                    .add_gate(li, ri, *g)
                    .expect("realization trees reference earlier signals with distinct fanins")
            }
        }
    }
    let mut chain = Chain::new(n);
    let top = emit(tree, &mut chain);
    chain.add_output(OutputRef::signal(top));
    chain
}

/// Packed dedup key for [`Factorizer::chains_on_shape`]: one word per
/// gate. Chains produced by [`tree_to_chain`] share the input count and
/// output structure, so the gate list identifies the chain — no
/// rendered-`String` key needed.
fn chain_key(chain: &Chain) -> Vec<u64> {
    chain
        .gates()
        .iter()
        .map(|g| ((g.fanin[0] as u64) << 24) | ((g.fanin[1] as u64) << 8) | g.tt2 as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_fence::shapes_with_gates;

    fn balanced3() -> TreeShape {
        let leaf = TreeShape::Leaf;
        let pair = TreeShape::node(leaf.clone(), leaf.clone());
        TreeShape::node(pair.clone(), pair)
    }

    #[test]
    fn example7_finds_both_paper_solutions() {
        // f = 0x8ff8 on the balanced 3-gate tree: the paper's Example 7
        // prints two Boolean chains; our factorization enumerates the
        // full AllSAT set (four chains — the paper's two plus the two
        // mixed-polarity variants its coupled factorization skips; see
        // DESIGN.md).
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        assert_eq!(chains.len(), 4);
        for chain in &chains {
            assert_eq!(chain.num_gates(), 3);
            let out = chain.simulate_outputs().unwrap();
            assert_eq!(out[0], spec, "every factorization must realize the spec");
        }
    }

    #[test]
    fn example7_solution_operators() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        // The paper prints the solutions {0xe, 0x8, 0x6} and
        // {0x7, 0x7, 0x9}; both must appear among the enumerated chains.
        let mut op_sets: Vec<Vec<u8>> = chains
            .iter()
            .map(|c| {
                let mut ops: Vec<u8> = c.gates().iter().map(|g| g.tt2).collect();
                ops.sort_unstable();
                ops
            })
            .collect();
        op_sets.sort();
        assert!(op_sets.contains(&vec![0x6, 0x8, 0xe]), "paper solution 1");
        assert!(op_sets.contains(&vec![0x7, 0x7, 0x9]), "paper solution 2");
    }

    #[test]
    fn unfactorable_spec_on_small_shape_yields_nothing() {
        // 3-input majority is prime: no 2-gate tree realizes it.
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        for shape in shapes_with_gates(2) {
            assert!(engine.chains_on_shape(&maj, &shape).unwrap().is_empty());
        }
    }

    #[test]
    fn majority_realized_with_shared_inputs() {
        // Majority needs 4 gates in a tree with repeated leaves (the
        // paper's M_r case).
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let mut found = Vec::new();
        for shape in shapes_with_gates(4) {
            found.extend(engine.chains_on_shape(&maj, &shape).unwrap());
        }
        assert!(!found.is_empty(), "majority must be realizable with 4 gates");
        for chain in &found {
            assert_eq!(chain.simulate_outputs().unwrap()[0], maj);
        }
    }

    #[test]
    fn xor3_realized_with_two_gates() {
        let xor3 = TruthTable::from_fn(3, |a| a[0] ^ a[1] ^ a[2]).unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let mut found = Vec::new();
        for shape in shapes_with_gates(2) {
            found.extend(engine.chains_on_shape(&xor3, &shape).unwrap());
        }
        assert!(!found.is_empty());
        for chain in &found {
            assert_eq!(chain.simulate_outputs().unwrap()[0], xor3);
        }
    }

    #[test]
    fn all_enumerated_chains_are_distinct_and_correct() {
        let spec = TruthTable::from_fn(4, |a| (a[0] & a[1]) | (a[2] & a[3])).unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        assert!(!chains.is_empty());
        let mut keys: Vec<String> = chains.iter().map(|c| format!("{c}")).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "chains must be distinct");
        for chain in &chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
            assert!(chain.all_gates_nontrivial());
        }
    }

    #[test]
    fn trivial_specs_yield_no_chains() {
        let mut engine = Factorizer::new(FactorConfig::default());
        let shape = balanced3();
        for tt in [
            TruthTable::constant(4, true).unwrap(),
            TruthTable::constant(4, false).unwrap(),
            TruthTable::variable(4, 2).unwrap(),
        ] {
            assert!(engine.chains_on_shape(&tt, &shape).unwrap().is_empty());
        }
    }

    #[test]
    fn deadline_aborts_search() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let config = FactorConfig {
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
            ..FactorConfig::default()
        };
        let mut engine = Factorizer::new(config);
        let result = engine.chains_on_shape(&spec, &balanced3());
        assert!(matches!(result, Err(SynthesisError::Timeout)));
    }

    #[test]
    fn cancel_flag_aborts_search() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let config = FactorConfig { cancel: Some(Arc::clone(&flag)), ..FactorConfig::default() };
        let mut engine = Factorizer::new(config);
        let result = engine.chains_on_shape(&spec, &balanced3());
        assert!(matches!(result, Err(SynthesisError::Timeout)));
    }

    #[test]
    fn cancellation_aborts_promptly_mid_search() {
        // The deadline poll is throttled to one clock read per 1024
        // checkpoints, but the cancel flag is read on every checkpoint:
        // setting it mid-search must abort quickly.
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                flag.store(true, Ordering::SeqCst);
            })
        };
        let spec = TruthTable::from_fn(6, |a| {
            let ones = a.iter().filter(|&&b| b).count();
            ones >= 3 && !(a[0] & a[5])
        })
        .unwrap();
        let shapes = shapes_with_gates(5);
        let start = Instant::now();
        'outer: loop {
            // A fresh engine per sweep keeps the search doing real work
            // (a fully-memoized engine would answer from the memo
            // without reaching a checkpoint).
            let config =
                FactorConfig { cancel: Some(Arc::clone(&flag)), ..FactorConfig::default() };
            let mut engine = Factorizer::new(config);
            for shape in &shapes {
                if engine.chains_on_shape(&spec, shape).is_err() {
                    break 'outer;
                }
            }
            assert!(
                start.elapsed() < std::time::Duration::from_secs(60),
                "cancellation never observed"
            );
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "cancellation must abort promptly"
        );
        setter.join().unwrap();
    }

    #[test]
    fn factorizer_moves_between_threads() {
        // The parallel driver hands each worker its own engine; the
        // memoized realization forests must therefore be `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<Factorizer>();
        assert_send::<FactorConfig>();
    }

    #[test]
    fn realization_cap_is_respected() {
        // XOR-heavy functions have many complementary solutions; cap at
        // a small number and check the cap binds.
        let spec = TruthTable::from_fn(4, |a| a[0] ^ a[1] ^ a[2] ^ a[3]).unwrap();
        let config = FactorConfig { max_realizations: 3, ..FactorConfig::default() };
        let mut engine = Factorizer::new(config);
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        assert!(chains.len() <= 3);
        assert!(!chains.is_empty());
    }

    #[test]
    fn memoization_hits_across_shapes() {
        let spec = TruthTable::from_fn(5, |a| (a[0] & a[1]) ^ (a[2] & a[3]) ^ a[4]).unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        for shape in shapes_with_gates(4) {
            let _ = engine.chains_on_shape(&spec, &shape).unwrap();
        }
        let first_pass = engine.nodes_explored();
        // Re-running is fully memoized: no new nodes.
        for shape in shapes_with_gates(4) {
            let _ = engine.chains_on_shape(&spec, &shape).unwrap();
        }
        assert_eq!(engine.nodes_explored(), first_pass);
    }

    /// Deterministic 64-bit LCG for the differential fuzz tests (no
    /// external dependency; constants from Knuth via PCG).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Mix the high bits down — the raw LCG's low bits alternate.
            self.0 ^ (self.0 >> 29)
        }
    }

    fn random_table(rng: &mut Lcg, n: usize) -> TruthTable {
        let words = (0..kernel::words_len(n)).map(|_| rng.next()).collect();
        TruthTable::from_words(n, words).unwrap()
    }

    /// Runs one split through the word-level instance
    /// `<L, SPEC_WORDS, SHARED>` and through the scalar reference, with
    /// leaf children so the comparison isolates the kernel: emitted
    /// candidates, the seen set and the counter increments must be
    /// byte-equal. Returns the number of canonical candidates seen.
    fn assert_split_matches_naive<const L: usize, const SPEC_WORDS: usize, const SHARED: usize>(
        h: &TruthTable,
        a: &[usize],
        b: &[usize],
        s: &[usize],
        symmetric: bool,
    ) -> usize {
        let leaf = TreeShape::Leaf;
        let mut word_level = Factorizer::new(FactorConfig::default());
        let mut naive = Factorizer::new(FactorConfig::default());
        let (mut seen_w, mut out_w) = (HashSet::new(), Vec::new());
        let (mut seen_n, mut out_n) = (HashSet::new(), Vec::new());
        word_level
            .factor_split_words::<L, SPEC_WORDS, SHARED>(
                h,
                a,
                b,
                s,
                &leaf,
                &leaf,
                symmetric,
                &mut seen_w,
                &mut out_w,
            )
            .unwrap();
        naive
            .factor_split_naive(h, a, b, s, &leaf, &leaf, symmetric, &mut seen_n, &mut out_n)
            .unwrap();
        let ctx = format!("n={} a={a:?} b={b:?} s={s:?} spec={}", h.num_vars(), h.to_hex());
        assert_eq!(out_w, out_n, "candidates differ: {ctx}");
        assert_eq!(seen_w, seen_n, "seen triples differ: {ctx}");
        assert_eq!(word_level.charts_built, naive.charts_built, "chart counts differ: {ctx}");
        assert_eq!(word_level.nodes_explored, naive.nodes_explored, "node counts differ: {ctx}");
        seen_w.len()
    }

    #[test]
    fn fuzz_fast_split_matches_naive_reference() {
        // For random tables over 2–8 variables and random (A, B, S)
        // splits within the fast-path bounds, the word-level kernels
        // (chart extraction, two-pattern labelling, consistency check,
        // operand scatter, canonicality, dedup keys) must be byte-equal
        // to the scalar reference: same emitted candidates, same seen
        // set, same counter increments. Leaf children keep the
        // recursion trivial so the comparison isolates the kernels.
        let mut rng = Lcg(0xfac7_0123_5eed_0001);
        let mut tested = 0usize;
        let mut attempts = 0usize;
        while tested < 150 {
            attempts += 1;
            assert!(attempts < 20_000, "fuzz split sampling starved");
            let n = 2 + (rng.next() % 7) as usize;
            let h = random_table(&mut rng, n);
            let support = h.support();
            if support.len() < 2 {
                continue;
            }
            let (mut a, mut b, mut s) = (Vec::new(), Vec::new(), Vec::new());
            for &v in &support {
                match rng.next() % 3 {
                    0 => a.push(v),
                    1 => b.push(v),
                    _ => s.push(v),
                }
            }
            if a.len() + s.len() == 0 || b.len() + s.len() == 0 {
                continue;
            }
            // Stay within the fast-path bounds; additionally cap the
            // shared set at 3 variables — with a degenerate axis (empty
            // A or B) every shared assignment can admit several
            // labellings, and the combination space is exponential in
            // the shared-assignment count. The engine's feasibility
            // check bounds shared variables by the shape's leaf excess
            // (na + nb + 2·ns ≤ leaves), so large shared sets never
            // occur in real searches either.
            if a.len() + b.len() > 6 || s.len() > 3 {
                continue;
            }
            tested += 1;
            let symmetric = rng.next() & 1 == 1;
            assert_split_matches_naive::<1, FAST_WORDS, FAST_SHARED>(&h, &a, &b, &s, symmetric);
        }
    }

    #[test]
    fn fuzz_full_engine_fast_matches_naive() {
        // End-to-end differential check: whole-engine runs with the
        // word-level path enabled vs. forced-naive must produce the
        // same chains in the same order with the same counters, across
        // random and structured specs on real shape families.
        let mut rng = Lcg(0x0dd5_eed5_0000_0001);
        let mut specs: Vec<TruthTable> = Vec::new();
        for n in [3usize, 4, 4, 5] {
            specs.push(random_table(&mut rng, n));
        }
        // Structured, factorization-friendly specs reach the deeper
        // kernel paths (labellings, operand scatter, recursion).
        specs.push(TruthTable::from_hex(4, "8ff8").unwrap());
        specs.push(TruthTable::from_fn(5, |a| (a[0] & a[1]) ^ (a[2] | a[3]) ^ a[4]).unwrap());
        specs.push(
            TruthTable::from_fn(6, |a| (a[0] ^ a[1]) & (a[2] ^ a[3]) | (a[4] & a[5])).unwrap(),
        );
        for spec in &specs {
            let d = spec.support().len();
            if d < 2 {
                continue;
            }
            let mut fast = Factorizer::new(FactorConfig::default());
            let mut naive =
                Factorizer::new(FactorConfig { force_naive: true, ..FactorConfig::default() });
            for shape in shapes_with_gates(d.saturating_sub(1)) {
                let chains_f: Vec<String> = fast
                    .chains_on_shape(spec, &shape)
                    .unwrap()
                    .iter()
                    .map(|c| format!("{c}"))
                    .collect();
                let chains_n: Vec<String> = naive
                    .chains_on_shape(spec, &shape)
                    .unwrap()
                    .iter()
                    .map(|c| format!("{c}"))
                    .collect();
                assert_eq!(chains_f, chains_n, "spec={} shape={shape:?}", spec.to_hex());
            }
            assert_eq!(fast.nodes_explored(), naive.nodes_explored(), "spec={}", spec.to_hex());
            assert_eq!(fast.memo_hits(), naive.memo_hits(), "spec={}", spec.to_hex());
            assert_eq!(fast.charts_built, naive.charts_built, "spec={}", spec.to_hex());
        }
    }

    #[test]
    fn fuzz_wide_split_matches_naive_reference() {
        // The wide-path twin of `fuzz_fast_split_matches_naive_reference`:
        // random tables over 7–11 variables (multi-word specs) and random
        // splits within the wide-path bounds (|A| + |B| ≤ 8, so charts
        // span up to 256 bits and labellings up to 128). The shared set
        // is capped at 3 for the same combination-explosion reason as the
        // fast fuzz.
        let mut rng = Lcg(0xfac7_0123_5eed_0002);
        let mut tested = 0usize;
        let mut multiword_axes = 0usize;
        let mut attempts = 0usize;
        while tested < 120 {
            attempts += 1;
            assert!(attempts < 40_000, "fuzz split sampling starved");
            let n = 7 + (rng.next() % 5) as usize;
            let h = random_table(&mut rng, n);
            let support = h.support();
            if support.len() < 2 {
                continue;
            }
            let (mut a, mut b, mut s) = (Vec::new(), Vec::new(), Vec::new());
            for &v in &support {
                match rng.next() % 3 {
                    0 => a.push(v),
                    1 => b.push(v),
                    _ => s.push(v),
                }
            }
            if a.len() + s.len() == 0 || b.len() + s.len() == 0 {
                continue;
            }
            if a.len() + b.len() > 8 || s.len() > 3 {
                continue;
            }
            tested += 1;
            if a.len() + b.len() > 6 {
                // Charts wider than 64 cells: the W4 multi-lane branches.
                multiword_axes += 1;
            }
            let symmetric = rng.next() & 1 == 1;
            assert_split_matches_naive::<4, WIDE_WORDS, WIDE_SHARED>(&h, &a, &b, &s, symmetric);
        }
        assert!(multiword_axes >= 20, "too few multi-lane cases: {multiword_axes}");
    }

    #[test]
    fn fuzz_wide_split_at_twelve_inputs_matches_naive_reference() {
        // The wide fuzz above samples 7–11 inputs, so the four-word
        // instance never meets a spec filling all `WIDE_WORDS` words of
        // its buffers. This batch runs at n = 12. Each spec is
        // `g(h1(A ∪ S), h2(B ∪ S))` for random operand tables, so the
        // charts pass the two-pattern test and the scatter, canonicality
        // and 64-word expansion steps run, not just chart extraction.
        // |A|, |B| ≤ 4 and |S| ≤ 2 keep the scalar reference's
        // per-combination 4096-entry operand tables affordable.
        let mut rng = Lcg(0xfac7_0123_5eed_0003);
        let mut candidates = 0usize;
        for _ in 0..24 {
            let mut vars: Vec<usize> = (0..12).collect();
            for i in (1..vars.len()).rev() {
                vars.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            let na = 1 + (rng.next() % 4) as usize;
            let nb = 1 + (rng.next() % 4) as usize;
            let ns = (rng.next() % 3) as usize;
            let a = vars[..na].to_vec();
            let b = vars[na..na + nb].to_vec();
            let s = vars[na + nb..na + nb + ns].to_vec();
            let g = stp_tt::NONTRIVIAL_OPS[(rng.next() % 10) as usize];
            let (t1, t2) = (rng.next(), rng.next());
            let h = TruthTable::from_fn(12, |x| {
                let index = |vs: &[usize]| {
                    vs.iter().enumerate().fold(0, |m, (i, &v)| m | (x[v] as usize) << i)
                };
                let o1 = t1 >> (index(&a) | index(&s) << na) & 1;
                let o2 = t2 >> (index(&b) | index(&s) << nb) & 1;
                g >> (o1 + 2 * o2) & 1 == 1
            })
            .unwrap();
            let symmetric = rng.next() & 1 == 1;
            candidates +=
                assert_split_matches_naive::<4, WIDE_WORDS, WIDE_SHARED>(&h, &a, &b, &s, symmetric);
        }
        assert!(candidates >= 24, "too few canonical candidates at n = 12: {candidates}");
    }

    fn balanced_shape(leaves: usize) -> TreeShape {
        if leaves == 1 {
            TreeShape::Leaf
        } else {
            TreeShape::node(balanced_shape(leaves / 2), balanced_shape(leaves - leaves / 2))
        }
    }

    #[test]
    fn fuzz_full_engine_wide_matches_naive() {
        // End-to-end differential for 9+-input specs: structured
        // (factorization-friendly) specs on fixed shapes whose leaf
        // excess admits shared variables, so the top-level splits with
        // |A| + |B| ≤ 8 actually route through the four-word kernel while
        // the `force_naive` engine replays everything through the scalar
        // reference. Chains, counters, and chart counts must agree.
        let mut specs: Vec<TruthTable> = Vec::new();
        specs.push(
            TruthTable::from_fn(9, |a| {
                (a[0] & a[1]) ^ (a[2] | a[3]) ^ (a[4] & a[5]) ^ (a[6] | a[7]) ^ a[8]
            })
            .unwrap(),
        );
        specs.push(
            TruthTable::from_fn(10, |a| {
                ((a[0] ^ a[1]) & (a[2] ^ a[3])) | ((a[4] & a[5]) ^ (a[6] & a[7]) & (a[8] | a[9]))
            })
            .unwrap(),
        );
        for spec in &specs {
            let d = spec.support().len();
            let shape = balanced_shape(d + 1);
            let mut wide =
                Factorizer::new(FactorConfig { max_realizations: 64, ..FactorConfig::default() });
            let mut naive = Factorizer::new(FactorConfig {
                max_realizations: 64,
                force_naive: true,
                ..FactorConfig::default()
            });
            let chains_w: Vec<String> = wide
                .chains_on_shape(spec, &shape)
                .unwrap()
                .iter()
                .map(|c| format!("{c}"))
                .collect();
            let chains_n: Vec<String> = naive
                .chains_on_shape(spec, &shape)
                .unwrap()
                .iter()
                .map(|c| format!("{c}"))
                .collect();
            assert_eq!(chains_w, chains_n, "spec arity {d}");
            assert_eq!(wide.nodes_explored(), naive.nodes_explored(), "spec arity {d}");
            assert_eq!(wide.memo_hits(), naive.memo_hits(), "spec arity {d}");
            assert_eq!(wide.charts_built, naive.charts_built, "spec arity {d}");
            assert!(wide.charts_built > 0, "wide engine built no charts at arity {d}");
        }
    }

    #[test]
    fn memo_table_packed_roundtrip_growth_and_bytes() {
        let mut table = MemoTable::default();
        let forest = |v: usize| Arc::new(vec![Arc::new(RealTree::Leaf(v))]);
        let mut rng = Lcg(0x9e37_79b9_0000_0001);
        let mut keys = Vec::new();
        let mut bytes = 0u64;
        for i in 0..200usize {
            let n = 2 + (rng.next() % 7) as usize;
            let h = random_table(&mut rng, n);
            bytes += table.insert(&h, forest(i));
            keys.push((h, i));
        }
        // Bytes grew monotonically with slot-array capacity and the load
        // factor stayed under 7/8.
        let cap = bytes as usize / std::mem::size_of::<MemoSlot>();
        assert!(cap.is_power_of_two(), "slot capacity {cap} not a power of two");
        assert!(table.len * 8 <= cap * 7, "load factor exceeded 7/8: {}/{cap}", table.len);
        // Every inserted key probes back to its latest forest (duplicate
        // tables along the way replace, never duplicate).
        let mut latest: HashMap<Vec<u64>, usize> = HashMap::new();
        for (h, i) in &keys {
            let mut k = vec![h.num_vars() as u64];
            k.extend_from_slice(h.words());
            latest.insert(k, *i);
        }
        assert_eq!(table.entries(), latest.len() as u64);
        for (h, _) in &keys {
            let mut k = vec![h.num_vars() as u64];
            k.extend_from_slice(h.words());
            let want = latest[&k];
            let got = table.get(h).expect("inserted key must probe back");
            assert_eq!(*got, *forest(want), "wrong forest for {}", h.to_hex());
        }
        // A table that was never probed for a missing key still answers
        // misses with None.
        let missing = random_table(&mut rng, 8);
        let mut k = vec![missing.num_vars() as u64];
        k.extend_from_slice(missing.words());
        if !latest.contains_key(&k) {
            assert!(table.get(&missing).is_none());
        }
    }

    #[test]
    fn memo_table_spills_wide_specs() {
        let mut table = MemoTable::default();
        let mut rng = Lcg(0x5b11_a5e5_0000_0002);
        let wide = random_table(&mut rng, 9);
        let narrow = random_table(&mut rng, 4);
        let f1 = Arc::new(vec![Arc::new(RealTree::Leaf(1))]);
        let f2 = Arc::new(vec![Arc::new(RealTree::Leaf(2))]);
        assert_eq!(table.insert(&wide, Arc::clone(&f1)), 0, "spill inserts allocate no slots");
        table.insert(&narrow, Arc::clone(&f2));
        assert_eq!(*table.get(&wide).unwrap(), *f1);
        assert_eq!(*table.get(&narrow).unwrap(), *f2);
        assert_eq!(table.entries(), 2);
        assert_eq!(table.len, 1, "only the narrow spec lands in the packed array");
    }

    #[test]
    fn memo_table_distinguishes_arity_of_equal_words() {
        // The same words encode different functions at different
        // arities; both entries must coexist in the packed array.
        let mut table = MemoTable::default();
        let h3 = TruthTable::from_words(3, vec![0x5a]).unwrap();
        let h6 = TruthTable::from_words(6, vec![0x5a]).unwrap();
        let f3 = Arc::new(vec![Arc::new(RealTree::Leaf(3))]);
        let f6 = Arc::new(vec![Arc::new(RealTree::Leaf(6))]);
        table.insert(&h3, Arc::clone(&f3));
        table.insert(&h6, Arc::clone(&f6));
        assert_eq!(*table.get(&h3).unwrap(), *f3);
        assert_eq!(*table.get(&h6).unwrap(), *f6);
        assert_eq!(table.entries(), 2);
    }

    #[test]
    fn memo_probe_ns_attributes_to_the_driving_workers_scope() {
        // Two workers run the same search under their own
        // `CounterScope`s: each scope must see its own engine's memo
        // traffic (probes, bytes, entries), not a share of the other's —
        // the flush in `chains_on_shape` runs on the worker thread.
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let run = || {
            let scope = stp_telemetry::CounterScope::enter();
            let mut engine = Factorizer::new(FactorConfig::default());
            for shape in shapes_with_gates(3) {
                let _ = engine.chains_on_shape(&spec, &shape).unwrap();
            }
            (scope.finish(), engine)
        };
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(run);
            let tb = s.spawn(run);
            (ta.join().unwrap(), tb.join().unwrap())
        });
        for (got, engine) in [&a, &b] {
            assert_eq!(got.get("factor.subproblems").copied(), Some(engine.nodes_explored));
            assert_eq!(got.get("factor.memo_hits").copied(), Some(engine.memo_hits));
            assert_eq!(got.get("factor.memo_bytes").copied(), Some(engine.memo_bytes));
            assert_eq!(got.get("factor.memo_entries").copied(), Some(engine.memo_entries));
            // The sampled probe timing lands in the same scope (it may
            // legitimately be zero when no probe hit the sample tick).
            assert_eq!(got.get("factor.memo_probe_ns").copied().unwrap_or(0), engine.memo_probe_ns);
        }
    }
}
