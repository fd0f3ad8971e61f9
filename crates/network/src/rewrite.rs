//! DAG-aware rewriting with exact synthesis.
//!
//! The paper's introduction motivates fast exact synthesis through this
//! application (its ref. [2], DATE'19): enumerate small cuts, ask exact
//! synthesis for the optimum implementation of each cut function, and
//! replace the cut's cone when that saves gates. The expensive step is
//! the synthesis call, which is why it is cached per NPN class — and
//! why an engine that is fast on the DSD-shaped functions dominating
//! real cut distributions (the paper's headline) matters.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stp_chain::Chain;
use stp_store::{NpnOutcome, RepOutcome, Store};
use stp_synth::{
    synthesize, synthesize_multi, GateCountObjective, MultiSpec, SynthesisConfig, SynthesisError,
};
use stp_tt::TruthTable;

use crate::cuts::{cut_function, enumerate_cuts, Cut};
use crate::error::NetworkError;
use crate::network::{Network, Sig};

/// Configuration for [`rewrite`].
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Cut size (leaves per cut); 4 matches the paper's NPN4 world.
    pub cut_size: usize,
    /// Cuts kept per node during enumeration.
    pub cut_limit: usize,
    /// Per-synthesis-call time budget.
    pub synthesis_budget: Duration,
    /// Maximum rewriting passes.
    pub max_passes: usize,
    /// Worker threads per exact-synthesis call (`0` = one per CPU,
    /// `1` = sequential; see [`stp_synth::SynthesisConfig::jobs`]).
    /// Defaults to the `STP_JOBS` environment variable (or `1`).
    pub jobs: usize,
    /// Rewrite whole multi-root cut cones in one shared synthesis call:
    /// roots sharing an identical leaf set are synthesized jointly
    /// (`stp_synth::synthesize_multi` through the store's multi-output
    /// keyspace) and spliced as one chain with shared internal nodes. A
    /// joint replacement is taken only when it saves strictly more
    /// gates than the best per-root replacements combined.
    pub multi_output: bool,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            cut_size: 4,
            cut_limit: 8,
            synthesis_budget: Duration::from_secs(2),
            max_passes: 4,
            jobs: stp_synth::jobs_from_env(),
            multi_output: true,
        }
    }
}

/// Cap on the roots jointly rewritten per shared cut cone: the shared
/// merge enumerates cross products of per-output optima, so the cost of
/// a joint call grows quickly with the output count.
const MAX_GROUP_OUTPUTS: usize = 3;

/// A cache of optimum chains per NPN class representative, shared
/// across rewriting calls (and typically across networks and threads).
///
/// Since the store refactor this is a thin, clonable handle over an
/// [`stp_store::Store`]: the canonicalize → lookup-or-synthesize →
/// map-back pipeline lives in [`Store::solve_npn`], shared with
/// `stp_synth::synthesize_npn`. Wrap a warmed, disk-loaded store with
/// [`SynthesisCache::with_store`] and rewriting answers every NPN4 cut
/// without a single synthesis call.
#[derive(Debug, Clone, Default)]
pub struct SynthesisCache {
    store: Arc<Store>,
}

impl SynthesisCache {
    /// Creates a cache over a fresh private store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing (possibly disk-loaded, possibly shared)
    /// solution store.
    pub fn with_store(store: Arc<Store>) -> Self {
        SynthesisCache { store }
    }

    /// The underlying solution store, e.g. for persisting after a run.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Cache hits so far (lookups answered from a stored entry).
    pub fn hits(&self) -> u64 {
        self.store.hits()
    }

    /// Cache misses (synthesis calls) so far.
    pub fn misses(&self) -> u64 {
        self.store.misses()
    }

    /// Returns an optimum chain for `spec` (through its NPN
    /// representative), synthesizing and caching on first sight.
    /// Constants and (complemented) projections are answered by the
    /// store's trivial fast path without paying NPN canonicalization.
    ///
    /// A synthesis failure (timeout or gate limit) under `budget` is
    /// recorded as exhausted at that budget and returns `Ok(None)`; a
    /// later call offering a strictly larger budget retries.
    ///
    /// # Errors
    ///
    /// Propagates chain-mapping and non-budget synthesis failures.
    pub fn optimum_chain(
        &self,
        spec: &TruthTable,
        budget: Duration,
        jobs: usize,
    ) -> Result<Option<Chain>, NetworkError> {
        let mut synthesized = false;
        let outcome = self.store.solve_npn(spec, budget, |rep| {
            synthesized = true;
            stp_telemetry::counter!("network.synth_cache_misses").inc();
            let config = SynthesisConfig {
                deadline: Some(Instant::now() + budget),
                max_solutions: 1,
                jobs,
                ..SynthesisConfig::default()
            };
            match synthesize(rep, &config) {
                Ok(r) => Ok(RepOutcome::Solved(r.chains)),
                Err(SynthesisError::Timeout | SynthesisError::GateLimitExceeded { .. }) => {
                    Ok(RepOutcome::Exhausted)
                }
                Err(e) => Err(NetworkError::from(e)),
            }
        })?;
        if !synthesized {
            stp_telemetry::counter!("network.synth_cache_hits").inc();
        }
        match outcome {
            NpnOutcome::Trivial(chain) => Ok(Some(chain)),
            NpnOutcome::Solved(mut chains) => Ok(Some(chains.swap_remove(0))),
            NpnOutcome::Exhausted { .. } | NpnOutcome::WaitTimeout => Ok(None),
            NpnOutcome::Poisoned { message } => {
                Err(NetworkError::from(SynthesisError::JobPanicked { message }))
            }
        }
    }

    /// Returns one shared chain realizing every spec (through the
    /// multi-output NPN class tuple), synthesizing and caching on first
    /// sight — the multi-output analogue of
    /// [`SynthesisCache::optimum_chain`]. The chain's outputs follow
    /// `specs` order and its internal gates are shared across outputs.
    ///
    /// A synthesis failure (timeout or gate limit) under `budget` is
    /// recorded as exhausted at that budget and returns `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Propagates chain-mapping and non-budget synthesis failures.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty.
    pub fn optimum_shared_chain(
        &self,
        specs: &[TruthTable],
        budget: Duration,
        jobs: usize,
    ) -> Result<Option<Chain>, NetworkError> {
        let mut synthesized = false;
        let outcome = self.store.solve_npn_multi(specs, budget, |reps| {
            synthesized = true;
            stp_telemetry::counter!("network.synth_cache_misses").inc();
            let config = SynthesisConfig {
                deadline: Some(Instant::now() + budget),
                jobs,
                ..SynthesisConfig::default()
            };
            let multi = MultiSpec::new(reps.to_vec()).map_err(NetworkError::from)?;
            match synthesize_multi(&multi, &GateCountObjective, &config) {
                Ok(r) => Ok(RepOutcome::Solved(vec![r.chain])),
                Err(SynthesisError::Timeout | SynthesisError::GateLimitExceeded { .. }) => {
                    Ok(RepOutcome::Exhausted)
                }
                Err(e) => Err(NetworkError::from(e)),
            }
        })?;
        if !synthesized {
            stp_telemetry::counter!("network.synth_cache_hits").inc();
        }
        match outcome {
            NpnOutcome::Trivial(chain) => Ok(Some(chain)),
            NpnOutcome::Solved(mut chains) => Ok(Some(chains.swap_remove(0))),
            NpnOutcome::Exhausted { .. } | NpnOutcome::WaitTimeout => Ok(None),
            NpnOutcome::Poisoned { message } => {
                Err(NetworkError::from(SynthesisError::JobPanicked { message }))
            }
        }
    }
}

/// Builds a multi-output network realizing every specification with
/// exact-synthesis optima, sharing structure through strashing and the
/// NPN cache (§II-B of the paper defines multi-output chains; the STP
/// engine synthesizes single outputs, so a collection is assembled by
/// splicing per-output optima into one structurally-hashed network).
///
/// Specifications exceeding the per-call budget fall back to a Shannon
/// decomposition on their highest support variable.
///
/// `jobs` configures the worker threads of each synthesis call (`0` =
/// one per CPU, `1` = sequential), exactly like
/// [`RewriteConfig::jobs`]; pass [`stp_synth::jobs_from_env()`] to keep
/// the old environment-driven behavior.
///
/// # Errors
///
/// Propagates construction and synthesis failures.
///
/// # Panics
///
/// Panics when `specs` is empty or the arities disagree.
pub fn exact_network(
    specs: &[TruthTable],
    cache: &SynthesisCache,
    budget: Duration,
    jobs: usize,
) -> Result<Network, NetworkError> {
    assert!(!specs.is_empty(), "need at least one output");
    let n = specs[0].num_vars();
    assert!(specs.iter().all(|s| s.num_vars() == n), "all outputs share one input space");
    let mut net = Network::new(n);
    let inputs: Vec<Sig> = (0..n).map(|i| net.input(i)).collect();
    for spec in specs {
        let sig = build_function(&mut net, &inputs, spec, cache, budget, jobs)?;
        net.add_output(sig);
    }
    Ok(net)
}

fn build_function(
    net: &mut Network,
    inputs: &[Sig],
    spec: &TruthTable,
    cache: &SynthesisCache,
    budget: Duration,
    jobs: usize,
) -> Result<Sig, NetworkError> {
    // Trivial cases first.
    let ones = spec.count_ones();
    if ones == 0 {
        return Ok(Sig::FALSE);
    }
    if ones == spec.num_bits() {
        return Ok(Sig::TRUE);
    }
    let support = spec.support();
    if support.len() == 1 {
        let v = support[0];
        let proj = TruthTable::variable(spec.num_vars(), v)?;
        return Ok(if *spec == proj { inputs[v] } else { inputs[v].not() });
    }
    if let Some(chain) = cache.optimum_chain(spec, budget, jobs)? {
        return net.add_chain(&chain, inputs);
    }
    // Budget exceeded: Shannon-decompose on the last support variable
    // and recurse (each cofactor has strictly smaller support).
    let v = *support.last().expect("non-trivial support");
    let hi = build_function(net, inputs, &spec.cofactor(v, true), cache, budget, jobs)?;
    let lo = build_function(net, inputs, &spec.cofactor(v, false), cache, budget, jobs)?;
    net.mux(inputs[v], hi, lo)
}

/// One applied replacement, for reporting.
#[derive(Debug, Clone)]
pub struct Replacement {
    /// The primary replaced root signal (in the *old* network's
    /// numbering); for a multi-output replacement, the smallest root.
    pub root: usize,
    /// Every replaced root, ascending — more than one exactly when a
    /// shared cut cone was rewritten in one joint synthesis call.
    pub roots: Vec<usize>,
    /// Leaves of the chosen cut.
    pub leaves: Vec<usize>,
    /// Estimated gates saved.
    pub gain: usize,
}

/// Result of a rewriting run.
#[derive(Debug)]
pub struct RewriteResult {
    /// The rewritten network.
    pub network: Network,
    /// Gate count before.
    pub gates_before: usize,
    /// Gate count after.
    pub gates_after: usize,
    /// Replacements applied per pass.
    pub replacements: Vec<Replacement>,
    /// Number of passes executed.
    pub passes: usize,
}

/// Size of the maximum fanout-free cone of `root` above the cut: the
/// gates that die if `root` is replaced by new logic over the cut
/// leaves.
fn mffc_size(net: &Network, root: usize, cut: &Cut, refs: &[usize]) -> usize {
    joint_mffc_size(net, &[root], cut, refs)
}

/// Joint MFFC of several roots above one shared cut: the gates that die
/// if *all* roots are re-sourced from new logic over the cut leaves.
/// Shared interior gates are counted once; a root inside another root's
/// cone is counted once too.
fn joint_mffc_size(net: &Network, roots: &[usize], cut: &Cut, refs: &[usize]) -> usize {
    fn deref(
        net: &Network,
        s: usize,
        cut: &Cut,
        refs: &mut [usize],
        dead: &mut [bool],
        count: &mut usize,
    ) {
        if cut.leaves.binary_search(&s).is_ok() || !net.is_gate(s) || dead[s] {
            return;
        }
        dead[s] = true;
        *count += 1;
        for f in net.gate(s).fanin {
            refs[f] -= 1;
            if refs[f] == 0 {
                deref(net, f, cut, refs, dead, count);
            }
        }
    }
    let mut refs = refs.to_vec();
    let mut dead = vec![false; net.num_signals()];
    let mut count = 0;
    for &root in roots {
        deref(net, root, cut, &mut refs, &mut dead, &mut count);
    }
    count
}

/// Rewrites the network: for every gate, tries to replace some 4-cut
/// cone with the exact-synthesis optimum, greedily applying
/// non-overlapping positive-gain replacements until a pass yields no
/// improvement (or [`RewriteConfig::max_passes`] is hit).
///
/// The rewritten network computes the same output functions (checked by
/// the test-suite via exhaustive simulation).
///
/// # Errors
///
/// Propagates construction and synthesis errors; per-cut synthesis
/// timeouts simply skip the cut.
pub fn rewrite(
    net: &Network,
    config: &RewriteConfig,
    cache: &SynthesisCache,
) -> Result<RewriteResult, NetworkError> {
    let gates_before = net.live_gate_count();
    let mut current = net.clone();
    let mut all_replacements = Vec::new();
    let mut passes = 0usize;
    for _ in 0..config.max_passes {
        passes += 1;
        let (next, replacements) = rewrite_pass(&current, config, cache)?;
        let improved = next.live_gate_count() < current.live_gate_count();
        all_replacements.extend(replacements);
        current = next;
        if !improved {
            break;
        }
    }
    let gates_after = current.live_gate_count();
    stp_telemetry::counter!("network.rewrite_replacements").add(all_replacements.len() as u64);
    stp_telemetry::debug!(
        "rewrite: {gates_before} -> {gates_after} gates over {passes} passes ({} replacements)",
        all_replacements.len()
    );
    Ok(RewriteResult {
        network: current,
        gates_before,
        gates_after,
        replacements: all_replacements,
        passes,
    })
}

fn rewrite_pass(
    net: &Network,
    config: &RewriteConfig,
    cache: &SynthesisCache,
) -> Result<(Network, Vec<Replacement>), NetworkError> {
    let _pass = stp_telemetry::span!("rewrite.pass");
    let cuts = {
        let _enum = stp_telemetry::span!("rewrite.cut_enum");
        enumerate_cuts(net, config.cut_size, config.cut_limit)
    };
    let refs = net.reference_counts();

    // Collect candidate replacements. A candidate replaces one or more
    // roots over one cut: single-root candidates come from the classic
    // per-cone synthesis, multi-root ones from a joint synthesis of
    // every root sharing the cut's leaf set.
    struct Candidate {
        /// Ascending; one root for the classic per-cone replacement.
        roots: Vec<usize>,
        cut: Cut,
        chain: Chain,
        gain: usize,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for s in 0..net.num_signals() {
        if !net.is_gate(s) || refs[s] == 0 {
            continue;
        }
        for cut in &cuts.cuts[s] {
            if cut.leaves.len() < 2 || cut.leaves == [s] {
                continue;
            }
            let f = cut_function(net, s, cut)?;
            if f.is_trivial() {
                continue;
            }
            let Some(chain) = cache.optimum_chain(&f, config.synthesis_budget, config.jobs)? else {
                continue;
            };
            let old_cost = mffc_size(net, s, cut, &refs);
            let new_cost = chain.num_gates();
            if new_cost < old_cost {
                candidates.push(Candidate {
                    roots: vec![s],
                    cut: cut.clone(),
                    chain,
                    gain: old_cost - new_cost,
                });
            }
        }
    }
    if config.multi_output {
        // Best single-root gain per root: a joint replacement must beat
        // the per-root replacements it displaces combined.
        let mut single_gain: HashMap<usize, usize> = HashMap::new();
        for cand in &candidates {
            let best = single_gain.entry(cand.roots[0]).or_insert(0);
            *best = (*best).max(cand.gain);
        }
        // Output-driving gates sharing an identical leaf set form one
        // joint cut cone. Joint candidates are restricted to output
        // roots: interior nodes already compete through the per-cone
        // path, and admitting them here would fold a cone's own
        // sub-cones into its group, diluting the joint gain.
        let mut output_roots: Vec<usize> =
            net.outputs().iter().map(|s| s.index()).filter(|&s| net.is_gate(s)).collect();
        output_roots.sort_unstable();
        output_roots.dedup();
        let mut by_leaves: HashMap<&[usize], Vec<usize>> = HashMap::new();
        for &s in &output_roots {
            if refs[s] == 0 {
                continue;
            }
            for cut in &cuts.cuts[s] {
                if cut.leaves.len() < 2 || cut.leaves == [s] {
                    continue;
                }
                let roots = by_leaves.entry(cut.leaves.as_slice()).or_default();
                if !roots.contains(&s) {
                    roots.push(s);
                }
            }
        }
        // HashMap order is not deterministic; the transcript contract is.
        let mut groups: Vec<(&[usize], Vec<usize>)> =
            by_leaves.into_iter().filter(|(_, roots)| roots.len() >= 2).collect();
        groups.sort();
        for (leaves, mut roots) in groups {
            roots.sort_unstable();
            roots.truncate(MAX_GROUP_OUTPUTS);
            let cut = Cut { leaves: leaves.to_vec() };
            let mut specs = Vec::with_capacity(roots.len());
            for &root in &roots {
                specs.push(cut_function(net, root, &cut)?);
            }
            if specs.iter().all(TruthTable::is_trivial) {
                continue;
            }
            let Some(chain) =
                cache.optimum_shared_chain(&specs, config.synthesis_budget, config.jobs)?
            else {
                continue;
            };
            let old_cost = joint_mffc_size(net, &roots, &cut, &refs);
            let new_cost = chain.num_gates();
            if new_cost >= old_cost {
                continue;
            }
            let gain = old_cost - new_cost;
            let displaced: usize =
                roots.iter().map(|r| single_gain.get(r).copied().unwrap_or(0)).sum();
            if gain <= displaced {
                continue;
            }
            stp_telemetry::counter!("network.mo_rewrites").inc();
            candidates.push(Candidate { roots, cut, chain, gain });
        }
    }
    // Greedy: best gains first; skip candidates whose cone overlaps an
    // already-replaced one.
    candidates.sort_by(|a, b| b.gain.cmp(&a.gain).then(a.roots.cmp(&b.roots)));
    // root -> (candidate index, output position within its chain).
    let mut replaced: HashMap<usize, (usize, usize)> = HashMap::new();
    let mut claimed = vec![false; net.num_signals()];
    let mut report = Vec::new();
    for (ci, cand) in candidates.iter().enumerate() {
        // The cone between the roots and the leaves must be unclaimed.
        let mut cone = Vec::new();
        let mut stack = cand.roots.clone();
        let mut ok = true;
        while let Some(x) = stack.pop() {
            if cand.cut.leaves.binary_search(&x).is_ok() || !net.is_gate(x) {
                continue;
            }
            if claimed[x] {
                ok = false;
                break;
            }
            if cone.contains(&x) {
                continue;
            }
            cone.push(x);
            for fanin in net.gate(x).fanin {
                stack.push(fanin);
            }
        }
        if !ok || cand.roots.iter().any(|r| replaced.contains_key(r)) {
            continue;
        }
        for &x in &cone {
            claimed[x] = true;
        }
        for (position, &root) in cand.roots.iter().enumerate() {
            replaced.insert(root, (ci, position));
        }
        report.push(Replacement {
            root: cand.roots[0],
            roots: cand.roots.clone(),
            leaves: cand.cut.leaves.clone(),
            gain: cand.gain,
        });
    }

    // Rebuild the network, splicing replacements. A multi-root
    // candidate splices its shared chain once — when the first of its
    // roots is reached — and maps every root to its output edge.
    let _apply = stp_telemetry::span!("rewrite.apply");
    let mut out = Network::new(net.num_inputs());
    let mut map: Vec<Option<Sig>> = vec![None; net.num_signals()];
    map[0] = Some(Sig::FALSE);
    for i in 0..net.num_inputs() {
        map[1 + i] = Some(out.input(i));
    }
    fn copy(
        net: &Network,
        s: usize,
        out: &mut Network,
        map: &mut Vec<Option<Sig>>,
        candidates: &[Candidate],
        replaced: &HashMap<usize, (usize, usize)>,
    ) -> Result<Sig, NetworkError> {
        if let Some(sig) = map[s] {
            return Ok(sig);
        }
        let sig = if let Some(&(ci, position)) = replaced.get(&s) {
            let cand = &candidates[ci];
            let mut leaf_sigs = Vec::with_capacity(cand.cut.leaves.len());
            for &leaf in &cand.cut.leaves {
                leaf_sigs.push(copy(net, leaf, out, map, candidates, replaced)?);
            }
            let outputs = out.add_chain_outputs(&cand.chain, &leaf_sigs)?;
            for (j, &root) in cand.roots.iter().enumerate() {
                map[root] = Some(outputs[j]);
            }
            outputs[position]
        } else {
            let gate = net.gate(s);
            let a = copy(net, gate.fanin[0], out, map, candidates, replaced)?;
            let b = copy(net, gate.fanin[1], out, map, candidates, replaced)?;
            out.add_gate(a, b, gate.tt2)?
        };
        map[s] = Some(sig);
        Ok(sig)
    }
    for output in net.outputs() {
        let sig = copy(net, output.index(), &mut out, &mut map, &candidates, &replaced)?;
        out.add_output(if output.is_negated() { sig.not() } else { sig });
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_network_realizes_all_outputs() {
        // Full adder: sum and carry over (a, b, cin).
        let sum = TruthTable::from_fn(3, |x| x[0] ^ x[1] ^ x[2]).unwrap();
        let carry =
            TruthTable::from_fn(3, |x| (x[0] as u8 + x[1] as u8 + x[2] as u8) >= 2).unwrap();
        let cache = SynthesisCache::new();
        let net = exact_network(&[sum.clone(), carry.clone()], &cache, Duration::from_secs(30), 1)
            .unwrap();
        let outs = net.simulate_outputs().unwrap();
        assert_eq!(outs[0], sum);
        assert_eq!(outs[1], carry);
    }

    #[test]
    fn exact_network_handles_trivial_outputs() {
        let specs = vec![
            TruthTable::constant(2, true).unwrap(),
            TruthTable::constant(2, false).unwrap(),
            TruthTable::variable(2, 1).unwrap(),
            !TruthTable::variable(2, 0).unwrap(),
        ];
        let cache = SynthesisCache::new();
        let net = exact_network(&specs, &cache, Duration::from_secs(5), 1).unwrap();
        let outs = net.simulate_outputs().unwrap();
        assert_eq!(outs, specs);
        assert_eq!(net.live_gate_count(), 0);
    }

    #[test]
    fn exact_network_falls_back_under_zero_budget() {
        // With no budget every non-trivial spec goes through the
        // Shannon fallback — the result must still be correct.
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let cache = SynthesisCache::new();
        let net = exact_network(std::slice::from_ref(&spec), &cache, Duration::ZERO, 1).unwrap();
        assert_eq!(net.simulate_outputs().unwrap()[0], spec);
    }

    /// A deliberately wasteful XOR: (a & !b) | (!a & b) costs 3 gates.
    fn wasteful_xor() -> Network {
        let mut net = Network::new(2);
        let (a, b) = (net.input(0), net.input(1));
        let t1 = net.and(a, b.not()).unwrap();
        let t2 = net.and(a.not(), b).unwrap();
        let f = net.or(t1, t2).unwrap();
        net.add_output(f);
        net
    }

    #[test]
    fn rewrites_wasteful_xor_to_one_gate() {
        let net = wasteful_xor();
        assert_eq!(net.live_gate_count(), 3);
        let before = net.simulate_outputs().unwrap();
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.gates_after, 1, "XOR is a single 2-LUT");
        assert_eq!(result.network.simulate_outputs().unwrap(), before);
        assert!(!result.replacements.is_empty());
    }

    #[test]
    fn preserves_functionality_on_shared_logic() {
        // Shared subexpression feeding two outputs.
        let mut net = Network::new(4);
        let (a, b, c, d) = (net.input(0), net.input(1), net.input(2), net.input(3));
        let ab = net.and(a, b).unwrap();
        let nab = net.add_gate(a, b, 0x7).unwrap(); // NAND shares the node
        let f1 = net.or(ab, c).unwrap();
        let f2 = net.and(nab, d).unwrap();
        net.add_output(f1);
        net.add_output(f2.not());
        let before = net.simulate_outputs().unwrap();
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.network.simulate_outputs().unwrap(), before);
        assert!(result.gates_after <= result.gates_before);
    }

    #[test]
    fn cache_is_reused_across_calls() {
        let cache = SynthesisCache::new();
        let net = wasteful_xor();
        let _ = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        let misses_first = cache.misses();
        let _ = rewrite(&wasteful_xor(), &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(cache.misses(), misses_first, "second run must be fully cached");
        assert!(cache.hits() > 0);
    }

    #[test]
    fn timeout_is_retried_with_a_larger_budget() {
        let cache = SynthesisCache::new();
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        // Zero budget: recorded as exhausted, not as a permanent failure.
        assert!(cache.optimum_chain(&spec, Duration::ZERO, 1).unwrap().is_none());
        let misses = cache.misses();
        // Same budget again: answered from the exhaustion record.
        assert!(cache.optimum_chain(&spec, Duration::ZERO, 1).unwrap().is_none());
        assert_eq!(cache.misses(), misses, "equal budget must not re-attempt");
        // Strictly larger budget: retried and solved.
        let chain =
            cache.optimum_chain(&spec, Duration::from_secs(30), 1).unwrap().expect("solvable");
        assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn trivial_specs_skip_the_store() {
        let cache = SynthesisCache::new();
        let proj = !TruthTable::variable(4, 2).unwrap();
        let chain = cache.optimum_chain(&proj, Duration::ZERO, 1).unwrap().expect("trivial");
        assert_eq!(chain.num_gates(), 0);
        assert_eq!(chain.simulate_outputs().unwrap()[0], proj);
        assert_eq!(cache.misses(), 0, "no canonicalization, no store round-trip");
        assert_eq!(cache.store().trivial_hits(), 1);
        assert!(cache.store().is_empty());
    }

    #[test]
    fn caches_share_one_store() {
        let store = Arc::new(Store::new());
        let first = SynthesisCache::with_store(Arc::clone(&store));
        let second = SynthesisCache::with_store(Arc::clone(&store));
        let _ = rewrite(&wasteful_xor(), &RewriteConfig::default(), &first).unwrap();
        let misses = store.misses();
        assert!(misses > 0);
        let _ = rewrite(&wasteful_xor(), &RewriteConfig::default(), &second).unwrap();
        assert_eq!(store.misses(), misses, "second cache must reuse the shared store");
    }

    #[test]
    fn mffc_respects_external_fanout() {
        // ab feeds both the candidate cone and an external output: it
        // must not be counted in the cone's MFFC.
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let ab = net.and(a, b).unwrap();
        let f = net.or(ab, c).unwrap();
        net.add_output(f);
        net.add_output(ab);
        let refs = net.reference_counts();
        let cut = Cut { leaves: vec![1, 2, 3] };
        assert_eq!(mffc_size(&net, f.index(), &cut, &refs), 1);
        // Without the external output the whole cone dies.
        let mut net2 = Network::new(3);
        let (a, b, c) = (net2.input(0), net2.input(1), net2.input(2));
        let ab2 = net2.and(a, b).unwrap();
        let f2 = net2.or(ab2, c).unwrap();
        net2.add_output(f2);
        let refs2 = net2.reference_counts();
        assert_eq!(mffc_size(&net2, f2.index(), &cut, &refs2), 2);
    }

    /// A full adder whose cones are individually optimal but unshared:
    /// sum = (a⊕b)⊕c (2 gates), carry = (a∧b)∨((a∨b)∧c) (4 gates).
    fn unshared_full_adder() -> Network {
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let x1 = net.xor(a, b).unwrap();
        let sum = net.xor(x1, c).unwrap();
        let u = net.and(a, b).unwrap();
        let v = net.or(a, b).unwrap();
        let w = net.and(v, c).unwrap();
        let m = net.or(u, w).unwrap();
        net.add_output(sum);
        net.add_output(m);
        net
    }

    #[test]
    fn joint_rewrite_shares_a_two_output_cut_cone() {
        let net = unshared_full_adder();
        assert_eq!(net.live_gate_count(), 6);
        let before = net.simulate_outputs().unwrap();

        // Every cone is per-output optimal, so the classic path finds
        // nothing to do.
        let single_only = RewriteConfig { multi_output: false, ..RewriteConfig::default() };
        let untouched = rewrite(&net, &single_only, &SynthesisCache::new()).unwrap();
        assert_eq!(untouched.gates_after, 6);
        assert!(untouched.replacements.is_empty());

        // Joint synthesis of the shared {a, b, c} cut cone shares the
        // a⊕b node between sum and carry: 5 gates, strictly fewer than
        // the per-output optimum sum.
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.network.simulate_outputs().unwrap(), before);
        assert_eq!(result.gates_after, 5, "joint synthesis must share one gate");
        let joint =
            result.replacements.iter().find(|r| r.roots.len() == 2).expect("a joint replacement");
        assert_eq!(joint.gain, 1);
        assert_eq!(joint.root, joint.roots[0]);

        // A second run over the same cache answers from the store.
        let misses = cache.misses();
        let again = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(again.gates_after, 5);
        assert_eq!(cache.misses(), misses, "joint classes must be cached too");
    }

    /// Draw 12 700 of the `rewrite_fresh` benchmark workload at seed 4
    /// (a seeded `random_network(6, 16, 3)`). One joint cut group has the
    /// classes `0000`, `0001` and `7ffe`; the engine's 7-gate chains for
    /// `7ffe` compute `x1 ⊕ x2` twice and read both copies, which chain
    /// merging once folded into a gate with equal fanins.
    const REPEATED_GATE_BLIF: &str = "\
.model bench
.inputs x1 x2 x3 x4 x5 x6
.outputs f1 f2 f3
.names x1 x2 n7
10 1
01 1
11 1
.names x1 n7 n8
10 1
.names x1 x2 n9
10 1
01 1
.names x1 x5 n10
11 1
.names x6 n10 n11
10 1
01 1
.names x2 x5 n12
10 1
01 1
11 1
.names n9 n11 n13
10 1
01 1
11 1
.names x4 n9 n14
10 1
.names x6 n12 n15
01 1
.names x2 x5 n16
11 1
.names x2 x5 n17
01 1
.names n13 n15 n18
10 1
01 1
11 1
.names n17 n18 n19
10 1
01 1
11 1
.names n9 n13 n20
10 1
.names n16 n19 n21
10 1
.names n21 f1
1 1
.names n20 f2
0 1
.names n19 f3
1 1
.end
";

    #[test]
    fn joint_rewrite_merges_chains_with_repeated_gates() {
        let net = Network::from_blif(REPEATED_GATE_BLIF).unwrap();
        assert_eq!(net.live_gate_count(), 12);
        let config = RewriteConfig::default();
        assert!(config.multi_output);
        let result = rewrite(&net, &config, &SynthesisCache::new()).unwrap();
        assert!(crate::equivalent_exhaustive(&net, &result.network).unwrap());
        assert!(result.gates_after < 12, "got {} gates", result.gates_after);
    }

    #[test]
    fn joint_rewrite_transcript_is_jobs_invariant() {
        let net = unshared_full_adder();
        let run = |jobs: usize| {
            let config = RewriteConfig { jobs, ..RewriteConfig::default() };
            let result = rewrite(&net, &config, &SynthesisCache::new()).unwrap();
            let mut transcript = result.network.to_blif("t");
            for r in &result.replacements {
                transcript.push_str(&format!(
                    "roots={:?} leaves={:?} gain={}\n",
                    r.roots, r.leaves, r.gain
                ));
            }
            transcript
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn already_optimal_network_is_untouched() {
        let mut net = Network::new(2);
        let g = net.xor(net.input(0), net.input(1)).unwrap();
        net.add_output(g);
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.gates_after, 1);
        assert_eq!(result.network.simulate_outputs().unwrap(), net.simulate_outputs().unwrap());
    }
}
