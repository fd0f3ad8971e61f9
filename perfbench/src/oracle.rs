//! The answer oracle. It checks what the engine returns without using
//! the engine: chains are simulated gate by gate (`Chain::simulate_outputs`),
//! chain text is parsed back from its `Display` form here, and networks
//! are compared with the SAT miter of `stp_network::equivalent_sat`.

use stp_chain::{Chain, OutputRef};
use stp_network::{equivalent_sat, EquivResult, Network};
use stp_tt::TruthTable;

/// `Ok` when `chain` computes exactly `specs`, output by output.
pub fn chain_computes(chain: &Chain, specs: &[TruthTable]) -> Result<(), String> {
    let outs = chain.simulate_outputs().map_err(|e| format!("chain does not simulate: {e}"))?;
    if outs.len() != specs.len() {
        return Err(format!("chain has {} outputs, spec has {}", outs.len(), specs.len()));
    }
    for (k, (got, want)) in outs.iter().zip(specs).enumerate() {
        if got != want {
            return Err(format!(
                "output {k}: chain computes {} not {}",
                got.to_hex(),
                want.to_hex()
            ));
        }
    }
    Ok(())
}

/// Parses the `Display` form of a chain over `num_inputs` inputs:
/// `x5 = 0x6(x3, x4)` gate lines, then `f1 = !x5` / `f1 = 0` output
/// lines (signals 1-based).
pub fn parse_chain(text: &str, num_inputs: usize) -> Result<Chain, String> {
    let mut chain = Chain::new(num_inputs);
    let signal = |tok: &str| -> Result<usize, String> {
        let idx: usize = tok
            .trim()
            .strip_prefix('x')
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("bad signal `{tok}`"))?;
        idx.checked_sub(1).ok_or_else(|| format!("signal `{tok}` is not 1-based"))
    };
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let (lhs, rhs) = line.split_once(" = ").ok_or_else(|| format!("bad line `{line}`"))?;
        if lhs.starts_with('x') {
            let expect = num_inputs + chain.num_gates();
            if signal(lhs)? != expect {
                return Err(format!("gate `{lhs}` out of order (expected x{})", expect + 1));
            }
            let body = rhs.strip_prefix("0x").ok_or_else(|| format!("bad gate `{rhs}`"))?;
            let (tt, args) = body.split_once('(').ok_or_else(|| format!("bad gate `{rhs}`"))?;
            let tt2 = u8::from_str_radix(tt, 16).map_err(|_| format!("bad gate table `{tt}`"))?;
            let args = args.strip_suffix(')').ok_or_else(|| format!("bad gate `{rhs}`"))?;
            let (a, b) = args.split_once(',').ok_or_else(|| format!("bad fanins `{args}`"))?;
            chain.add_gate(signal(a)?, signal(b)?, tt2).map_err(|e| e.to_string())?;
        } else if lhs.starts_with('f') {
            let tap = match rhs {
                "0" => OutputRef::Constant(false),
                "1" => OutputRef::Constant(true),
                _ => match rhs.strip_prefix('!') {
                    Some(s) => OutputRef::negated_signal(signal(s)?),
                    None => OutputRef::signal(signal(rhs)?),
                },
            };
            chain.add_output(tap);
        } else {
            return Err(format!("bad line `{line}`"));
        }
    }
    chain.validate().map_err(|e| e.to_string())?;
    Ok(chain)
}

/// `Ok` when `got` has `want`'s interface and computes the same
/// functions (SAT miter, no conflict budget).
pub fn networks_equivalent(want: &Network, got: &Network) -> Result<(), String> {
    match equivalent_sat(want, got, None).map_err(|e| format!("interface mismatch: {e}"))? {
        EquivResult::Equivalent => Ok(()),
        EquivResult::Counterexample(cex) => Err(format!("networks differ on input {cex:?}")),
        EquivResult::Unknown => Err("equivalence undecided".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_form_round_trips() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let result = stp_synth::synthesize_default(&spec).unwrap();
        for chain in &result.chains {
            let back = parse_chain(&chain.to_string(), 4).unwrap();
            assert_eq!(&back, chain);
            chain_computes(&back, std::slice::from_ref(&spec)).unwrap();
        }
    }

    #[test]
    fn wrong_answers_are_caught() {
        let spec = TruthTable::from_hex(2, "8").unwrap();
        let xor = parse_chain("x3 = 0x6(x1, x2)\nf1 = x3\n", 2).unwrap();
        assert!(chain_computes(&xor, &[spec]).is_err());
        assert!(parse_chain("x4 = 0x6(x1, x2)\n", 2).is_err());
    }
}
