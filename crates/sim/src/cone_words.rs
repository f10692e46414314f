//! Multi-word packed simulation restricted to the fanin cones of a root set.
//!
//! [`crate::Simulator::run_words_into`] evaluates 64 patterns over the whole
//! netlist. A caller that only reads a few root nets, and wants many more
//! than 64 patterns per call, wastes most of that work: gates outside the
//! roots' cones never matter, and one word per gate leaves the inner loop
//! too short to pay for the per-gate dispatch. [`ConeWords`] fixes the cone
//! once, numbers its nets densely in topological order, and evaluates
//! `words` packed words per net in one gate-major pass — every word of a
//! gate before the next gate.

use netlist::{transitive_fanin, GateKind, NetId, Netlist};

/// One combinational gate of the cone: its kind, its output slot, and the
/// range of its fanin slots in the cone's flat fanin list.
#[derive(Debug, Clone)]
struct ConeGate {
    kind: GateKind,
    out: u32,
    fanin_start: u32,
    fanin_end: u32,
}

/// Packed simulation of `words × 64` patterns over the union fanin cone of a
/// fixed set of roots.
///
/// The cone's scan inputs are listed by [`ConeWords::inputs`]; a pass
/// ([`ConeWords::run`]) takes `words` packed words per cone input and leaves
/// `words` packed words on every cone net ([`ConeWords::net`]). Word `w` of
/// a net holds exactly what [`crate::Simulator::run_words_into`] gives that
/// net for the inputs of word `w` — inputs outside the cone cannot reach it.
#[derive(Debug, Clone)]
pub struct ConeWords {
    words: usize,
    /// Slot of each net of the netlist, `u32::MAX` outside the cone. Slots
    /// follow the netlist's topological order, so every fanin slot of a
    /// gate is smaller than its output slot.
    slot: Vec<u32>,
    /// Scan-input positions (in [`Netlist::scan_inputs`] order) the cone
    /// reads, ascending.
    inputs: Vec<usize>,
    input_slots: Vec<u32>,
    gates: Vec<ConeGate>,
    fanin: Vec<u32>,
    /// Slot-major values: `values[slot * words + w]`.
    values: Vec<u64>,
}

impl ConeWords {
    /// Fixes the union fanin cone of `roots` for passes of `words` packed
    /// words (`64 · words` patterns) per net.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or a root does not belong to `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist, roots: &[NetId], words: usize) -> Self {
        assert!(words > 0, "a pass needs at least one word per net");
        let mut topo_pos = vec![0u32; netlist.num_gates()];
        for (pos, &id) in netlist.topo_order().iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }
        let mut cone = transitive_fanin(netlist, roots);
        cone.sort_unstable_by_key(|id| topo_pos[id.index()]);

        let mut slot = vec![u32::MAX; netlist.num_gates()];
        for (s, &id) in cone.iter().enumerate() {
            slot[id.index()] = s as u32;
        }
        let mut inputs: Vec<(usize, u32)> = netlist
            .scan_inputs()
            .into_iter()
            .enumerate()
            .filter(|&(_, si)| slot[si.index()] != u32::MAX)
            .map(|(pos, si)| (pos, slot[si.index()]))
            .collect();
        inputs.sort_unstable();

        let mut gates = Vec::new();
        let mut fanin = Vec::new();
        for &id in &cone {
            let gate = netlist.gate(id);
            if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            let fanin_start = fanin.len() as u32;
            fanin.extend(gate.fanin.iter().map(|f| slot[f.index()]));
            gates.push(ConeGate {
                kind: gate.kind,
                out: slot[id.index()],
                fanin_start,
                fanin_end: fanin.len() as u32,
            });
        }
        Self {
            words,
            slot,
            inputs: inputs.iter().map(|&(pos, _)| pos).collect(),
            input_slots: inputs.iter().map(|&(_, s)| s).collect(),
            gates,
            fanin,
            values: vec![0; cone.len() * words],
        }
    }

    /// Scan-input positions (in [`Netlist::scan_inputs`] order) the cone
    /// reads, ascending — the order of the input words [`ConeWords::run`]
    /// expects.
    #[must_use]
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Whether `net` lies in the cone.
    fn contains(&self, net: NetId) -> bool {
        self.slot.get(net.index()).is_some_and(|&s| s != u32::MAX)
    }

    /// Evaluates the cone once. `inputs[k * words + w]` is word `w` of cone
    /// input `k` (the `k`-th entry of [`ConeWords::inputs`]).
    ///
    /// # Panics
    ///
    /// Panics unless `inputs` holds `words` words per cone input.
    pub fn run(&mut self, inputs: &[u64]) {
        let w = self.words;
        assert_eq!(
            inputs.len(),
            self.input_slots.len() * w,
            "words per net × cone inputs"
        );
        for (&s, chunk) in self.input_slots.iter().zip(inputs.chunks_exact(w)) {
            let s = s as usize * w;
            self.values[s..s + w].copy_from_slice(chunk);
        }
        for gate in &self.gates {
            let (done, rest) = self.values.split_at_mut(gate.out as usize * w);
            let out = &mut rest[..w];
            let fanin = &self.fanin[gate.fanin_start as usize..gate.fanin_end as usize];
            let word = |f: u32| &done[f as usize * w..(f as usize + 1) * w];
            let invert = match gate.kind {
                GateKind::Const0 => {
                    out.fill(0);
                    false
                }
                GateKind::Const1 => {
                    out.fill(u64::MAX);
                    false
                }
                // Buffers and inverters have exactly one fanin, so the
                // one-input AND is the identity.
                GateKind::And | GateKind::Nand | GateKind::Buf | GateKind::Not => {
                    out.fill(u64::MAX);
                    for &f in fanin {
                        out.iter_mut().zip(word(f)).for_each(|(o, &v)| *o &= v);
                    }
                    matches!(gate.kind, GateKind::Nand | GateKind::Not)
                }
                GateKind::Or | GateKind::Nor => {
                    out.fill(0);
                    for &f in fanin {
                        out.iter_mut().zip(word(f)).for_each(|(o, &v)| *o |= v);
                    }
                    gate.kind == GateKind::Nor
                }
                GateKind::Xor | GateKind::Xnor => {
                    out.fill(0);
                    for &f in fanin {
                        out.iter_mut().zip(word(f)).for_each(|(o, &v)| *o ^= v);
                    }
                    gate.kind == GateKind::Xnor
                }
                GateKind::Input | GateKind::Dff => unreachable!("sources are cone inputs"),
            };
            if invert {
                out.iter_mut().for_each(|o| *o = !*o);
            }
        }
    }

    /// The packed words of `net` from the last [`ConeWords::run`]: word `w`
    /// holds patterns `64 · w ..` of the pass.
    ///
    /// # Panics
    ///
    /// Panics if `net` lies outside the cone.
    #[must_use]
    pub fn net(&self, net: NetId) -> &[u64] {
        assert!(self.contains(net), "net {net} lies outside the cone");
        let s = self.slot[net.index()] as usize * self.words;
        &self.values[s..s + self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedValues, Simulator};
    use netlist::synth::BenchmarkProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn cone_inputs_and_membership_follow_the_roots() {
        let nl = netlist::samples::c17();
        let g22 = nl.net_by_name("G22").unwrap();
        let cone = ConeWords::new(&nl, &[g22], 2);
        // G22 = NAND(G10, G16) reads G1, G2, G3 and G6 (positions 0–3).
        assert_eq!(cone.inputs(), &[0, 1, 2, 3]);
        assert!(cone.contains(g22));
        assert!(!cone.contains(nl.net_by_name("G23").unwrap()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every cone net's word `w` equals the whole-netlist simulation of
        /// the inputs of word `w`, on random small synthesized netlists,
        /// random root sets and random input words.
        #[test]
        fn cone_pass_matches_whole_netlist_words(
            seed in any::<u64>(),
            profile in 0usize..3,
            scale in 20usize..80,
            num_roots in 1usize..6,
            words in 1usize..5,
        ) {
            let profile = match profile {
                0 => BenchmarkProfile::c2670(),
                1 => BenchmarkProfile::s13207(),
                _ => BenchmarkProfile::c6288(),
            };
            let nl = profile.scaled(scale).generate(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let roots: Vec<NetId> = (0..num_roots)
                .map(|_| NetId(rng.gen_range(0..nl.num_gates() as u32)))
                .collect();
            let mut cone = ConeWords::new(&nl, &roots, words);
            let input_words: Vec<u64> =
                (0..cone.inputs().len() * words).map(|_| rng.next_u64()).collect();
            cone.run(&input_words);

            let sim = Simulator::new(&nl);
            let mut packed = PackedValues::scratch();
            let cone_nets = transitive_fanin(&nl, &roots);
            for w in 0..words {
                // Inputs outside the cone get random words: they must not
                // matter.
                let mut full: Vec<u64> =
                    (0..nl.num_scan_inputs()).map(|_| rng.next_u64()).collect();
                for (k, &pos) in cone.inputs().iter().enumerate() {
                    full[pos] = input_words[k * words + w];
                }
                sim.run_words_into(&full, &mut packed);
                for &net in &cone_nets {
                    prop_assert_eq!(cone.net(net)[w], packed.word(net), "net {} word {}", net, w);
                }
            }
        }
    }
}
