//! High-level justification oracles used by the DETERRENT pipeline.
//!
//! Two oracles answer the same question — "is there an input pattern that
//! drives these nets to these values?" — with different cost profiles:
//!
//! * [`CircuitOracle`] Tseitin-encodes the **whole netlist** once and reuses
//!   one incremental solver under assumptions. Best when queries touch nets
//!   scattered all over the design.
//! * [`ConeOracle`] encodes **lazily and cone-restricted**: a query only adds
//!   clauses for the not-yet-encoded part of the union of its targets'
//!   fanin cones, into the same persistent assumption-based solver. Best for
//!   the offline compatibility phase, where each query touches two small
//!   cones and most of the design is never mentioned. It also exposes the
//!   solver's search-free primitives ([`ConeOracle::propagate_under`],
//!   [`ConeOracle::descend`]) over an eagerly encoded set of roots
//!   ([`ConeOracle::encode_roots`]).

use netlist::{GateKind, NetId, Netlist};

use crate::encoder::{encode_nets_into, CircuitEncoder};
use crate::solver::{Descent, SolveResult, Solver, SolverConfig};
use crate::types::{Cnf, Lit, Var};

/// Answers "is there an input pattern that drives these nets to these
/// values?" queries against one netlist.
///
/// The oracle encodes the netlist once and keeps a single incremental
/// [`Solver`] alive across queries, so the learned clauses from earlier
/// compatibility checks speed up later ones — this mirrors how the paper
/// amortizes its offline SAT work.
///
/// Returned patterns are assignments to [`netlist::Netlist::scan_inputs`] in
/// that order (primary inputs first, then scan flip-flops), i.e. the same
/// convention as `sim::TestPattern`.
#[derive(Debug, Clone)]
pub struct CircuitOracle {
    encoder: CircuitEncoder,
    solver: Solver,
    scan_inputs: Vec<NetId>,
    queries: u64,
}

impl CircuitOracle {
    /// Builds the oracle for `netlist` (performs the Tseitin encoding).
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_config(netlist, SolverConfig::default())
    }

    /// Builds the oracle with an explicit solver configuration (restart
    /// policy, clause deletion).
    #[must_use]
    pub fn with_config(netlist: &Netlist, config: SolverConfig) -> Self {
        let encoder = CircuitEncoder::new(netlist);
        let solver = Solver::from_cnf_with_config(encoder.cnf(), config);
        Self {
            encoder,
            solver,
            scan_inputs: netlist.scan_inputs(),
            queries: 0,
        }
    }

    /// Number of scan inputs (width of returned patterns).
    #[must_use]
    pub fn pattern_width(&self) -> usize {
        self.scan_inputs.len()
    }

    /// Number of justification queries answered so far.
    #[must_use]
    pub fn num_queries(&self) -> u64 {
        self.queries
    }

    /// Searches for a scan-input assignment that simultaneously drives every
    /// `(net, value)` pair in `targets`. Returns the pattern bits (in
    /// scan-input order) or `None` when the targets are jointly
    /// unjustifiable.
    pub fn justify(&mut self, targets: &[(NetId, bool)]) -> Option<Vec<bool>> {
        self.queries += 1;
        let assumptions: Vec<Lit> = targets
            .iter()
            .map(|&(net, value)| self.encoder.lit(net, value))
            .collect();
        match self.solver.solve(&assumptions) {
            SolveResult::Sat(model) => Some(
                self.scan_inputs
                    .iter()
                    .map(|&si| model[self.encoder.var(si).index()])
                    .collect(),
            ),
            SolveResult::Unsat => None,
        }
    }

    /// Returns `true` when an input pattern exists that drives every target
    /// simultaneously (the paper's *compatibility* relation). Same search as
    /// [`CircuitOracle::justify`], without building the pattern.
    pub fn is_compatible(&mut self, targets: &[(NetId, bool)]) -> bool {
        self.queries += 1;
        let assumptions: Vec<Lit> = targets
            .iter()
            .map(|&(net, value)| self.encoder.lit(net, value))
            .collect();
        self.solver.satisfiable(&assumptions)
    }

    /// The underlying encoder (for advanced uses such as adding side
    /// constraints to a standalone solver).
    #[must_use]
    pub fn encoder(&self) -> &CircuitEncoder {
        &self.encoder
    }

    /// Accumulated solver statistics.
    #[must_use]
    pub fn solver_stats(&self) -> crate::SolverStats {
        self.solver.stats()
    }
}

const UNENCODED: u32 = u32::MAX;

/// Assumption-based justification oracle with lazy, cone-restricted
/// encoding.
///
/// One persistent CDCL solver is shared by every query; the Tseitin clauses
/// of a gate are added at most once, the first time a query's fanin cone
/// reaches it. Queries are posed as solver assumptions, so learned clauses
/// carry over between queries exactly as in [`CircuitOracle`] — but the
/// formula (and the variable range the decision heuristic scans) grows only
/// with the union of the cones actually queried, not the whole design.
#[derive(Debug)]
pub struct ConeOracle<'a> {
    netlist: &'a Netlist,
    solver: Solver,
    /// Net index -> solver variable, [`UNENCODED`] until the net's cone is
    /// first touched by a query.
    net_vars: Vec<u32>,
    scan_inputs: Vec<NetId>,
    queries: u64,
    encoded_gates: u64,
}

impl<'a> ConeOracle<'a> {
    /// Creates an empty oracle over `netlist`; no clauses are generated until
    /// the first query.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::with_config(netlist, SolverConfig::default())
    }

    /// Creates an empty oracle with an explicit solver configuration
    /// (restart policy, clause deletion).
    #[must_use]
    pub fn with_config(netlist: &'a Netlist, config: SolverConfig) -> Self {
        Self {
            netlist,
            solver: Solver::with_config(config),
            net_vars: vec![UNENCODED; netlist.num_gates()],
            scan_inputs: netlist.scan_inputs(),
            queries: 0,
            encoded_gates: 0,
        }
    }

    /// Number of scan inputs (width of returned patterns).
    #[must_use]
    pub fn pattern_width(&self) -> usize {
        self.scan_inputs.len()
    }

    /// Number of justification queries answered so far.
    #[must_use]
    pub fn num_queries(&self) -> u64 {
        self.queries
    }

    /// Number of combinational gates encoded so far (monotone over the
    /// oracle's lifetime, bounded by the netlist's gate count).
    #[must_use]
    pub fn encoded_gates(&self) -> u64 {
        self.encoded_gates
    }

    /// Adds the Tseitin clauses for every not-yet-encoded gate in the union
    /// of the fanin cones of `roots` in one batch, numbering the fresh nets'
    /// variables in net-id order. Roots encoded earlier are skipped.
    pub fn encode_roots(&mut self, roots: &[NetId]) {
        // A root with a variable has, by construction, its whole cone
        // encoded already. Collect the unencoded part of the cones (DFS
        // pruned at encoded nets), then assign variables and emit clauses.
        let mut stack: Vec<NetId> = roots
            .iter()
            .copied()
            .filter(|r| self.net_vars[r.index()] == UNENCODED)
            .collect();
        if stack.is_empty() {
            return;
        }
        let mut fresh_nets: Vec<NetId> = Vec::new();
        while let Some(id) = stack.pop() {
            if self.net_vars[id.index()] != UNENCODED {
                continue;
            }
            // Reserve with a placeholder so the DFS visits each net once;
            // real variables are assigned below in deterministic id order.
            self.net_vars[id.index()] = UNENCODED - 1;
            fresh_nets.push(id);
            let gate = self.netlist.gate(id);
            if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            for &f in &gate.fanin {
                if self.net_vars[f.index()] == UNENCODED {
                    stack.push(f);
                }
            }
        }
        fresh_nets.sort_unstable();
        for &id in &fresh_nets {
            self.net_vars[id.index()] = self.solver.new_var().0;
        }
        // Auxiliary (XOR-chain) variables are allocated through a scratch Cnf
        // whose variable space is kept aligned with the solver's.
        let mut scratch = Cnf::with_vars(self.solver.num_vars());
        self.encoded_gates +=
            encode_nets_into(self.netlist, &fresh_nets, &self.net_vars, &mut scratch) as u64;
        for clause in scratch.clauses() {
            self.solver.add_clause(clause.iter().copied());
        }
    }

    /// Searches for a scan-input assignment that simultaneously drives every
    /// `(net, value)` pair in `targets`, encoding the union of their cones on
    /// demand. Returns the pattern bits (in scan-input order; inputs outside
    /// every queried cone default to 0) or `None` when the targets are
    /// jointly unjustifiable.
    pub fn justify(&mut self, targets: &[(NetId, bool)]) -> Option<Vec<bool>> {
        let assumptions = self.query_assumptions(targets);
        match self.solver.solve(&assumptions) {
            SolveResult::Sat(model) => Some(self.pattern(&model)),
            SolveResult::Unsat => None,
        }
    }

    /// The scan-input pattern of a solver model (from a satisfiable solve
    /// or [`ConeOracle::descend`]), in scan-input order; inputs outside
    /// every encoded cone are 0.
    #[must_use]
    pub fn pattern(&self, model: &[bool]) -> Vec<bool> {
        self.scan_inputs
            .iter()
            .map(|&si| {
                let v = self.net_vars[si.index()];
                v != UNENCODED && model[v as usize]
            })
            .collect()
    }

    /// Returns `true` when an input pattern exists that drives every target
    /// simultaneously (the paper's *compatibility* relation). Same search as
    /// [`ConeOracle::justify`], without building the pattern.
    pub fn is_compatible(&mut self, targets: &[(NetId, bool)]) -> bool {
        let assumptions = self.query_assumptions(targets);
        self.solver.satisfiable(&assumptions)
    }

    /// Counts a justification query, encodes its targets' cones (one target
    /// at a time) and returns the targets as assumption literals.
    fn query_assumptions(&mut self, targets: &[(NetId, bool)]) -> Vec<Lit> {
        self.queries += 1;
        for &(net, _) in targets {
            self.encode_roots(&[net]);
        }
        targets
            .iter()
            .map(|&(net, value)| self.lit(net, value))
            .collect()
    }

    /// Number of solver variables (encoded nets plus Tseitin auxiliaries);
    /// every literal the oracle hands out has a smaller variable index.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// The solver literal asserting that `net` carries `value` — the index
    /// into the models of [`ConeOracle::descend`] and the literals of
    /// [`ConeOracle::propagate_under`].
    ///
    /// # Panics
    ///
    /// Panics if `net`'s cone has not been encoded yet.
    #[must_use]
    pub fn lit(&self, net: NetId, value: bool) -> Lit {
        let v = self.net_vars[net.index()];
        assert!(v < UNENCODED - 1, "net {net} is not encoded");
        Var(v).lit(value)
    }

    /// Unit propagation of the encoded clauses under `targets`
    /// ([`Solver::propagate_under`]): every literal it makes true, or `None`
    /// when propagation alone proves the targets jointly unjustifiable.
    /// Targets must be encoded ([`ConeOracle::encode_roots`]).
    pub fn propagate_under(&mut self, targets: &[(NetId, bool)]) -> Option<Vec<Lit>> {
        let assumptions: Vec<Lit> = targets.iter().map(|&(n, v)| self.lit(n, v)).collect();
        self.solver.propagate_under(&assumptions)
    }

    /// A learning-free, fixed-order descent ([`Solver::descend`]) under
    /// `targets` that keeps every `pack` target propagation allows. A
    /// returned model is a complete assignment of the encoded variables
    /// (index it with [`ConeOracle::lit`]) satisfying every encoded clause.
    /// Targets and pack must be encoded ([`ConeOracle::encode_roots`]).
    pub fn descend(&mut self, targets: &[(NetId, bool)], pack: &[(NetId, bool)]) -> Descent {
        let assumptions: Vec<Lit> = targets.iter().map(|&(n, v)| self.lit(n, v)).collect();
        let pack: Vec<Lit> = pack.iter().map(|&(n, v)| self.lit(n, v)).collect();
        self.solver.descend(&assumptions, &pack)
    }

    /// Accumulated solver statistics.
    #[must_use]
    pub fn solver_stats(&self) -> crate::SolverStats {
        self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;
    use sim::{Simulator, TestPattern};

    #[test]
    fn justify_rare_chain_root() {
        let nl = samples::rare_chain(5);
        let mut oracle = CircuitOracle::new(&nl);
        let root = nl.net_by_name("and4").unwrap();
        let bits = oracle.justify(&[(root, true)]).expect("SAT");
        assert!(bits.iter().all(|&b| b));
        assert_eq!(oracle.pattern_width(), 5);
        assert_eq!(oracle.num_queries(), 1);
    }

    #[test]
    fn justified_patterns_verify_in_simulation() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(8);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let mut oracle = CircuitOracle::new(&nl);
        let sim = Simulator::new(&nl);
        let mut justified = 0;
        for rare in analysis.rare_nets() {
            if let Some(bits) = oracle.justify(&[(rare.net, rare.rare_value)]) {
                let pattern = TestPattern::new(bits);
                assert!(
                    sim.activates(&pattern, &[(rare.net, rare.rare_value)]),
                    "SAT pattern must activate {}",
                    nl.net_name(rare.net)
                );
                justified += 1;
            }
        }
        assert!(justified > 0, "at least one rare net should be justifiable");
    }

    #[test]
    fn impossible_targets_are_rejected() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::new(&nl);
        let g10 = nl.net_by_name("G10").unwrap();
        let g1 = nl.net_by_name("G1").unwrap();
        // G10 = NAND(G1, G3) = 0 forces G1 = 1.
        assert!(!oracle.is_compatible(&[(g10, false), (g1, false)]));
        assert!(oracle.is_compatible(&[(g10, false), (g1, true)]));
    }

    #[test]
    fn incremental_queries_reuse_solver() {
        let nl = samples::majority5();
        let mut oracle = CircuitOracle::new(&nl);
        let maj = nl.net_by_name("maj").unwrap();
        for _ in 0..5 {
            assert!(oracle.is_compatible(&[(maj, true)]));
            assert!(oracle.is_compatible(&[(maj, false)]));
        }
        assert_eq!(oracle.num_queries(), 10);
    }

    #[test]
    fn conflicting_same_net_targets_unsat() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::new(&nl);
        let g22 = nl.net_by_name("G22").unwrap();
        assert!(!oracle.is_compatible(&[(g22, true), (g22, false)]));
    }

    #[test]
    fn cone_oracle_agrees_with_full_oracle() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(8);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let targets = analysis.targets();
        let mut full = CircuitOracle::new(&nl);
        let mut cone = ConeOracle::new(&nl);
        // Singletons and all pairs over a prefix must agree exactly.
        let k = targets.len().min(8);
        for i in 0..k {
            assert_eq!(
                full.is_compatible(&targets[i..=i]),
                cone.is_compatible(&targets[i..=i]),
                "singleton {i}"
            );
            for j in (i + 1)..k {
                let pair = [targets[i], targets[j]];
                assert_eq!(
                    full.is_compatible(&pair),
                    cone.is_compatible(&pair),
                    "pair ({i},{j})"
                );
            }
        }
        assert_eq!(cone.num_queries(), (k + k * (k - 1) / 2) as u64);
        // Lazy encoding never exceeds the design size and in practice stays
        // well below it on cone-structured queries.
        assert!(cone.encoded_gates() <= nl.num_logic_gates() as u64);
    }

    #[test]
    fn cone_oracle_patterns_verify_in_simulation() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(5);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 9);
        let mut oracle = ConeOracle::new(&nl);
        let sim = Simulator::new(&nl);
        let mut justified = 0;
        for rare in analysis.rare_nets() {
            if let Some(bits) = oracle.justify(&[(rare.net, rare.rare_value)]) {
                assert_eq!(bits.len(), oracle.pattern_width());
                let pattern = TestPattern::new(bits);
                assert!(
                    sim.activates(&pattern, &[(rare.net, rare.rare_value)]),
                    "cone-oracle pattern must activate {}",
                    nl.net_name(rare.net)
                );
                justified += 1;
            }
        }
        assert!(justified > 0, "at least one rare net should be justifiable");
    }

    #[test]
    fn cone_oracle_encodes_incrementally() {
        let nl = samples::c17();
        let mut oracle = ConeOracle::new(&nl);
        assert_eq!(oracle.encoded_gates(), 0);
        let g22 = nl.net_by_name("G22").unwrap();
        let g23 = nl.net_by_name("G23").unwrap();
        assert!(oracle.is_compatible(&[(g22, true)]));
        let after_first = oracle.encoded_gates();
        assert!(after_first > 0);
        // Re-querying the same cone adds no clauses.
        assert!(oracle.is_compatible(&[(g22, false)]));
        assert_eq!(oracle.encoded_gates(), after_first);
        // A second, overlapping cone only adds its new gates.
        assert!(oracle.is_compatible(&[(g23, true)]));
        assert!(oracle.encoded_gates() > after_first);
        assert!(oracle.encoded_gates() <= nl.num_logic_gates() as u64);
    }

    #[test]
    fn descent_models_and_implications_hold_in_simulation() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(5);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 9);
        let targets = analysis.targets();
        let mut oracle = ConeOracle::new(&nl);
        let roots: Vec<NetId> = targets.iter().map(|&(net, _)| net).collect();
        oracle.encode_roots(&roots);
        let sim = Simulator::new(&nl);
        let mut models = 0;
        for (k, &target) in targets.iter().enumerate() {
            let pack: Vec<(NetId, bool)> = targets[k + 1..].to_vec();
            if let Descent::Model(model) = oracle.descend(&[target], &pack) {
                // The model's pattern drives every encoded target to the
                // value the model gives it — the anchor and each kept pack
                // target included.
                let values = sim.run(&TestPattern::new(oracle.pattern(&model)));
                assert_eq!(values.value(target.0), target.1);
                for &(net, _) in &pack {
                    let lit = oracle.lit(net, true);
                    assert_eq!(values.value(net), model[lit.var().index()]);
                }
                models += 1;
            }
            // Every implied target value holds in a model of the target; a
            // propagation conflict means the target is unjustifiable.
            let implied = oracle.propagate_under(&[target]);
            let justified = oracle.justify(&[target]);
            assert!(implied.is_some() || justified.is_none());
            if let (Some(implied), Some(bits)) = (implied, justified) {
                let values = sim.run(&TestPattern::new(bits));
                for &(net, _) in &targets {
                    let lit = oracle.lit(net, true);
                    if implied.contains(&lit) {
                        assert!(values.value(net));
                    } else if implied.contains(&!lit) {
                        assert!(!values.value(net));
                    }
                }
            }
        }
        assert!(models > 0, "no descent reached a model");
    }

    #[test]
    fn cone_oracle_rejects_impossible_targets() {
        let nl = samples::c17();
        let mut oracle = ConeOracle::new(&nl);
        let g10 = nl.net_by_name("G10").unwrap();
        let g1 = nl.net_by_name("G1").unwrap();
        assert!(!oracle.is_compatible(&[(g10, false), (g1, false)]));
        assert!(oracle.is_compatible(&[(g10, false), (g1, true)]));
        assert!(!oracle.is_compatible(&[(g10, true), (g10, false)]));
    }
}
