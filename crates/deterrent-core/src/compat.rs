//! Offline pairwise-compatibility computation over rare nets.
//!
//! DETERRENT's offline phase decides, for every unordered pair of rare nets,
//! whether one input pattern can drive both to their rare values at once.
//! The paper answers every pair with an exact SAT justification, thrown at 64
//! processes. This module instead runs a **simulation-first funnel** that
//! reaches the same (bit-identical) adjacency with a fraction of the SAT
//! work:
//!
//! 1. **Tier 1 — sim witnesses.** The Monte-Carlo patterns already simulated
//!    for probability estimation are mined ([`sim::WitnessBank`]): any
//!    pattern under which both nets were observed at their rare values is a
//!    constructive proof of compatibility, costing one AND per 64 patterns.
//! 2. **Tier 2 — structural pruning.** Pairs whose fanin cones read disjoint
//!    sets of scan inputs ([`netlist::InputSupports`]) can be justified
//!    independently and the partial patterns merged, so the pair is
//!    compatible exactly when both nets are individually justifiable — which
//!    the singleton stage already established.
//! 3. **Tier 3 — proofs on a cone-restricted oracle.** The survivors are
//!    dealt into `ceil(pairs / 32,768)` blocks of whole anchors (pairs
//!    `(i, j)` grouped by `i`), anchor `i` to block `i mod count`, so every
//!    block gets a similar mix of easy and hard anchors and the blocks finish
//!    together. Each block gets a fresh [`sat::ConeOracle`] holding the
//!    Tseitin clauses of its rare nets' fanin cones and nothing else, and
//!    runs three sub-stages in order:
//!    - **3a — implication sweep** (static implications in the style of
//!      SOCRATES, Schulz, Trischler and Sarfert, 1988): one unit propagation
//!      per rare net of the block; the pair is incompatible when either
//!      net's rare value forces the other's non-rare value.
//!    - **3b — descents** (model reuse in the style of FRAIGs, Mishchenko et
//!      al., 2005): [`sat::ConeOracle::descend`] from each anchor, packed with
//!      its unresolved partners, repeated while it witnesses a new partner.
//!      Each returned model's pattern is simulated together with 1,023
//!      seeded variants that flip each of the cone's scan inputs with
//!      probability 1/8, in one multi-word pass over the block's fanin cones
//!      ([`sim::ConeWords`]); every block pair one of those 1,024 patterns
//!      drives to rare values on both sides is compatible.
//!    - **3c — CDCL**: one solver query per pair left, on the same oracle.
//!
//! Every verdict is exact. A unit-propagation conflict is a refutation:
//! the clauses and the rare values cannot all hold. A descent's model is a
//! complete assignment that satisfies every clause of the oracle, so its
//! scan-input values form a pattern that drives every net of the encoded
//! cones to the value the model gives it; simulation then checks that
//! pattern and its variants directly. The adjacency is therefore the
//! one the paper's per-pair SAT computes, bit for bit. Routing — which tier
//! proves which pair — is fixed too: blocks depend only on the survivor
//! list, never on the thread count, and 3a and 3b run before any CDCL query
//! in their block, on Tseitin clauses alone, without search or learning, so
//! no solver configuration can change what they prove.
//!
//! The singleton stage that precedes the tiers keeps the rare nets that are
//! individually justifiable: by a retained witness, by bounded exhaustive
//! cone enumeration ([`sim::ConeSimulator`]) when a cost model judges that
//! cheaper than SAT, or by a SAT query.

use std::time::Instant;

use exec::{split_seed, Exec};
use netlist::{InputSupports, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sat::{CircuitOracle, ConeOracle, Descent, Lit, SolverConfig, SolverStats};
use sim::rare::{RareNet, RareNetAnalysis};
use sim::{ConeSimulator, ConeWords, TestPattern, WitnessBank};

/// Below this many pairs the tier-1 witness sweep stays on the calling
/// thread: each check is a handful of word ANDs, so spawning workers would
/// cost more than the sweep itself. Results are identical either way.
const TIER1_PARALLEL_MIN_PAIRS: usize = 4096;

/// The singleton stage's enumeration cost model. Enumerating a net costs
/// `2^k / 64 · cone` word operations, where `k` is the cone's
/// scan-input support and `cone` its gate count — both known before
/// committing. A cone-restricted SAT query costs a roughly affine amount in
/// the cone size: a fixed overhead (encode + solver setup, `2^18` word-op
/// equivalents) plus a few hundred word ops per cone gate, weighted a little
/// toward enumeration because packed sweeps are branch-free, cache-friendly,
/// and parallelize perfectly. The constants are calibrated against this
/// repo's CDCL solver on the synthetic ISCAS profiles.
const SAT_BASE_WORD_OPS: u64 = 1 << 18;
/// Marginal word-op-equivalent SAT cost per cone gate.
const SAT_PER_GATE_WORD_OPS: u64 = 256;
/// Hard support ceiling regardless of the model's verdict (the
/// [`ConeSimulator`]'s size).
const ENUM_MAX_SUPPORT: u32 = 26;

/// Whether a query with the given support and cone size is cheaper to
/// enumerate than to hand to SAT. Comparing the two per query lets
/// small-support/large-cone pairs enumerate deeper than any fixed support
/// cutoff would dare, while stopping early on the cones where a fixed cutoff
/// would burn milliseconds per pair. The verdict itself is exact either way:
/// the model only chooses *where* the exact answer comes from, never *what*
/// it is.
fn admits(support: u32, cone_size: usize) -> bool {
    if support > ENUM_MAX_SUPPORT {
        return false;
    }
    let chunks = (1u64 << support).div_ceil(64);
    let enum_word_ops = chunks.saturating_mul(cone_size as u64);
    let sat_word_ops =
        SAT_BASE_WORD_OPS.saturating_add(SAT_PER_GATE_WORD_OPS.saturating_mul(cone_size as u64));
    enum_word_ops <= sat_word_ops
}

/// Per-tier toggles of the compatibility funnel. Disabling a tier pushes its
/// pairs down to the next one; with every toggle off, tier 3 resolves every
/// pair on its cone-restricted oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunnelOptions {
    /// Tier 1: resolve pairs from retained simulation witnesses.
    pub sim_witnesses: bool,
    /// Tier 2: resolve pairs whose cone supports are disjoint.
    pub structural_pruning: bool,
    /// Singleton stage: bounded exhaustive cone enumeration, run on every
    /// rare net without a witness that a cost model judges cheaper to
    /// enumerate than to solve.
    pub enumeration: bool,
    /// Configuration of every CDCL solver the build creates (restart policy,
    /// clause deletion). Verdicts — and therefore the adjacency — are
    /// solver-configuration-independent; only the work to reach them
    /// changes. `SolverConfig::legacy()` selects the pre-deletion solver for
    /// differential comparisons.
    pub solver: SolverConfig,
}

impl Default for FunnelOptions {
    fn default() -> Self {
        Self {
            sim_witnesses: true,
            structural_pruning: true,
            enumeration: true,
            solver: SolverConfig::default(),
        }
    }
}

/// How the compatibility graph is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompatStrategy {
    /// One SAT justification per pair on whole-netlist oracles (the
    /// paper's offline phase).
    AllSat,
    /// The three-tier simulation-first funnel, with implication sweeps,
    /// descents and SAT on cone-restricted oracles in tier 3.
    Funnel(FunnelOptions),
}

impl Default for CompatStrategy {
    fn default() -> Self {
        CompatStrategy::Funnel(FunnelOptions::default())
    }
}

/// Options for [`CompatibilityGraph::build_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompatBuildOptions {
    /// Worker threads for the parallel tiers (witness sweep, tier-3
    /// blocks). `0` resolves through [`exec::Exec::new`]: the
    /// `DETERRENT_THREADS` environment variable, else all available cores.
    /// The adjacency matrix is bit-identical at any thread count.
    pub threads: usize,
    /// Resolution strategy.
    pub strategy: CompatStrategy,
}

impl Default for CompatBuildOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            strategy: CompatStrategy::default(),
        }
    }
}

/// How each singleton and pair of the graph was resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompatStats {
    /// Rare nets fed into the singleton filter.
    pub candidate_rare_nets: usize,
    /// Rare nets kept (individually justifiable).
    pub kept_rare_nets: usize,
    /// Singletons resolved by simulation — a retained witness or an
    /// exhaustive cone enumeration — without SAT.
    pub singleton_sim_resolved: u64,
    /// Singleton SAT justification queries.
    pub singleton_sat_queries: u64,
    /// Unordered pairs over the kept rare nets.
    pub pairs_total: u64,
    /// Pairs resolved by tier 1 (joint simulation witness).
    pub pairs_sim_witnessed: u64,
    /// Pairs resolved by tier 2 (disjoint cone supports).
    pub pairs_structurally_pruned: u64,
    /// Pairs resolved by bounded exhaustive cone enumeration. Always 0:
    /// tier 3 now answers those pairs for less than enumerating them costs,
    /// so enumeration runs in the singleton stage only. Kept so reports
    /// that read it stay valid.
    pub pairs_cone_enumerated: u64,
    /// Pairs resolved by tier 3a: unit propagation of one net's rare value
    /// forces the other's non-rare value (incompatible, no search).
    pub pairs_implication_refuted: u64,
    /// Pairs resolved by tier 3b: a descent's model, or one of 1,023 random
    /// variants of its pattern, drives both nets to their rare values
    /// (compatible, no search).
    pub pairs_descent_witnessed: u64,
    /// Pairs resolved by tier 3c (one CDCL query each).
    pub pairs_sat_resolved: u64,
    /// Worker threads the parallel tiers ran on.
    pub threads_used: usize,
    /// Wall nanoseconds spent in tier 1 (joint-witness sweep).
    pub tier1_nanos: u64,
    /// Wall nanoseconds spent in tier 2 (structural pruning).
    pub tier2_nanos: u64,
    /// Wall nanoseconds spent in tier 3 (all three sub-tiers).
    pub tier3_nanos: u64,
    /// Worker nanoseconds spent in tier 3a (implication sweep), summed over
    /// tier-3 blocks — more than wall time when blocks run in parallel.
    pub implication_nanos: u64,
    /// Worker nanoseconds spent in tier 3b (descents), summed over tier-3
    /// blocks.
    pub descent_nanos: u64,
    /// Tier-3 blocks the survivors were dealt into — a function of the
    /// survivor count alone.
    pub tier3_blocks: u64,
    /// Wall nanoseconds of the slowest tier-3 block: tier 3's critical path
    /// when every block has a worker.
    pub tier3_block_max_nanos: u64,
    /// Aggregate solver statistics over every solver the build created
    /// (singleton oracle + one oracle per tier-3 block), including the
    /// decisions and propagations of 3a and 3b. The blocks do not depend
    /// on the thread count, but CDCL work depends on the solver
    /// configuration — unlike the adjacency and the tier pair counts.
    pub solver: SolverStats,
}

impl CompatStats {
    /// Pairwise SAT queries spent (one per tier-3 pair).
    #[must_use]
    pub fn pairwise_sat_queries(&self) -> u64 {
        self.pairs_sat_resolved
    }

    /// All SAT queries spent (singleton + pairwise).
    #[must_use]
    pub fn total_sat_queries(&self) -> u64 {
        self.singleton_sat_queries + self.pairs_sat_resolved
    }

    /// Fraction of pairs resolved without SAT, in `[0, 1]`.
    #[must_use]
    pub fn sat_free_pair_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 1.0;
        }
        1.0 - self.pairs_sat_resolved as f64 / self.pairs_total as f64
    }

    /// Total wall nanoseconds across the three pairwise tiers.
    #[must_use]
    pub fn tier_nanos_total(&self) -> u64 {
        self.tier1_nanos + self.tier2_nanos + self.tier3_nanos
    }
}

/// Either flavour of tier-3 oracle, so workers share one code path.
enum PairOracle<'a> {
    Cone(Box<ConeOracle<'a>>),
    Full(Box<CircuitOracle>),
}

impl<'a> PairOracle<'a> {
    /// The oracle `strategy` answers SAT queries with: the funnel's lazy
    /// cone-restricted one, or for `AllSat` the paper's whole-netlist one —
    /// the reference every funnel build is compared against.
    fn new(netlist: &'a Netlist, strategy: CompatStrategy) -> Self {
        match strategy {
            CompatStrategy::Funnel(f) => {
                PairOracle::Cone(Box::new(ConeOracle::with_config(netlist, f.solver)))
            }
            CompatStrategy::AllSat => PairOracle::Full(Box::new(CircuitOracle::with_config(
                netlist,
                SolverConfig::default(),
            ))),
        }
    }

    fn is_compatible(&mut self, targets: &[(NetId, bool)]) -> bool {
        match self {
            PairOracle::Cone(o) => o.is_compatible(targets),
            PairOracle::Full(o) => o.is_compatible(targets),
        }
    }

    fn solver_stats(&self) -> SolverStats {
        match self {
            PairOracle::Cone(o) => o.solver_stats(),
            PairOracle::Full(o) => o.solver_stats(),
        }
    }
}

/// Tier 3 runs in `ceil(pairs / TIER3_BLOCK_PAIRS)` blocks. The blocks are a
/// function of the survivor list alone — never of the thread count — so
/// every block proves the same pairs the same way at any parallelism. Larger
/// blocks let one descent's model witness more pairs; more blocks spread
/// tier 3 over more workers.
const TIER3_BLOCK_PAIRS: usize = 32_768;

/// Deals the tier-3 survivors (sorted by anchor `i`, then partner `j`) into
/// `ceil(len / TIER3_BLOCK_PAIRS)` blocks of whole anchors: anchor `i` goes
/// to block `i mod count`. Interleaving gives every block a similar mix of
/// early anchors, which have many partners and often hard ones, and late
/// anchors, so the blocks finish at similar times. Each block keeps the
/// survivors' order.
fn tier3_blocks(pairs: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let count = pairs.len().div_ceil(TIER3_BLOCK_PAIRS);
    // Sized exactly: the blocks hold a copy of every survivor while tier 3
    // runs, so growth slack would add to the build's peak memory.
    let mut sizes = vec![0; count];
    for &(i, _) in pairs {
        sizes[i % count] += 1;
    }
    let mut blocks: Vec<Vec<(usize, usize)>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for &(i, j) in pairs {
        blocks[i % count].push((i, j));
    }
    blocks
}

/// Packed words per descent model in 3b: its own pattern plus 1,023
/// variants, simulated in one pass over the block's fanin cones.
const DESCENT_WORDS: usize = 16;

/// Tier-3 verdicts of one block and the work spent reaching them.
#[derive(Default)]
struct BlockOutcome {
    /// One verdict per pair of the block, in block order.
    verdicts: Vec<bool>,
    refuted: u64,
    witnessed: u64,
    sat_resolved: u64,
    implication_nanos: u64,
    descent_nanos: u64,
    /// Wall time of the whole block.
    nanos: u64,
    solver: SolverStats,
}

/// Resolves one tier-3 block on a fresh oracle. `AllSat` poses one query
/// per pair. The funnel first runs two search-free sub-stages on the
/// oracle's Tseitin clauses alone, then poses one CDCL query per pair left:
///
/// - **3a, implication sweep:** one unit propagation per rare net of the
///   block; a pair is incompatible when either net's rare value forces the
///   other's non-rare value.
/// - **3b, descents:** each anchor descends with its unresolved partners as
///   the pack, again while that witnesses a new partner. The model's pattern
///   and 1,023 seeded random variants of it are simulated at once over the
///   block's fanin cones; a block pair that one of them drives rare on both
///   sides is compatible.
/// - **3c:** one CDCL query per leftover pair, on the same oracle.
fn resolve_block(
    netlist: &Netlist,
    strategy: CompatStrategy,
    rare_nets: &[RareNet],
    pairs: &[(usize, usize)],
) -> BlockOutcome {
    let block_start = Instant::now();
    let target = |k: usize| (rare_nets[k].net, rare_nets[k].rare_value);
    let mut verdicts: Vec<Option<bool>> = vec![None; pairs.len()];
    let mut out = BlockOutcome::default();
    let mut oracle = PairOracle::new(netlist, strategy);
    if let PairOracle::Cone(cone) = &mut oracle {
        let mut members: Vec<usize> = pairs.iter().flat_map(|&(i, j)| [i, j]).collect();
        members.sort_unstable();
        members.dedup();
        let roots: Vec<NetId> = members.iter().map(|&k| rare_nets[k].net).collect();
        cone.encode_roots(&roots);
        // `slot[k]` is rare net `k`'s position in `members`.
        let mut slot = vec![usize::MAX; rare_nets.len()];
        for (s, &k) in members.iter().enumerate() {
            slot[k] = s;
        }
        let rare_lits: Vec<Lit> = members
            .iter()
            .map(|&k| cone.lit(rare_nets[k].net, rare_nets[k].rare_value))
            .collect();

        let start = Instant::now();
        // `forces[a * m + b]`: member `a`'s rare value forces member `b`'s
        // non-rare value (or propagating `a` alone conflicts).
        let m = members.len();
        let mut forces = vec![false; m * m];
        let mut implied_lit = vec![false; 2 * cone.num_vars()];
        for (a, &k) in members.iter().enumerate() {
            let Some(implied) = cone.propagate_under(&[target(k)]) else {
                forces[a * m..(a + 1) * m].fill(true);
                continue;
            };
            for lit in &implied {
                implied_lit[lit.code()] = true;
            }
            for (b, &lit) in rare_lits.iter().enumerate() {
                forces[a * m + b] = implied_lit[(!lit).code()];
            }
            for lit in &implied {
                implied_lit[lit.code()] = false;
            }
        }
        for (verdict, &(i, j)) in verdicts.iter_mut().zip(pairs) {
            let (a, b) = (slot[i], slot[j]);
            if forces[a * m + b] || forces[b * m + a] {
                *verdict = Some(false);
                out.refuted += 1;
            }
        }
        out.implication_nanos = start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let w = DESCENT_WORDS;
        let mut cone_words = ConeWords::new(netlist, &roots, w);
        let mut input_words = vec![0u64; cone_words.inputs().len() * w];
        // Bit `p` of word `rare_words[s * w + q]`: pattern `64 q + p` drives
        // member `s` to its rare value.
        let mut rare_words = vec![0u64; m * w];
        let mut open: Vec<usize> = (0..pairs.len())
            .filter(|&k| verdicts[k].is_none())
            .collect();
        let mut anchor_start = 0;
        while anchor_start < pairs.len() {
            let anchor = pairs[anchor_start].0;
            let run = anchor_start
                ..pairs[anchor_start..]
                    .iter()
                    .position(|&(i, _)| i != anchor)
                    .map_or(pairs.len(), |len| anchor_start + len);
            anchor_start = run.end;
            let mut round = 0;
            loop {
                let pack: Vec<(NetId, bool)> = run
                    .clone()
                    .filter(|&k| verdicts[k].is_none())
                    .map(|k| target(pairs[k].1))
                    .collect();
                if pack.is_empty() {
                    break;
                }
                let Descent::Model(model) = cone.descend(&[target(anchor)], &pack) else {
                    break;
                };
                // Pattern 0 is the model's own; the other 1,023 flip each
                // of the cone's scan inputs with probability 1/8.
                let mut rng = StdRng::seed_from_u64(split_seed(anchor as u64, round));
                round += 1;
                let pattern = cone.pattern(&model);
                for (&pos, words) in cone_words
                    .inputs()
                    .iter()
                    .zip(input_words.chunks_exact_mut(w))
                {
                    for (q, word) in words.iter_mut().enumerate() {
                        let mut flips = rng.next_u64() & rng.next_u64() & rng.next_u64();
                        if q == 0 {
                            flips &= !1;
                        }
                        *word = if pattern[pos] { !flips } else { flips };
                    }
                }
                cone_words.run(&input_words);
                for (rare, &k) in rare_words.chunks_exact_mut(w).zip(&members) {
                    let flip = if rare_nets[k].rare_value { 0 } else { u64::MAX };
                    for (r, &word) in rare.iter_mut().zip(cone_words.net(rare_nets[k].net)) {
                        *r = word ^ flip;
                    }
                }
                let mut new_partner = false;
                open.retain(|&k| {
                    let (a, b) = (slot[pairs[k].0] * w, slot[pairs[k].1] * w);
                    let hit = rare_words[a..a + w]
                        .iter()
                        .zip(&rare_words[b..b + w])
                        .any(|(&x, &y)| x & y != 0);
                    if hit {
                        verdicts[k] = Some(true);
                        out.witnessed += 1;
                        new_partner |= run.contains(&k);
                    }
                    !hit
                });
                if !new_partner {
                    break;
                }
            }
        }
        out.descent_nanos = start.elapsed().as_nanos() as u64;
    }
    out.verdicts = pairs
        .iter()
        .zip(verdicts)
        .map(|(&(i, j), verdict)| {
            verdict.unwrap_or_else(|| {
                out.sat_resolved += 1;
                oracle.is_compatible(&[target(i), target(j)])
            })
        })
        .collect();
    out.solver = oracle.solver_stats();
    out.nanos = block_start.elapsed().as_nanos() as u64;
    out
}

/// Pairwise compatibility of the rare nets of one design.
///
/// Two rare nets are *compatible* when a single input pattern can drive both
/// to their rare values simultaneously. DETERRENT computes this relation for
/// every pair offline and uses it for action masking and cheap per-step state
/// transitions.
///
/// Rare nets are referred to by their index into
/// [`CompatibilityGraph::rare_nets`], which preserves the order of the
/// originating [`RareNetAnalysis`].
#[derive(Debug, Clone)]
pub struct CompatibilityGraph {
    rare_nets: Vec<RareNet>,
    /// Row-major adjacency matrix, `adj[i * n + j]`.
    adjacency: Vec<bool>,
    stats: CompatStats,
    /// The estimation run's witness bank, retained for downstream pattern
    /// reuse (rows are indexed by *candidate* position, see `witness_rows`).
    witnesses: Option<WitnessBank>,
    /// Bank row of each kept rare net: `witness_rows[graph_idx]` is the
    /// candidate index of `rare_nets[graph_idx]` in the originating analysis.
    witness_rows: Vec<usize>,
}

impl CompatibilityGraph {
    /// Computes the graph with the default (funnel) strategy and `threads`
    /// worker threads for the SAT tier.
    ///
    /// Rare nets whose rare value is individually unjustifiable (possible
    /// when Monte-Carlo probability estimation reports ≈0 for a value the
    /// logic can never produce) are dropped up front: they can never be part
    /// of an activatable trigger, so neither the adversary nor the agent has
    /// any use for them.
    #[must_use]
    pub fn build(netlist: &Netlist, analysis: &RareNetAnalysis, threads: usize) -> Self {
        Self::build_with(
            netlist,
            analysis,
            &CompatBuildOptions {
                threads,
                strategy: CompatStrategy::default(),
            },
        )
    }

    /// Computes the graph with explicit strategy options. Every strategy
    /// produces the identical adjacency matrix; they differ only in how much
    /// SAT work is spent reaching it.
    #[must_use]
    pub fn build_with(
        netlist: &Netlist,
        analysis: &RareNetAnalysis,
        options: &CompatBuildOptions,
    ) -> Self {
        let exec = Exec::new(options.threads);
        Self::build_on(netlist, analysis, options.strategy, &exec)
    }

    /// Like [`CompatibilityGraph::build_with`], but runs on a caller-provided
    /// executor instead of spawning its own — the build's task and timing
    /// counters then land in that executor's [`exec::ExecStats`]. This is
    /// what a [`crate::DeterrentSession`] uses so one `Exec` serves every
    /// stage.
    #[must_use]
    pub fn build_on(
        netlist: &Netlist,
        analysis: &RareNetAnalysis,
        strategy: CompatStrategy,
        exec: &Exec,
    ) -> Self {
        let funnel = match strategy {
            CompatStrategy::AllSat => FunnelOptions {
                sim_witnesses: false,
                structural_pruning: false,
                enumeration: false,
                ..FunnelOptions::default()
            },
            CompatStrategy::Funnel(f) => f,
        };
        let mut stats = CompatStats {
            candidate_rare_nets: analysis.len(),
            threads_used: exec.threads(),
            ..CompatStats::default()
        };

        // Witness rows are indexed like `analysis.rare_nets()`.
        let bank: Option<&WitnessBank> = if funnel.sim_witnesses {
            analysis.witnesses()
        } else {
            None
        };

        let mut cone_sim = funnel
            .enumeration
            .then(|| ConeSimulator::new(netlist, ENUM_MAX_SUPPORT));

        // ── Singleton stage: keep only individually justifiable nets. ──────
        // The oracle is created on first SAT need; with witnesses attached it
        // usually never is.
        let mut singleton_oracle: Option<PairOracle<'_>> = None;
        let mut rare_nets: Vec<RareNet> = Vec::with_capacity(analysis.len());
        let mut kept_candidate_idx: Vec<usize> = Vec::with_capacity(analysis.len());
        for (ci, r) in analysis.rare_nets().iter().enumerate() {
            let target = [(r.net, r.rare_value)];
            let justifiable = if bank.is_some_and(|b| b.has_witness(ci)) {
                stats.singleton_sim_resolved += 1;
                true
            } else if let Some(verdict) =
                cone_sim.as_mut().and_then(|d| d.decide_if(&target, admits))
            {
                stats.singleton_sim_resolved += 1;
                verdict
            } else {
                stats.singleton_sat_queries += 1;
                singleton_oracle
                    .get_or_insert_with(|| PairOracle::new(netlist, strategy))
                    .is_compatible(&target)
            };
            if justifiable {
                rare_nets.push(*r);
                kept_candidate_idx.push(ci);
            }
        }
        if let Some(oracle) = &singleton_oracle {
            stats.solver.merge(&oracle.solver_stats());
        }
        let n = rare_nets.len();
        stats.kept_rare_nets = n;
        stats.pairs_total = (n * n.saturating_sub(1) / 2) as u64;
        let mut adjacency = vec![false; n * n];
        // Retained for downstream witness-pattern reuse — a funnel
        // capability. All-SAT builds model the paper's baseline (and serve
        // as its cost reference), so they neither reuse witnesses nor pay
        // for copying the bank's rows.
        let witnesses = match strategy {
            CompatStrategy::Funnel(_) => analysis.witnesses().cloned(),
            CompatStrategy::AllSat => None,
        };
        if n == 0 {
            return Self {
                rare_nets,
                adjacency,
                stats,
                witnesses,
                witness_rows: kept_candidate_idx,
            };
        }

        // ── Tier 1: joint simulation witnesses. ────────────────────────────
        // Pair-chunk parallel word-AND sweep; each pair's verdict is a pure
        // function of the bank, so the chunked merge is order-exact.
        let tier1_start = Instant::now();
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let mut unresolved: Vec<(usize, usize)> = Vec::with_capacity(pairs.len());
        if let Some(bank) = bank {
            let sweep = |&(i, j): &(u32, u32)| {
                bank.pair_witnessed(
                    kept_candidate_idx[i as usize],
                    kept_candidate_idx[j as usize],
                )
            };
            let witnessed: Vec<bool> = if pairs.len() >= TIER1_PARALLEL_MIN_PAIRS {
                exec.par_map(&pairs, |_, pair| sweep(pair))
            } else {
                pairs.iter().map(sweep).collect()
            };
            for (&(i, j), hit) in pairs.iter().zip(witnessed) {
                let (i, j) = (i as usize, j as usize);
                if hit {
                    adjacency[i * n + j] = true;
                    adjacency[j * n + i] = true;
                    stats.pairs_sim_witnessed += 1;
                } else {
                    unresolved.push((i, j));
                }
            }
        } else {
            unresolved.extend(pairs.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        stats.tier1_nanos = tier1_start.elapsed().as_nanos() as u64;

        // ── Tier 2: disjoint cone supports. ────────────────────────────────
        let tier2_start = Instant::now();
        if funnel.structural_pruning && !unresolved.is_empty() {
            let roots: Vec<NetId> = rare_nets.iter().map(|r| r.net).collect();
            let supports = InputSupports::compute(netlist, &roots);
            unresolved.retain(|&(i, j)| {
                if supports.disjoint(i, j) {
                    // Both nets are individually justifiable (singleton stage)
                    // over disjoint inputs, so the partial patterns merge.
                    adjacency[i * n + j] = true;
                    adjacency[j * n + i] = true;
                    stats.pairs_structurally_pruned += 1;
                    false
                } else {
                    true
                }
            });
        }
        stats.tier2_nanos = tier2_start.elapsed().as_nanos() as u64;

        // ── Tier 3: implication sweep, descents, then SAT, per block. ──────
        let tier3_start = Instant::now();
        let blocks = tier3_blocks(&unresolved);
        stats.tier3_blocks = blocks.len() as u64;
        let outcomes = exec.par_map(&blocks, |_, block| {
            resolve_block(netlist, strategy, &rare_nets, block)
        });
        for (block, outcome) in blocks.iter().zip(outcomes) {
            for (&(i, j), compatible) in block.iter().zip(outcome.verdicts) {
                adjacency[i * n + j] = compatible;
                adjacency[j * n + i] = compatible;
            }
            stats.pairs_implication_refuted += outcome.refuted;
            stats.pairs_descent_witnessed += outcome.witnessed;
            stats.pairs_sat_resolved += outcome.sat_resolved;
            stats.implication_nanos += outcome.implication_nanos;
            stats.descent_nanos += outcome.descent_nanos;
            stats.tier3_block_max_nanos = stats.tier3_block_max_nanos.max(outcome.nanos);
            stats.solver.merge(&outcome.solver);
        }
        stats.tier3_nanos = tier3_start.elapsed().as_nanos() as u64;

        Self {
            rare_nets,
            adjacency,
            stats,
            witnesses,
            witness_rows: kept_candidate_idx,
        }
    }

    /// The rare nets the graph is defined over, in analysis order.
    #[must_use]
    pub fn rare_nets(&self) -> &[RareNet] {
        &self.rare_nets
    }

    /// Number of rare nets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rare_nets.len()
    }

    /// Returns `true` when there are no rare nets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rare_nets.is_empty()
    }

    /// Whether rare nets `i` and `j` are pairwise compatible.
    ///
    /// A net is not considered compatible with itself (adding a net twice is
    /// never useful).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn is_compatible(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.len() && j < self.len(),
            "rare-net index out of range"
        );
        i != j && self.adjacency[i * self.len() + j]
    }

    /// Whether `candidate` is pairwise compatible with every member of `set`.
    #[must_use]
    pub fn compatible_with_all(&self, set: &[usize], candidate: usize) -> bool {
        !set.contains(&candidate) && set.iter().all(|&m| self.is_compatible(m, candidate))
    }

    /// Degree (number of compatible partners) of rare net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        assert!(i < self.len(), "rare-net index out of range");
        (0..self.len())
            .filter(|&j| self.is_compatible(i, j))
            .count()
    }

    /// Number of compatible (unordered) pairs.
    #[must_use]
    pub fn num_compatible_pairs(&self) -> usize {
        let n = self.len();
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .filter(|&(i, j)| self.is_compatible(i, j))
            .count()
    }

    /// The row-major adjacency matrix (for bit-exact comparisons between
    /// build strategies).
    #[must_use]
    pub fn adjacency(&self) -> &[bool] {
        &self.adjacency
    }

    /// How each singleton and pair was resolved.
    #[must_use]
    pub fn stats(&self) -> &CompatStats {
        &self.stats
    }

    /// Total SAT queries spent building the graph (singleton + pairwise).
    #[must_use]
    pub fn sat_queries(&self) -> u64 {
        self.stats.total_sat_queries()
    }

    /// The witness bank of the originating analysis, if one was retained.
    /// Rows are indexed by candidate position; translate graph indices with
    /// the mapping behind [`CompatibilityGraph::joint_witness_pattern`].
    #[must_use]
    pub fn witness_bank(&self) -> Option<&WitnessBank> {
        self.witnesses.as_ref()
    }

    /// A concrete simulated pattern observed to drive *every* rare net of
    /// `set` (indices into [`CompatibilityGraph::rare_nets`]) to its rare
    /// value at once, when the estimation run witnessed one and the bank can
    /// re-materialize its patterns. Such a pattern makes a SAT justification
    /// of the set unnecessary.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn joint_witness_pattern(&self, set: &[usize]) -> Option<TestPattern> {
        let bank = self.witnesses.as_ref()?;
        let rows: Vec<usize> = set.iter().map(|&i| self.witness_rows[i]).collect();
        let index = bank.set_witness_index(&rows)?;
        bank.pattern(index)
    }

    /// The `(net, rare_value)` targets of the rare nets selected by `set`
    /// (indices into [`CompatibilityGraph::rare_nets`]).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn targets(&self, set: &[usize]) -> Vec<(netlist::NetId, bool)> {
        set.iter()
            .map(|&i| (self.rare_nets[i].net, self.rare_nets[i].rare_value))
            .collect()
    }

    /// Codec support: the witness-bank row (candidate index in the
    /// originating analysis) of each kept rare net.
    pub(crate) fn witness_rows(&self) -> &[usize] {
        &self.witness_rows
    }

    /// Codec support: reassembles a graph from the raw parts exposed by
    /// [`CompatibilityGraph::rare_nets`], [`CompatibilityGraph::adjacency`],
    /// [`CompatibilityGraph::stats`], [`CompatibilityGraph::witness_bank`],
    /// and [`CompatibilityGraph::witness_rows`]. The caller is responsible
    /// for internal consistency (the disk-cache decoder validates lengths
    /// before calling).
    pub(crate) fn from_raw_parts(
        rare_nets: Vec<RareNet>,
        adjacency: Vec<bool>,
        stats: CompatStats,
        witnesses: Option<WitnessBank>,
        witness_rows: Vec<usize>,
    ) -> Self {
        Self {
            rare_nets,
            adjacency,
            stats,
            witnesses,
            witness_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;

    #[test]
    fn graph_is_symmetric_and_irreflexive() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
        let analysis = RareNetAnalysis::estimate(&nl, 0.15, 2048, 1);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        assert!(graph.len() <= analysis.len());
        for i in 0..graph.len() {
            assert!(!graph.is_compatible(i, i));
            for j in 0..graph.len() {
                assert_eq!(graph.is_compatible(i, j), graph.is_compatible(j, i));
            }
        }
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 2);
        let serial = CompatibilityGraph::build(&nl, &analysis, 1);
        let parallel = CompatibilityGraph::build(&nl, &analysis, 4);
        assert_eq!(serial.adjacency, parallel.adjacency);
    }

    /// The acceptance property of the funnel: every strategy and every tier
    /// combination produces the identical adjacency matrix.
    #[test]
    fn all_strategies_produce_identical_adjacency() {
        for (profile, seed) in [
            (BenchmarkProfile::c2670().scaled(20), 7u64),
            (BenchmarkProfile::c5315().scaled(40), 3u64),
            // Tiers 3a, 3b and 3c each resolve pairs here.
            (BenchmarkProfile::mips().scaled(64), 11u64),
        ] {
            let nl = profile.generate(seed);
            let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 5);
            let reference = CompatibilityGraph::build_with(
                &nl,
                &analysis,
                &CompatBuildOptions {
                    threads: 1,
                    strategy: CompatStrategy::AllSat,
                },
            );
            let variants = [
                FunnelOptions::default(),
                FunnelOptions {
                    sim_witnesses: false,
                    ..FunnelOptions::default()
                },
                FunnelOptions {
                    structural_pruning: false,
                    ..FunnelOptions::default()
                },
                FunnelOptions {
                    enumeration: false,
                    ..FunnelOptions::default()
                },
                // Legacy solver: geometric restarts, no clause deletion.
                FunnelOptions {
                    solver: SolverConfig::legacy(),
                    ..FunnelOptions::default()
                },
            ];
            for (v, funnel) in variants.into_iter().enumerate() {
                let graph = CompatibilityGraph::build_with(
                    &nl,
                    &analysis,
                    &CompatBuildOptions {
                        threads: 2,
                        strategy: CompatStrategy::Funnel(funnel),
                    },
                );
                assert_eq!(
                    graph.adjacency,
                    reference.adjacency,
                    "variant {v} diverged on {}",
                    nl.name()
                );
                assert_eq!(graph.rare_nets, reference.rare_nets);
                if v == 0 && nl.name().starts_with("MIPS") {
                    let s = graph.stats();
                    assert!(
                        s.pairs_implication_refuted > 0
                            && s.pairs_descent_witnessed > 0
                            && s.pairs_sat_resolved > 0,
                        "every tier-3 sub-stage should carry pairs: {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_budget_scales_with_cone_size() {
        // A tiny cone affords deep enumeration…
        assert!(admits(16, 20));
        // …but the same support is declined on a cone three orders larger,
        // where 2^16/64 · cone word ops dwarf one SAT query.
        assert!(!admits(16, 50_000));
        // Small supports are always worth enumerating (≤ one chunk).
        assert!(admits(6, 50_000));
        // The hard ceiling binds regardless of cone size.
        assert!(!admits(27, 1));
        // Deeper than a fixed support-18 cutoff on small cones
        // (2^19/64 · 25 ≈ 205k word ops, under the SAT estimate).
        assert!(admits(19, 25));
    }

    #[test]
    fn tier3_blocks_cover_whole_anchors() {
        let mut pairs = Vec::new();
        for i in 0..400 {
            pairs.extend((i + 1..400).map(|j| (i, j)));
        }
        // Survivors as tier 3 sees them: sorted, with gaps in the anchors.
        pairs.retain(|&(i, j)| (i + j) % 7 != 0 && i % 5 != 3);
        let blocks = tier3_blocks(&pairs);
        let count = pairs.len().div_ceil(TIER3_BLOCK_PAIRS);
        assert!(count > 1);
        assert_eq!(blocks.len(), count);
        let mut home = vec![None; 400];
        for (b, block) in blocks.iter().enumerate() {
            for &(i, _) in block {
                // Anchors are dealt by residue…
                assert_eq!(i % count, b);
                // …so no anchor is split across blocks.
                assert_eq!(*home[i].get_or_insert(b), b);
            }
            // Each block keeps the survivors' order.
            assert!(block.windows(2).all(|w| w[0] < w[1]));
        }
        // Every pair lands in exactly one block.
        let mut dealt: Vec<(usize, usize)> = blocks.concat();
        dealt.sort_unstable();
        assert_eq!(dealt, pairs);
        assert!(tier3_blocks(&[]).is_empty());
    }

    #[test]
    fn funnel_spends_fewer_sat_queries_than_all_sat() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 8192, 5);
        let all_sat = CompatibilityGraph::build_with(
            &nl,
            &analysis,
            &CompatBuildOptions {
                threads: 1,
                strategy: CompatStrategy::AllSat,
            },
        );
        let funnel = CompatibilityGraph::build_with(&nl, &analysis, &CompatBuildOptions::default());
        assert_eq!(funnel.adjacency, all_sat.adjacency);
        assert!(
            funnel.sat_queries() < all_sat.sat_queries(),
            "funnel {} vs all-SAT {}",
            funnel.sat_queries(),
            all_sat.sat_queries()
        );
        // All-SAT resolves every pair with a query.
        assert_eq!(
            all_sat.stats().pairwise_sat_queries(),
            all_sat.stats().pairs_total
        );
    }

    #[test]
    fn stats_tiers_partition_the_pairs() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(9);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 4);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let s = graph.stats();
        assert_eq!(
            s.pairs_sim_witnessed
                + s.pairs_structurally_pruned
                + s.pairs_cone_enumerated
                + s.pairs_implication_refuted
                + s.pairs_descent_witnessed
                + s.pairs_sat_resolved,
            s.pairs_total
        );
        assert_eq!(s.kept_rare_nets, graph.len());
        assert!(s.kept_rare_nets <= s.candidate_rare_nets);
        assert_eq!(
            s.singleton_sim_resolved + s.singleton_sat_queries,
            s.candidate_rare_nets as u64
        );
        assert!(s.kept_rare_nets <= s.candidate_rare_nets);
        assert!((0.0..=1.0).contains(&s.sat_free_pair_fraction()));
        // Witnessed pairs are compatible, refuted pairs are not.
        let compatible = graph.num_compatible_pairs() as u64;
        assert!(compatible >= s.pairs_sim_witnessed + s.pairs_descent_witnessed);
        assert!(s.pairs_total - compatible >= s.pairs_implication_refuted);
    }

    #[test]
    fn singleton_sat_only_for_never_observed_nets() {
        // A rare net whose value was observed even once in simulation is
        // justifiable for free; only nets with estimated probability exactly
        // zero can need a singleton SAT query, and bounded cone enumeration
        // may discharge even those.
        let nl = BenchmarkProfile::c2670().scaled(20).generate(11);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 6);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let never_observed = analysis
            .rare_nets()
            .iter()
            .filter(|r| r.probability == 0.0)
            .count() as u64;
        assert!(graph.stats().singleton_sat_queries <= never_observed);
        assert_eq!(
            graph.stats().singleton_sim_resolved + graph.stats().singleton_sat_queries,
            analysis.len() as u64
        );
    }

    #[test]
    fn matches_direct_sat_queries() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(5);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let mut oracle = CircuitOracle::new(&nl);
        let rare = graph.rare_nets();
        for i in 0..graph.len().min(8) {
            for j in (i + 1)..graph.len().min(8) {
                let expect = oracle.is_compatible(&[
                    (rare[i].net, rare[i].rare_value),
                    (rare[j].net, rare[j].rare_value),
                ]);
                assert_eq!(graph.is_compatible(i, j), expect, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn mutually_exclusive_rare_values_are_incompatible() {
        // In the majority circuit at threshold 0.45, both polarities of many
        // nets are not rare, but t_0_1_2=1 and the OR output maj=0 cannot hold
        // together (any satisfied AND3 term forces maj=1).
        let nl = samples::majority5();
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.45);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let t = nl.net_by_name("t_0_1_2").unwrap();
        let maj = nl.net_by_name("maj").unwrap();
        let ti = graph.rare_nets().iter().position(|r| r.net == t);
        let mi = graph.rare_nets().iter().position(|r| r.net == maj);
        if let (Some(ti), Some(mi)) = (ti, mi) {
            // t rare value is 1 (p=0.125); maj rare value is 0 (p=0.5)? maj has
            // p(1)=0.5 so it is not rare at 0.45; guard for that case.
            assert!(!graph.is_compatible(ti, mi) || graph.rare_nets()[mi].rare_value);
        }
        assert!(graph.num_compatible_pairs() <= graph.len() * (graph.len().saturating_sub(1)) / 2);
    }

    #[test]
    fn compatible_with_all_and_degree() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(9);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 4);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        if graph.len() >= 3 {
            // A singleton set is compatible with any neighbour of its element.
            for j in 0..graph.len() {
                assert_eq!(
                    graph.compatible_with_all(&[0], j),
                    graph.is_compatible(0, j)
                );
            }
            // A member is never compatible with a set containing it.
            assert!(!graph.compatible_with_all(&[1], 1));
            let _ = graph.degree(0);
        }
        // Every pair is accounted for by exactly one tier.
        let s = graph.stats();
        assert_eq!(
            s.pairs_sim_witnessed
                + s.pairs_structurally_pruned
                + s.pairs_cone_enumerated
                + s.pairs_implication_refuted
                + s.pairs_descent_witnessed
                + s.pairs_sat_resolved,
            s.pairs_total
        );
    }

    #[test]
    fn empty_analysis_gives_empty_graph() {
        let nl = samples::c17();
        // c17 NANDs have no nets below 0.15 — but be robust either way.
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.01);
        let graph = CompatibilityGraph::build(&nl, &analysis, 4);
        assert!(graph.len() <= analysis.len());
        if graph.is_empty() {
            assert_eq!(graph.num_compatible_pairs(), 0);
        }
    }
}
