//! Funnel equivalence under solver-configuration changes.
//!
//! The raw-speed SAT core (Luby restarts, learned-clause deletion) is a
//! pure performance layer: every verdict it returns must match the legacy
//! pre-deletion solver exactly. This suite builds the compatibility graph
//! on a scaled c2670, on a planted-Trojan variant of it, on a scaled
//! sequential s35932 (where tier 3 carries about half the pairs), and on a
//! scaled MIPS (where the implication sweep, the descents and CDCL each
//! resolve tier-3 pairs), with the modern and the legacy solver, at one and
//! at four worker threads, and demands:
//!
//! - bit-identical adjacency matrices (and identical kept rare-net lists)
//!   across every solver × thread combination;
//! - identical tier verdict counts (sim-witnessed / structurally pruned /
//!   cone-enumerated / implication-refuted / descent-witnessed /
//!   SAT-resolved pair totals, the tier-3 block count and the singleton
//!   split) —
//!   the funnel's routing is solver-independent; only timings and raw CDCL
//!   work counters may differ between configurations.

use deterrent_repro::deterrent_core::{
    CompatBuildOptions, CompatStrategy, CompatibilityGraph, FunnelOptions,
};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::Netlist;
use deterrent_repro::sat::SolverConfig;
use deterrent_repro::sim::rare::RareNetAnalysis;
use deterrent_repro::trojan::TrojanGenerator;

fn build(
    netlist: &Netlist,
    analysis: &RareNetAnalysis,
    solver: SolverConfig,
    threads: usize,
) -> CompatibilityGraph {
    CompatibilityGraph::build_with(
        netlist,
        analysis,
        &CompatBuildOptions {
            threads,
            strategy: CompatStrategy::Funnel(FunnelOptions {
                solver,
                ..FunnelOptions::default()
            }),
        },
    )
}

/// The solver-independent slice of [`deterrent_repro::deterrent_core::CompatStats`]:
/// everything except timings and CDCL work counters.
fn tier_verdicts(g: &CompatibilityGraph) -> [u64; 11] {
    let s = g.stats();
    [
        s.candidate_rare_nets as u64,
        s.kept_rare_nets as u64,
        s.singleton_sim_resolved,
        s.singleton_sat_queries,
        s.pairs_sim_witnessed,
        s.pairs_structurally_pruned,
        s.pairs_cone_enumerated,
        s.pairs_implication_refuted,
        s.pairs_descent_witnessed,
        s.pairs_sat_resolved,
        s.tier3_blocks,
    ]
}

fn assert_equivalent_on(netlist: &Netlist, label: &str) {
    let analysis = RareNetAnalysis::estimate(netlist, 0.2, 8192, 17);
    let reference = build(netlist, &analysis, SolverConfig::default(), 1);
    assert!(
        reference.stats().pairs_total > 0,
        "{label}: workload too small to be meaningful"
    );
    if label.contains("MIPS") {
        let s = reference.stats();
        assert!(
            s.pairs_implication_refuted > 0
                && s.pairs_descent_witnessed > 0
                && s.pairs_sat_resolved > 0,
            "{label}: every tier-3 sub-stage should carry pairs: {s:?}"
        );
    }

    for threads in [1usize, 4] {
        for (solver_name, solver) in [
            ("modern", SolverConfig::default()),
            ("legacy", SolverConfig::legacy()),
        ] {
            let g = build(netlist, &analysis, solver, threads);
            assert_eq!(
                g.rare_nets(),
                reference.rare_nets(),
                "{label}: kept rare nets differ ({solver_name}, {threads} threads)"
            );
            assert_eq!(
                g.adjacency(),
                reference.adjacency(),
                "{label}: adjacency differs ({solver_name}, {threads} threads)"
            );
            assert_eq!(
                tier_verdicts(&g),
                tier_verdicts(&reference),
                "{label}: tier verdict counts differ ({solver_name}, {threads} threads)"
            );
        }
    }
}

#[test]
fn clean_netlist_adjacency_is_solver_and_thread_independent() {
    for (profile, label) in [
        (BenchmarkProfile::c2670().scaled(20), "clean c2670@20"),
        (BenchmarkProfile::s35932().scaled(20), "clean s35932@20"),
        (BenchmarkProfile::mips().scaled(64), "clean MIPS@64"),
    ] {
        assert_equivalent_on(&profile.generate(100), label);
    }
}

#[test]
fn infected_netlist_adjacency_is_solver_and_thread_independent() {
    let netlist = BenchmarkProfile::c2670().scaled(20).generate(100);
    let analysis = RareNetAnalysis::estimate(&netlist, 0.2, 8192, 2);
    let mut adversary = TrojanGenerator::new(&netlist, 8);
    let trojan = adversary
        .sample(&analysis, 2)
        .expect("scaled c2670 admits a 2-trigger Trojan");
    let infected = deterrent_repro::trojan::infect(&netlist, &trojan).expect("infect");
    assert_equivalent_on(&infected, "infected c2670@20");
}
