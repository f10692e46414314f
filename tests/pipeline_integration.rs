//! Cross-crate integration tests: the full DETERRENT flow, baselines, and
//! Trojan evaluation working together on the same designs.

use deterrent_repro::baselines::{RandomPatterns, TestGenerator};
use deterrent_repro::deterrent_core::{
    CompatibilityGraph, DeterrentConfig, DeterrentResult, DeterrentSession, RewardMode,
};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::{bench, samples};
use deterrent_repro::sat::CircuitOracle;
use deterrent_repro::sim::rare::RareNetAnalysis;
use deterrent_repro::sim::{Simulator, TestPattern};
use deterrent_repro::trojan::{CoverageEvaluator, TrojanGenerator};

fn test_netlist(seed: u64) -> deterrent_repro::netlist::Netlist {
    BenchmarkProfile::c2670().scaled(20).generate(seed)
}

/// Runs DETERRENT over a precomputed rare-net analysis.
fn run_from_analysis(
    netlist: &deterrent_repro::netlist::Netlist,
    config: DeterrentConfig,
    analysis: &RareNetAnalysis,
) -> DeterrentResult {
    let mut session = DeterrentSession::new(netlist, config);
    let rare = session.import_analysis(analysis.clone());
    session.run_from(&rare)
}

#[test]
fn deterrent_patterns_verified_end_to_end() {
    let netlist = test_netlist(100);
    let config = DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_seed(17);
    let result = DeterrentSession::new(&netlist, config).run();
    assert!(!result.patterns.is_empty());

    // Every selected set must be jointly justifiable and every generated
    // pattern must activate the rare nets of at least its own set.
    let analysis = RareNetAnalysis::estimate(&netlist, 0.2, 8192, 17);
    let graph = CompatibilityGraph::build(&netlist, &analysis, 2);
    let sim = Simulator::new(&netlist);
    for pattern in &result.patterns {
        let values = sim.run(pattern);
        let excited = graph
            .rare_nets()
            .iter()
            .filter(|r| values.value(r.net) == r.rare_value)
            .count();
        assert!(excited >= 1, "each DETERRENT pattern excites rare logic");
    }
}

#[test]
fn deterrent_beats_random_at_equal_budget() {
    let netlist = test_netlist(7);
    let analysis = RareNetAnalysis::estimate(&netlist, 0.2, 8192, 3);
    let mut adversary = TrojanGenerator::new(&netlist, 42);
    let trojans = adversary.sample_many(&analysis, 2, 30);
    if trojans.len() < 5 {
        // Extremely small scaled designs occasionally admit too few triggers;
        // the statistical comparison would be meaningless.
        return;
    }
    let evaluator = CoverageEvaluator::new(&netlist, trojans);

    let config = DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_seed(3);
    let deterrent = run_from_analysis(&netlist, config, &analysis);
    let deterrent_cov = evaluator.evaluate(&deterrent.patterns).coverage_percent();

    let random =
        RandomPatterns::new(deterrent.test_length().max(1), 5).generate(&netlist, &analysis);
    let random_cov = evaluator.evaluate(&random).coverage_percent();

    assert!(
        deterrent_cov >= random_cov,
        "DETERRENT ({deterrent_cov:.1}%) should not lose to random ({random_cov:.1}%) at equal budget"
    );
}

#[test]
fn masking_does_not_reduce_best_set_quality() {
    // Theorem 3.1: masking loses nothing. With identical budgets the masked
    // agent should find compatible sets at least as large as the unmasked one
    // (statistically; we allow equality).
    let netlist = test_netlist(55);
    let analysis = RareNetAnalysis::estimate(&netlist, 0.2, 8192, 9);
    let masked_cfg = DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_episodes(40)
        .with_seed(11);
    let unmasked_cfg = masked_cfg
        .clone()
        .with_ablation(RewardMode::AllSteps, false);

    let masked = run_from_analysis(&netlist, masked_cfg, &analysis);
    let unmasked = run_from_analysis(&netlist, unmasked_cfg, &analysis);
    assert!(
        masked.metrics.max_compatible_set >= unmasked.metrics.max_compatible_set,
        "masked {} vs unmasked {}",
        masked.metrics.max_compatible_set,
        unmasked.metrics.max_compatible_set
    );
}

#[test]
fn bench_format_round_trip_preserves_pipeline_behaviour() {
    // Write the netlist to .bench text, parse it back, and confirm rare-net
    // analysis sees the same circuit.
    let netlist = test_netlist(200);
    let text = bench::write(&netlist);
    let reparsed = bench::parse(netlist.name(), &text).expect("round trip");
    let a = RareNetAnalysis::estimate(&netlist, 0.2, 4096, 1);
    let b = RareNetAnalysis::estimate(&reparsed, 0.2, 4096, 1);
    assert_eq!(a.len(), b.len());
}

#[test]
fn infected_netlists_expose_payload_only_under_trigger() {
    let netlist = test_netlist(300);
    let analysis = RareNetAnalysis::estimate(&netlist, 0.2, 8192, 2);
    let mut adversary = TrojanGenerator::new(&netlist, 8);
    let Some(trojan) = adversary.sample(&analysis, 2) else {
        return;
    };
    let infected = deterrent_repro::trojan::infect(&netlist, &trojan).expect("infect");
    let golden_sim = Simulator::new(&netlist);
    let bad_sim = Simulator::new(&infected);

    // A SAT-derived triggering pattern must cause an output mismatch.
    let mut oracle = CircuitOracle::new(&netlist);
    let bits = oracle
        .justify(&trojan.trigger)
        .expect("trigger satisfiable");
    let fire = TestPattern::new(bits);
    let golden_out: Vec<bool> = netlist
        .primary_outputs()
        .iter()
        .map(|&o| golden_sim.run(&fire).value(o))
        .collect();
    let bad_out: Vec<bool> = infected
        .primary_outputs()
        .iter()
        .map(|&o| bad_sim.run(&fire).value(o))
        .collect();
    assert_ne!(
        golden_out, bad_out,
        "payload must corrupt an output when triggered"
    );
}

#[test]
fn hand_written_samples_flow_through_every_substrate() {
    for nl in [samples::c17(), samples::adder4(), samples::scan_counter3()] {
        let analysis = RareNetAnalysis::estimate(&nl, 0.4, 2048, 1);
        let _ = CompatibilityGraph::build(&nl, &analysis, 1);
        let mut oracle = CircuitOracle::new(&nl);
        for &out in nl.primary_outputs() {
            // Each output should be justifiable to at least one value.
            assert!(
                oracle.is_compatible(&[(out, true)]) || oracle.is_compatible(&[(out, false)]),
                "{}: output {} unjustifiable both ways",
                nl.name(),
                nl.net_name(out)
            );
        }
    }
}
