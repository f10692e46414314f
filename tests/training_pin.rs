//! Cross-commit pin of one small training session.
//!
//! Cached `train` artifacts are keyed by configuration, not by code version,
//! so any change to the PPO math, the environment or the action mask that
//! moves a single bit of a trained policy would silently invalidate them
//! (and would require a codec `FORMAT_VERSION` bump). This test trains one
//! fixed session and compares a digest of the policy parameters, the
//! harvested sets and the generated patterns with a value recorded before
//! the RL hot loops were rewritten for speed.

use deterrent_repro::deterrent_core::{DeterrentConfig, DeterrentSession};
use deterrent_repro::netlist::synth::BenchmarkProfile;

/// Digest of the session below, recorded with the dense reference passes.
const PINNED_DIGEST: u64 = 0x5c1c_6ca1_382d_83ce;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }
}

#[test]
fn small_training_session_matches_pinned_digest() {
    let netlist = BenchmarkProfile::c2670().scaled(20).generate(2022);
    let mut config = DeterrentConfig::fast_preset()
        .with_threshold(0.3)
        .with_seed(2022)
        .with_episodes(24)
        .with_threads(1);
    // Small batches, so the 24 episodes run several PPO updates.
    config.train.ppo.batch_size = 32;
    let mut session = DeterrentSession::new(&netlist, config);
    let rare = session.analyze();
    let graph = session.build_graph(&rare);
    assert!(
        !graph.graph().is_empty(),
        "the pinned session needs rare nets"
    );
    let policy = session.train(&graph);
    let sets = session.select(&graph, &policy);
    let result = session.generate(&graph, &policy, &sets);

    let mut hash = Fnv::new();
    let snapshot = policy.policy().trainer.snapshot();
    assert!(
        snapshot.total_updates >= 4,
        "the pinned session runs updates"
    );
    hash.f64s(&snapshot.policy_params);
    hash.f64s(&snapshot.value_params);
    for (steps, losses) in &snapshot.loss_history {
        hash.u64(*steps);
        hash.f64s(&[losses.policy_loss, losses.entropy_loss, losses.value_loss]);
    }
    let harvested = &policy.policy().harvested_sets;
    hash.u64(harvested.len() as u64);
    for set in harvested {
        hash.u64(set.len() as u64);
        set.iter().for_each(|&net| hash.u64(net as u64));
    }
    hash.u64(result.patterns.len() as u64);
    for pattern in &result.patterns {
        hash.u64(pattern.width() as u64);
        (0..pattern.width()).for_each(|i| hash.u64(u64::from(pattern.bit(i))));
    }
    assert!(
        !result.patterns.is_empty(),
        "the pinned session yields patterns"
    );
    assert_eq!(
        hash.0, PINNED_DIGEST,
        "training moved: digest {:#018x}",
        hash.0
    );
}
