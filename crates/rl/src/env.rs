//! Environment interface and a generic episode-based training loop.

use crate::{PpoLosses, PpoTrainer, Transition};

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Observation after the step.
    pub state: Vec<f64>,
    /// Reward for the step.
    pub reward: f64,
    /// Whether the episode has terminated.
    pub done: bool,
}

/// A discrete-action episodic environment.
///
/// `deterrent-core` implements this trait for the compatible-rare-net MDP;
/// the trait is deliberately minimal so baselines and tests can provide toy
/// environments too.
pub trait Environment {
    /// Dimension of the observation vector.
    fn state_dim(&self) -> usize;
    /// Number of discrete actions.
    fn num_actions(&self) -> usize;
    /// Starts a new episode and returns the initial observation.
    fn reset(&mut self) -> Vec<f64>;
    /// Applies `action` and returns the outcome.
    fn step(&mut self, action: usize) -> StepOutcome;
    /// Mask of currently valid actions (empty = all valid). Re-queried after
    /// every step.
    fn action_mask(&self) -> Vec<bool> {
        Vec::new()
    }
    /// Re-seeds the environment's internal randomness, if it has any.
    ///
    /// Parallel rollout collection clones one prototype environment per
    /// episode and calls this with a seed split from the *episode index*, so
    /// episode initial conditions are reproducible and independent of the
    /// thread count. Deterministic environments can ignore it (the default
    /// does nothing).
    fn reseed(&mut self, _seed: u64) {}
}

/// Options for [`train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainOptions {
    /// Number of episodes to run.
    pub episodes: usize,
    /// Maximum steps per episode (episodes may end earlier via `done`). An
    /// episode's last transition is recorded as terminal either way.
    pub max_steps: usize,
    /// Seed recorded in the report (the trainer carries its own RNG).
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            episodes: 100,
            max_steps: 64,
            seed: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Total reward obtained in each episode.
    pub episode_rewards: Vec<f64>,
    /// Number of environment steps taken in each episode.
    pub episode_lengths: Vec<usize>,
    /// Loss snapshots `(total_env_steps, losses)` for every PPO update.
    pub losses: Vec<(u64, PpoLosses)>,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
}

impl TrainReport {
    /// Mean episode reward over the last `n` episodes (or all of them if
    /// fewer were run).
    #[must_use]
    pub fn mean_reward_last(&self, n: usize) -> f64 {
        if self.episode_rewards.is_empty() {
            return 0.0;
        }
        let start = self.episode_rewards.len().saturating_sub(n);
        let window = &self.episode_rewards[start..];
        window.iter().sum::<f64>() / window.len() as f64
    }

    /// Best (maximum) episode reward seen.
    #[must_use]
    pub fn best_reward(&self) -> f64 {
        self.episode_rewards
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Episodes completed per minute of wall-clock time.
    #[must_use]
    pub fn episodes_per_minute(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.episode_rewards.len() as f64 / (self.wall_seconds / 60.0)
    }

    /// Environment steps per minute of wall-clock time.
    #[must_use]
    pub fn steps_per_minute(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.episode_lengths.iter().sum::<usize>() as f64 / (self.wall_seconds / 60.0)
    }
}

/// Marks an episode's last transition terminal. An episode cut short at
/// `max_steps` (or by an exhausted action mask) ends with `done = false`;
/// left that way, GAE would bootstrap its last step from the value of the
/// *next* episode's first state.
pub(crate) fn close_episode(transitions: &mut [Transition]) {
    if let Some(last) = transitions.last_mut() {
        last.done = true;
    }
}

/// Runs the standard episode loop: sample actions from `trainer`, store
/// transitions, and trigger PPO updates at episode boundaries.
pub fn train<E: Environment>(
    env: &mut E,
    trainer: &mut PpoTrainer,
    options: &TrainOptions,
) -> TrainReport {
    let start = std::time::Instant::now();
    let mut report = TrainReport::default();
    let mut episode = Vec::new();
    for _ in 0..options.episodes {
        let mut state = env.reset();
        let mut total_reward = 0.0;
        for _ in 0..options.max_steps {
            let mask = env.action_mask();
            if !mask.is_empty() && !mask.iter().any(|&m| m) {
                break;
            }
            let (action, log_prob, value) = trainer.select_action(&state, &mask);
            let outcome = env.step(action);
            total_reward += outcome.reward;
            episode.push(Transition {
                state: std::mem::take(&mut state),
                mask,
                action,
                reward: outcome.reward,
                done: outcome.done,
                log_prob,
                value,
            });
            state = outcome.state;
            if outcome.done {
                break;
            }
        }
        close_episode(&mut episode);
        let steps = episode.len();
        for transition in episode.drain(..) {
            trainer.record(transition);
        }
        if let Some(losses) = trainer.update_if_ready() {
            report.losses.push((trainer.total_steps(), losses));
        }
        report.episode_rewards.push(total_reward);
        report.episode_lengths.push(steps);
    }
    report.wall_seconds = start.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PpoConfig;

    /// Corridor environment: the agent starts at position 0 and must walk
    /// right (action 1) to reach position `goal`; walking left ends the
    /// episode with no reward.
    struct Corridor {
        position: usize,
        goal: usize,
    }

    impl Environment for Corridor {
        fn state_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.position = 0;
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            if action == 1 {
                self.position += 1;
                if self.position >= self.goal {
                    StepOutcome {
                        state: vec![self.position as f64 / self.goal as f64],
                        reward: 1.0,
                        done: true,
                    }
                } else {
                    StepOutcome {
                        state: vec![self.position as f64 / self.goal as f64],
                        reward: 0.0,
                        done: false,
                    }
                }
            } else {
                StepOutcome {
                    state: vec![self.position as f64 / self.goal as f64],
                    reward: 0.0,
                    done: true,
                }
            }
        }
    }

    #[test]
    fn ppo_solves_corridor() {
        let mut env = Corridor {
            position: 0,
            goal: 4,
        };
        let config = PpoConfig {
            batch_size: 64,
            learning_rate: 0.01,
            hidden_sizes: vec![16],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(1, 2, &config, 2);
        let report = train(
            &mut env,
            &mut trainer,
            &TrainOptions {
                episodes: 600,
                max_steps: 8,
                seed: 0,
            },
        );
        assert!(
            report.mean_reward_last(100) > 0.7,
            "agent should learn to walk right: {}",
            report.mean_reward_last(100)
        );
        assert!(report.best_reward() >= 1.0);
        assert!(report.episodes_per_minute() > 0.0);
        assert!(report.steps_per_minute() > 0.0);
    }

    #[test]
    fn default_mask_allows_everything() {
        struct NoMask;
        impl Environment for NoMask {
            fn state_dim(&self) -> usize {
                1
            }
            fn num_actions(&self) -> usize {
                3
            }
            fn reset(&mut self) -> Vec<f64> {
                vec![0.0]
            }
            fn step(&mut self, _action: usize) -> StepOutcome {
                StepOutcome {
                    state: vec![0.0],
                    reward: 0.0,
                    done: true,
                }
            }
        }
        assert!(NoMask.action_mask().is_empty());
    }

    /// Pays 1 per step and never ends by itself; its state counts steps.
    #[derive(Clone)]
    struct NeverDone {
        t: usize,
    }

    impl Environment for NeverDone {
        fn state_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.t = 0;
            vec![0.0]
        }
        fn step(&mut self, _action: usize) -> StepOutcome {
            self.t += 1;
            StepOutcome {
                state: vec![self.t as f64],
                reward: 1.0,
                done: false,
            }
        }
    }

    #[test]
    fn episodes_cut_at_max_steps_are_closed_for_gae() {
        let config = PpoConfig {
            batch_size: 1000,
            ..PpoConfig::default()
        };
        let (gamma, lambda) = (config.gamma, config.gae_lambda);
        // Both episodes must get the advantages a buffer holding only that
        // episode gives; bootstrapping across the cut would not.
        let check = |transitions: &[Transition]| {
            assert_eq!(transitions.len(), 4);
            let mut both = crate::RolloutBuffer::new();
            transitions.iter().for_each(|t| both.push(t.clone()));
            let (adv, _) = both.advantages_and_returns(gamma, lambda);
            for (e, episode) in transitions.chunks(2).enumerate() {
                assert!(!episode[0].done && episode[1].done, "episode {e}");
                let mut alone = crate::RolloutBuffer::new();
                episode.iter().for_each(|t| alone.push(t.clone()));
                let (want, _) = alone.advantages_and_returns(gamma, lambda);
                assert_eq!(&adv[2 * e..2 * e + 2], want.as_slice(), "episode {e}");
            }
        };

        let mut trainer = PpoTrainer::new(1, 2, &config, 4);
        let options = TrainOptions {
            episodes: 2,
            max_steps: 2,
            seed: 0,
        };
        let report = train(&mut NeverDone { t: 0 }, &mut trainer, &options);
        assert_eq!(report.episode_lengths, vec![2, 2]);
        check(trainer.buffer().transitions());

        let outcomes = crate::collect_episodes(
            &NeverDone { t: 0 },
            &trainer,
            &crate::CollectOptions {
                count: 2,
                max_steps: 2,
                seed: 5,
                first_episode: 0,
                greedy: false,
            },
            &exec::Exec::serial(),
            |_| (),
        );
        let collected: Vec<Transition> = outcomes.into_iter().flat_map(|e| e.transitions).collect();
        check(&collected);
    }

    #[test]
    fn empty_report_statistics() {
        let report = TrainReport::default();
        assert_eq!(report.mean_reward_last(10), 0.0);
        assert_eq!(report.episodes_per_minute(), 0.0);
    }
}
