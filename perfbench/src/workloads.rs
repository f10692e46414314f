//! The three workloads: set-up, the timed part, and the checks on their
//! outputs.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use campaign::{
    base_config_for, CampaignCell, CampaignPlan, CellResult, NetlistSpec, ProgressSink, RunPolicy,
};
use deterrent_core::cache::cache_stats;
use deterrent_core::{
    generate_patterns_with, ArtifactStore, CompatSetEnv, CompatStats, CompatStrategy,
    CompatibilityGraph, DeterrentConfig, DeterrentResult, DeterrentSession, GraphArtifact,
    PolicyArtifact, Stage, StageMetrics,
};
use exec::{split_seed, Exec, ExecStats};
use netlist::synth::BenchmarkProfile;
use netlist::Netlist;
use rl::{collect_episodes, CollectOptions, PpoTrainer, TrainReport};
use sat::CircuitOracle;
use sim::rare::RareNetAnalysis;
use sim::Simulator;
use trojan::{CoverageEvaluator, Trojan, TrojanGenerator};

use crate::probe::{self, graph_digest, median, EnvTiming, TimedEnv, Tracer};
use crate::{Args, Report, Workload, NETLIST_SEED};

/// Session worker threads of graph_seq and retrain_c2670, and campaign
/// workers of campaign_grid: fixed, so solver counts repeat exactly.
const THREADS: usize = 2;
/// Probability patterns of the harness configuration.
const PATTERNS: usize = 8192;
/// Rareness threshold θ of graph_seq and retrain_c2670.
const THETA: f64 = 0.1;
/// Planted Trojans and their trigger width (the harness protocol).
const TROJANS: usize = 100;
const TROJAN_WIDTH: usize = 4;
/// Adjacency digests verified against `CompatStrategy::AllSat`, as
/// `label<TAB>seed<TAB>digest` lines.
const DIGESTS: &str = include_str!("../digests.tsv");

/// Input sizes: the measured workloads, or a tiny smoke-test variant.
pub struct Sizes {
    /// graph_seq profiles and their scale divisors.
    graph_seq: Vec<(BenchmarkProfile, usize)>,
    retrain_scale: usize,
    retrain_episodes: usize,
    campaign_scale: usize,
    campaign_episodes: usize,
    /// Set-ups per repetition of graph_seq and campaign_grid (netlist
    /// synthesis takes milliseconds there); retrain_c2670 sets up once.
    cheap_setups: usize,
    /// Pairs per graph re-checked with whole-netlist SAT.
    spot_pairs: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            graph_seq: vec![
                (BenchmarkProfile::s35932(), 8),
                (BenchmarkProfile::mips(), 16),
            ],
            retrain_scale: 1,
            retrain_episodes: 100,
            campaign_scale: 5,
            campaign_episodes: 40,
            cheap_setups: 5,
            spot_pairs: 48,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Self {
        Self {
            graph_seq: vec![
                (BenchmarkProfile::s35932(), 20),
                (BenchmarkProfile::mips(), 20),
            ],
            retrain_scale: 20,
            retrain_episodes: 4,
            campaign_scale: 20,
            campaign_episodes: 4,
            cheap_setups: 1,
            spot_pairs: 8,
        }
    }
}

fn netlist_of(profile: &BenchmarkProfile, scale: usize) -> Netlist {
    if scale <= 1 {
        profile.generate(NETLIST_SEED)
    } else {
        profile.scaled(scale).generate(NETLIST_SEED)
    }
}

fn graph_label(workload: Workload, profile: &str, scale: usize, theta: f64, seed: u64) -> String {
    format!("{}:{profile}/{scale}@{theta}#{seed}", workload.name())
}

fn expected_digest(label: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut fields = line.split('\t');
        let (l, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (l == label && s.parse() == Ok(seed)).then(|| u64::from_str_radix(d, 16).ok())?
    })
}

/// State every workload shares.
struct Ctx<'a> {
    args: &'a Args,
    sizes: &'a Sizes,
    work: &'a Path,
    tracer: Tracer,
    report: Report,
    /// Digest of each graph label seen so far in this run.
    digests: Vec<(String, u64)>,
    traced_iterations: usize,
}

impl Ctx<'_> {
    /// Checks one graph: its digest repeats within the run and matches the
    /// recorded AllSat digest for this seed; the first time a label is seen,
    /// a seeded sample of pairs is re-decided with whole-netlist SAT.
    fn check_graph(&mut self, label: &str, netlist: &Netlist, graph: &CompatibilityGraph) {
        let digest = graph_digest(graph);
        match self.digests.iter().find(|(l, _)| l == label) {
            Some(&(_, first)) => self.report.check(first == digest, || {
                format!("{label}: graph differs between repetitions")
            }),
            None => {
                let stats = graph.stats();
                eprintln!(
                    "[perfbench] {label}: {} rare nets, {} pairs, {} tier-3, {} decisions",
                    graph.len(),
                    stats.pairs_total,
                    stats.pairs_sat_resolved,
                    stats.solver.decisions
                );
                if let Some(expected) = expected_digest(label, self.args.seed) {
                    self.report.check(expected == digest, || {
                        format!("{label}: digest {digest:016x} != AllSat digest {expected:016x}")
                    });
                }
                let ok = spot_check(netlist, graph, self.sizes.spot_pairs, self.args.seed);
                self.report.check(ok, || {
                    format!("{label}: adjacency disagrees with whole-netlist SAT")
                });
                self.digests.push((label.to_string(), digest));
            }
        }
    }

    /// Checks final patterns: each drives at least one rare net to its rare
    /// value, and there are at most `k`.
    fn check_patterns(
        &mut self,
        label: &str,
        netlist: &Netlist,
        result: &DeterrentResult,
        k: usize,
    ) {
        let sim = Simulator::new(netlist);
        let all_activate = result.patterns.iter().all(|p| {
            let values = sim.run(p);
            result
                .rare_nets
                .iter()
                .any(|r| values.value(r.net) == r.rare_value)
        });
        self.report.check(all_activate, || {
            format!("{label}: a pattern activates no rare net")
        });
        let n = result.patterns.len();
        self.report
            .check(n <= k, || format!("{label}: {n} patterns exceed k = {k}"));
    }

    fn set_layer_time(&mut self, metric: &'static str, span: &str) {
        let per_iteration = self.tracer.total(span) / self.traced_iterations.max(1) as f64;
        self.report.set(metric, per_iteration);
    }

    /// Zeroes the metrics of layers this workload does not run.
    fn absent(&mut self, names: &[&'static str]) {
        for &name in names {
            self.report.set(name, 0.0);
        }
    }
}

/// Re-decides `spot_pairs` seeded pairs with a whole-netlist SAT oracle.
fn spot_check(netlist: &Netlist, graph: &CompatibilityGraph, pairs: usize, seed: u64) -> bool {
    let n = graph.len();
    if n < 2 {
        return true;
    }
    let mut oracle = CircuitOracle::new(netlist);
    let rare = graph.rare_nets();
    (0..pairs as u64).all(|k| {
        let i = (split_seed(seed, 2 * k) % n as u64) as usize;
        let j = (split_seed(seed, 2 * k + 1) % n as u64) as usize;
        i == j
            || oracle.is_compatible(&[
                (rare[i].net, rare[i].rare_value),
                (rare[j].net, rare[j].rare_value),
            ]) == graph.is_compatible(i, j)
    })
}

/// Runs the workload named in `args`.
pub fn run(args: &Args, sizes: &Sizes, work: &Path) -> (Report, Tracer) {
    let mut ctx = Ctx {
        args,
        sizes,
        work,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
        digests: Vec::new(),
        traced_iterations: 0,
    };
    match args.workload {
        Workload::GraphSeq => graph_seq(&mut ctx),
        Workload::RetrainC2670 => retrain_c2670(&mut ctx),
        Workload::CampaignGrid => campaign_grid(&mut ctx),
    }
    ctx.report.set("peak_rss_mb", probe::peak_rss_mb());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    ctx.report.set("host.nproc", nproc as f64);
    ctx.report.set("host.threads", THREADS as f64);
    if args.trace {
        let layers = ctx.tracer.self_time_by_layer("bench.iteration");
        let per_iteration = |layer: &str| {
            layers.get(layer).copied().unwrap_or(0.0) / ctx.traced_iterations.max(1) as f64
        };
        let self_times = [
            ("sim.self_s", per_iteration("sim")),
            ("compat.self_s", per_iteration("compat")),
            ("rl.self_s", per_iteration("rl")),
            ("selection.self_s", per_iteration("selection")),
            ("store.self_s", per_iteration("store")),
            ("campaign.self_s", per_iteration("campaign")),
        ];
        for (name, value) in self_times {
            ctx.report.set(name, value);
        }
    }
    (ctx.report, ctx.tracer)
}

/// Repeats set-up and timed part until `--seconds` of timed work have
/// passed. Each repetition runs `setup` `setups` times, then `timed` on the
/// last set-up's output; `timed` returns the wall time of its timed part
/// (its checks run outside it). Interleaving set-ups with timed parts spreads
/// both over the run, so their medians (`setup_s`, `wall_s`) are not taken
/// from one moment of the host's load. A traced run alternates untraced and
/// traced repetitions and reports the tracing overhead; `wall_s` is always
/// the untraced median.
fn repeat<S>(
    ctx: &mut Ctx,
    setups: usize,
    mut setup: impl FnMut(&mut Ctx) -> S,
    mut timed: impl FnMut(&mut Ctx, S, bool) -> f64,
) {
    let trace = ctx.args.trace;
    let ticks = probe::cpu_ticks();
    let (mut setup_times, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut spent = 0.0;
    loop {
        let traced_now = trace && untraced.len() > traced.len();
        ctx.tracer.set_on(traced_now);
        let mut state = None;
        for _ in 0..setups.max(1) {
            let open = ctx.tracer.begin("setup.run");
            state = Some(setup(ctx));
            setup_times.push(ctx.tracer.end(open));
        }
        let state = state.expect("at least one set-up");
        let open = ctx.tracer.begin("bench.iteration");
        let wall = timed(ctx, state, traced_now);
        ctx.tracer.end(open);
        spent += wall;
        eprintln!(
            "[perfbench] repetition {}{}: {wall:.3} s",
            untraced.len() + traced.len(),
            if traced_now { " (traced)" } else { "" }
        );
        if traced_now {
            traced.push(wall);
            ctx.traced_iterations += 1;
        } else {
            untraced.push(wall);
        }
        if spent >= ctx.args.seconds && (!trace || !traced.is_empty()) {
            break;
        }
    }
    ctx.tracer.set_on(trace);
    let share = probe::steal_share(ticks, probe::cpu_ticks());
    ctx.report.set("host.steal_share", share);
    ctx.report.set("setup_s", median(&setup_times));
    let wall = median(&untraced);
    ctx.report.set("wall_s", wall);
    if trace {
        ctx.report
            .set("trace.overhead_share", (median(&traced) - wall) / wall);
    }
}

/// Disk-tier insert and lookup of one of the workload's own artifacts: its
/// rare-net analysis is imported into an empty disk store (a miss, then an
/// encode and write) and then imported again through a fresh store on the
/// same directory (a disk hit: read and decode).
fn store_probe(
    ctx: &mut Ctx,
    netlist: &Netlist,
    config: &DeterrentConfig,
    analysis: &RareNetAnalysis,
) {
    let dir = ctx.work.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let copy = analysis.clone();
    let open = ctx.tracer.begin("store.insert");
    DeterrentSession::with_store(netlist, config.clone(), ArtifactStore::with_disk(&dir))
        .import_analysis(copy);
    let write_s = ctx.tracer.end(open);
    let bytes = cache_stats(&dir).map_or(0, |s| s.total_bytes()) as f64;
    let copy = analysis.clone();
    let store = ArtifactStore::with_disk(&dir);
    let open = ctx.tracer.begin("store.lookup");
    DeterrentSession::with_store(netlist, config.clone(), store.clone()).import_analysis(copy);
    let read_s = ctx.tracer.end(open);
    let hits = store.counters().analyze.disk_hits;
    ctx.report.check(hits == 1 && bytes > 0.0, || {
        format!("store probe: {hits} disk hits, {bytes} bytes")
    });
    ctx.report.set("store.write_MBps", bytes / 1e6 / write_s);
    ctx.report.set("store.read_MBps", bytes / 1e6 / read_s);
    let _ = std::fs::remove_dir_all(&dir);
}

fn set_exec(report: &mut Report, stats: &ExecStats) {
    report.set("exec.calls", stats.calls as f64);
    report.set("exec.tasks", stats.tasks as f64);
    report.set("exec.speedup", stats.speedup());
}

fn add_exec(total: &mut ExecStats, stats: &ExecStats) {
    total.calls += stats.calls;
    total.tasks += stats.tasks;
    total.busy_nanos += stats.busy_nanos;
    total.wall_nanos += stats.wall_nanos;
}

/// Sums the compatibility-graph and solver counters of `graphs`.
fn set_compat(report: &mut Report, graphs: &[&CompatibilityGraph], build_graph_s: f64) {
    let total = |count: fn(&CompatStats) -> u64| -> f64 {
        graphs.iter().map(|g| count(g.stats()) as f64).sum()
    };
    let pairs = total(|s| s.pairs_total);
    let tier3 = total(|s| s.pairs_sat_resolved);
    let candidates = total(|s| s.candidate_rare_nets as u64);
    let sat_queries = total(CompatStats::total_sat_queries).max(1.0);
    let tier3_nanos = total(|s| s.tier3_nanos);
    let conflicts = total(|s| s.solver.conflicts);
    let propagations = total(|s| s.solver.propagations);
    for (name, value) in [
        ("compat.build_graph_s", build_graph_s),
        ("compat.pairs", pairs),
        ("compat.tier1_pairs", total(|s| s.pairs_sim_witnessed)),
        (
            "compat.tier2_pruned_pairs",
            total(|s| s.pairs_structurally_pruned),
        ),
        (
            "compat.tier2_enum_pairs",
            total(|s| s.pairs_cone_enumerated),
        ),
        ("compat.tier3_pairs", tier3),
        (
            "compat.singleton_sat_queries",
            total(|s| s.singleton_sat_queries),
        ),
        ("compat.sat_free_share", 1.0 - tier3 / pairs.max(1.0)),
        (
            "compat.sat_query_reduction",
            (pairs + candidates) / sat_queries,
        ),
        ("compat.pairs_per_s", pairs / build_graph_s),
        ("compat.tier1_ms", total(|s| s.tier1_nanos) / 1e6),
        ("compat.tier2_ms", total(|s| s.tier2_nanos) / 1e6),
        ("compat.tier3_ms", tier3_nanos / 1e6),
        (
            "compat.tier3_us_per_query",
            tier3_nanos / 1e3 / tier3.max(1.0),
        ),
        ("sat.decisions", total(|s| s.solver.decisions)),
        ("sat.propagations", propagations),
        ("sat.conflicts", conflicts),
        ("sat.conflicts_per_query", conflicts / sat_queries),
        ("sat.props_per_query", propagations / sat_queries),
        ("sim.rare_nets", graphs.iter().map(|g| g.len() as f64).sum()),
    ] {
        report.set(name, value);
    }
}

// ---------------------------------------------------------------- graph_seq

fn graph_config(seed: u64) -> DeterrentConfig {
    DeterrentConfig::fast_preset()
        .with_probability_patterns(PATTERNS)
        .with_threshold(THETA)
        .with_seed(seed)
        .with_threads(THREADS)
}

/// The offline phase (estimate → analyze → build_graph) on two full-scan
/// sequential profiles, memory-only store: tier-3 SAT dominates and no RL
/// code runs.
fn graph_seq(ctx: &mut Ctx) {
    let profiles = ctx.sizes.graph_seq.clone();
    let synthesize = |ctx: &mut Ctx| -> Vec<(String, Netlist)> {
        let open = ctx.tracer.begin("netlist.synth");
        let built = profiles
            .iter()
            .map(|(p, scale)| {
                let label = graph_label(Workload::GraphSeq, &p.name, *scale, THETA, ctx.args.seed);
                (label, netlist_of(p, *scale))
            })
            .collect();
        ctx.tracer.end(open);
        built
    };
    let config = graph_config(ctx.args.seed);
    let mut last: Vec<(GraphArtifact, usize)> = Vec::new();
    let mut exec_total = ExecStats::default();
    let mut computed = 0;
    let mut kept = Vec::new();
    repeat(
        ctx,
        ctx.sizes.cheap_setups,
        synthesize,
        |ctx, netlists, traced| {
            let mut wall = 0.0;
            let mut graphs = Vec::new();
            let mut exec = ExecStats::default();
            computed = 0;
            for (_, netlist) in &netlists {
                let store = ArtifactStore::new();
                let mut session =
                    DeterrentSession::with_store(netlist, config.clone(), store.clone());
                let open = ctx.tracer.begin("sim.estimate");
                let prob = session.estimate();
                wall += ctx.tracer.end(open);
                let open = ctx.tracer.begin("sim.analyze");
                let rare = session.analyze();
                wall += ctx.tracer.end(open);
                let open = ctx.tracer.begin("compat.build_graph");
                let graph = session.build_graph(&rare);
                wall += ctx.tracer.end(open);
                add_exec(&mut exec, &session.exec_stats());
                computed += store.counters().total_misses();
                graphs.push((graph, prob.estimate().peak_retained_words()));
            }
            for ((label, netlist), (graph, _)) in netlists.iter().zip(&graphs) {
                ctx.check_graph(label, netlist, graph.graph());
            }
            if traced {
                last = graphs;
                exec_total = exec;
            }
            kept = netlists;
            wall
        },
    );
    if ctx.args.trace {
        let per_iteration = |span| ctx.tracer.total(span) / ctx.traced_iterations as f64;
        let estimate_s = per_iteration("sim.estimate");
        let build_s = per_iteration("compat.build_graph");
        let gates: usize = kept.iter().map(|(_, n)| n.num_logic_gates()).sum();
        ctx.report.set("sim.estimate_s", estimate_s);
        ctx.report.set(
            "sim.gate_patterns_per_s",
            (gates * PATTERNS) as f64 / estimate_s,
        );
        let peak = last.iter().map(|(_, p)| *p).max().unwrap_or(0);
        ctx.report.set("sim.peak_retained_words", peak as f64);
        let graphs: Vec<&CompatibilityGraph> = last.iter().map(|(g, _)| g.graph()).collect();
        set_compat(&mut ctx.report, &graphs, build_s);
        set_exec(&mut ctx.report, &exec_total);
        ctx.report.set("store.computed", computed as f64);
        let (_, netlist) = &kept[kept.len() - 1];
        let mut session =
            DeterrentSession::with_store(netlist, config.clone(), ArtifactStore::new());
        let analysis = session.analyze().analysis().clone();
        store_probe(ctx, netlist, &config, &analysis);
        ctx.absent(&[
            "rl.train_s",
            "rl.rollout_s",
            "rl.update_s",
            "rl.updates",
            "rl.update_ms_per_update",
            "rl.env_steps",
            "rl.steps_per_s",
            "rl.episodes_per_min",
            "env.mask_calls",
            "env.mask_us_per_call",
            "env.step_us_per_call",
            "selection.select_s",
            "selection.harvested_sets",
            "selection.max_compatible_set",
            "selection.generate_s",
            "selection.sat_queries",
            "selection.witness_reused",
            "selection.us_per_query",
            "selection.test_length",
            "store.read_s",
            "store.bytes_written",
            "store.disk_hits",
            "campaign.cell_s_p50",
            "campaign.cell_s_max",
            "campaign.estimates_computed",
            "campaign.cells_per_min",
            "trojan.coverage_eval_s",
            "trojan.coverage_pct",
        ]);
    }
}

// ------------------------------------------------------------ retrain_c2670

/// Plants the harness's Trojan population: `TROJANS` triggers of width
/// `TROJAN_WIDTH`, narrowed (down to 2) while fewer than ten can be sampled.
fn plant_trojans(netlist: &Netlist, analysis: &RareNetAnalysis, seed: u64) -> Vec<Trojan> {
    let mut generator = TrojanGenerator::new(netlist, seed ^ 0x7707);
    let mut width = TROJAN_WIDTH;
    let mut trojans = Vec::new();
    while width >= 2 {
        trojans = generator.sample_many(analysis, width, TROJANS);
        if trojans.len() >= TROJANS.min(10) {
            break;
        }
        width -= 1;
    }
    trojans
}

/// One retrain_c2670 set-up: the netlist, its cold-filled cache directory,
/// the graph and the planted Trojans.
struct RetrainSetup {
    netlist: Netlist,
    dir: PathBuf,
    graph: GraphArtifact,
    trojans: Vec<Trojan>,
    estimate_words: usize,
}

/// Replays `train_parallel_observed`'s round loop from `collect_episodes`
/// and `PpoTrainer::record`/`update_if_ready`, with a span per collection
/// and per learning phase, on a timed environment.
fn replay_train(
    ctx: &mut Ctx,
    netlist: &Netlist,
    graph: &GraphArtifact,
    config: &DeterrentConfig,
) -> (PpoTrainer, TrainReport, Vec<Vec<usize>>, u64, EnvTiming) {
    let train = &config.train;
    let proto = TimedEnv::new(CompatSetEnv::new(netlist, graph.graph(), config));
    let n = graph.graph().len();
    let mut trainer = PpoTrainer::new(n, n, &train.ppo, config.seed);
    let exec = Exec::new(config.threads);
    let mut report = TrainReport::default();
    let (mut harvested, mut checks, mut timing) = (Vec::new(), 0, EnvTiming::default());
    let round = train.rollout_round.max(1);
    let mut next = 0;
    while next < train.episodes {
        let count = round.min(train.episodes - next);
        let open = ctx.tracer.begin("rl.rollout");
        let outcomes = collect_episodes(
            &proto,
            &trainer,
            &CollectOptions {
                count,
                max_steps: train.steps_per_episode,
                seed: config.seed,
                first_episode: next as u64,
                greedy: false,
            },
            &exec,
            |env: &mut TimedEnv| {
                (
                    env.inner.take_harvest(),
                    env.inner.exact_sat_checks(),
                    env.timing(),
                )
            },
        );
        ctx.tracer.end(open);
        let open = ctx.tracer.begin("rl.learn");
        for episode in outcomes {
            let steps = episode.transitions.len();
            for transition in episode.transitions {
                trainer.record(transition);
            }
            if let Some(losses) = trainer.update_if_ready() {
                report.losses.push((trainer.total_steps(), losses));
            }
            report.episode_rewards.push(episode.total_reward);
            report.episode_lengths.push(steps);
            let (sets, sat_checks, t) = episode.harvest;
            harvested.extend(sets);
            checks += sat_checks;
            timing.merge(&t);
        }
        ctx.tracer.end(open);
        next += count;
    }
    (trainer, report, harvested, checks, timing)
}

/// Whether a replayed training run equals the session's, bit for bit.
fn same_training(
    policy: &PolicyArtifact,
    trainer: &PpoTrainer,
    report: &TrainReport,
    harvested: &[Vec<usize>],
    checks: u64,
) -> bool {
    let p = policy.policy();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&p.report.episode_rewards) == bits(&report.episode_rewards)
        && p.report.episode_lengths == report.episode_lengths
        && p.report.losses == report.losses
        && p.harvested_sets == harvested
        && p.env_sat_checks == checks
        && p.trainer.snapshot() == trainer.snapshot()
}

fn retrain_config(sizes: &Sizes, seed: u64) -> DeterrentConfig {
    DeterrentConfig::paper_preset()
        .with_episodes(sizes.retrain_episodes)
        .with_probability_patterns(PATTERNS)
        .with_threshold(THETA)
        .with_seed(seed)
        .with_threads(THREADS)
}

/// Table 1 traffic: set-up fills a fresh disk cache with paper-size c2670's
/// estimate and graph; the timed part opens a new session on that cache and
/// runs the whole pipeline, so train, select and generate run and the first
/// three stages are disk reads.
fn retrain_c2670(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let scale = ctx.sizes.retrain_scale;
    let profile = BenchmarkProfile::c2670();
    let label = graph_label(Workload::RetrainC2670, &profile.name, scale, THETA, seed);
    let base = retrain_config(ctx.sizes, seed);
    let mut cold = Vec::new();
    let mut setups = 0;
    let set_up = |ctx: &mut Ctx| {
        let open = ctx.tracer.begin("netlist.synth");
        let netlist = netlist_of(&profile, scale);
        ctx.tracer.end(open);
        let dir = ctx.work.join(format!("setup-{setups}"));
        setups += 1;
        let store = ArtifactStore::with_disk(&dir);
        let mut session = DeterrentSession::with_store(&netlist, base.clone(), store);
        let open = ctx.tracer.begin("sim.estimate");
        let prob = session.estimate();
        let estimate_s = ctx.tracer.end(open);
        let open = ctx.tracer.begin("sim.analyze");
        let rare = session.analyze();
        ctx.tracer.end(open);
        let open = ctx.tracer.begin("compat.build_graph");
        let graph = session.build_graph(&rare);
        let build_s = ctx.tracer.end(open);
        let open = ctx.tracer.begin("trojan.plant");
        let trojans = plant_trojans(&netlist, rare.analysis(), seed);
        ctx.tracer.end(open);
        cold.push((estimate_s, build_s));
        drop(session);
        RetrainSetup {
            netlist,
            dir,
            graph,
            trojans,
            estimate_words: prob.estimate().peak_retained_words(),
        }
    };

    let mut untraced_train = Vec::new();
    let mut coverage = None;
    let mut kept = None;
    repeat(ctx, 1, set_up, |ctx, setup, traced| {
        let netlist = &setup.netlist;
        ctx.check_graph(&label, netlist, setup.graph.graph());
        let rare_count = setup.graph.graph().len();
        let mut config = base.clone();
        config.select.k_patterns = config.select.k_patterns.max(rare_count);
        config.select.eval_rollouts = config.select.eval_rollouts.max(rare_count);
        let k = config.select.k_patterns;
        let cold_bytes = cache_stats(&setup.dir).map_or(0, |s| s.total_bytes());
        let store = ArtifactStore::with_disk(&setup.dir);
        let mut session = DeterrentSession::with_store(netlist, config.clone(), store.clone());

        let start = Instant::now();
        let mut excluded = 0.0;
        let open = ctx.tracer.begin("store.estimate_lookup");
        session.estimate();
        let mut read_s = ctx.tracer.end(open);
        let open = ctx.tracer.begin("store.analyze_lookup");
        let rare = session.analyze();
        read_s += ctx.tracer.end(open);
        let open = ctx.tracer.begin("store.graph_lookup");
        let graph = session.build_graph(&rare);
        read_s += ctx.tracer.end(open);
        let (policy, train_s) = if traced {
            let open = ctx.tracer.begin("rl.train");
            let (trainer, report, harvested, checks, timing) =
                replay_train(ctx, netlist, &graph, &config);
            let train_s = ctx.tracer.end(open);
            let open = ctx.tracer.begin("verify.train_reference");
            let policy = session.train(&graph);
            excluded += ctx.tracer.end(open);
            let same = same_training(&policy, &trainer, &report, &harvested, checks);
            ctx.report.check(same, || {
                "replayed training differs from DeterrentSession::train".into()
            });
            ctx.report.set("rl.updates", trainer.total_updates() as f64);
            ctx.report.set("rl.env_steps", trainer.total_steps() as f64);
            ctx.report.set("env.mask_calls", timing.mask_calls as f64);
            ctx.report.set(
                "env.mask_us_per_call",
                timing.mask_ns as f64 / 1e3 / timing.mask_calls.max(1) as f64,
            );
            ctx.report.set(
                "env.step_us_per_call",
                timing.step_ns as f64 / 1e3 / timing.step_calls.max(1) as f64,
            );
            (policy, train_s)
        } else {
            let open = ctx.tracer.begin("rl.train");
            let policy = session.train(&graph);
            let train_s = ctx.tracer.end(open);
            untraced_train.push(train_s);
            (policy, train_s)
        };
        let open = ctx.tracer.begin("selection.select");
        let sets = session.select(&graph, &policy);
        let select_s = ctx.tracer.end(open);
        let open = ctx.tracer.begin("selection.generate");
        let result = session.generate(&graph, &policy, &sets);
        let generate_s = ctx.tracer.end(open);
        let wall = start.elapsed().as_secs_f64() - excluded;

        let counters = store.counters();
        let served = [counters.estimate, counters.analyze, counters.build_graph]
            .iter()
            .all(|c| c.disk_hits == 1 && c.misses == 0);
        ctx.report.check(served, || {
            format!("offline stages not served from disk: {counters:?}")
        });
        ctx.check_graph(&label, netlist, graph.graph());
        ctx.check_patterns(&label, netlist, &result, k);
        let evaluator = CoverageEvaluator::new(netlist, setup.trojans.clone());
        let open = ctx.tracer.begin("trojan.coverage");
        let pct = evaluator.evaluate(&result.patterns).coverage_percent();
        let coverage_s = ctx.tracer.end(open);
        let first = *coverage.get_or_insert(pct);
        ctx.report.check(first == pct, || {
            format!("coverage {pct} != {first} of the first repetition")
        });
        ctx.report
            .set("selection.test_length", result.patterns.len() as f64);
        ctx.report.set("trojan.coverage_pct", pct);
        if traced {
            let open = ctx.tracer.begin("verify.generate_patterns_with");
            let (patterns, _) = generate_patterns_with(
                &mut CircuitOracle::new(netlist),
                graph.graph(),
                sets.sets(),
            );
            ctx.tracer.end(open);
            ctx.report.check(patterns == result.patterns, || {
                "generate_patterns_with differs from DeterrentSession::generate".into()
            });
            let selected = sets.selected();
            let m = &result.metrics;
            let bytes = cache_stats(&setup.dir).map_or(0, |s| s.total_bytes());
            for (name, value) in [
                ("rl.train_s", train_s),
                ("selection.select_s", select_s),
                ("selection.generate_s", generate_s),
                ("selection.harvested_sets", selected.harvested_total as f64),
                (
                    "selection.max_compatible_set",
                    selected.max_compatible_set as f64,
                ),
                ("selection.sat_queries", m.pattern_sat_queries as f64),
                ("selection.witness_reused", m.patterns_witness_reused as f64),
                (
                    "selection.us_per_query",
                    generate_s * 1e6 / m.pattern_sat_queries.max(1) as f64,
                ),
                ("store.read_s", read_s),
                (
                    "store.bytes_written",
                    bytes.saturating_sub(cold_bytes) as f64,
                ),
                ("store.disk_hits", counters.total_disk_hits() as f64),
                ("store.computed", counters.total_misses() as f64),
                ("trojan.coverage_eval_s", coverage_s),
            ] {
                ctx.report.set(name, value);
            }
            set_exec(&mut ctx.report, &session.exec_stats());
        }
        drop(session);
        let _ = std::fs::remove_dir_all(&setup.dir);
        kept = Some(setup);
        wall
    });
    let episodes = ctx.sizes.retrain_episodes as f64;
    ctx.report.set(
        "rl.episodes_per_min",
        episodes * 60.0 / median(&untraced_train),
    );
    if ctx.args.trace {
        let setup = kept.expect("at least one repetition");
        ctx.set_layer_time("rl.rollout_s", "rl.rollout");
        ctx.set_layer_time("rl.update_s", "rl.learn");
        let updates = ctx.report.get("rl.updates").unwrap_or(0.0);
        let update_s = ctx.report.get("rl.update_s").unwrap_or(0.0);
        ctx.report
            .set("rl.update_ms_per_update", update_s * 1e3 / updates.max(1.0));
        let steps = ctx.report.get("rl.env_steps").unwrap_or(0.0);
        let rollout_s = ctx.report.get("rl.rollout_s").unwrap_or(0.0);
        ctx.report.set("rl.steps_per_s", steps / rollout_s);
        // The cold estimate and build_graph run in set-up: report the medians
        // over every repetition's set-up.
        let estimate_s = median(&cold.iter().map(|c| c.0).collect::<Vec<_>>());
        let build_s = median(&cold.iter().map(|c| c.1).collect::<Vec<_>>());
        ctx.report.set("sim.estimate_s", estimate_s);
        let work = setup.netlist.num_logic_gates() as f64 * PATTERNS as f64;
        ctx.report.set("sim.gate_patterns_per_s", work / estimate_s);
        ctx.report
            .set("sim.peak_retained_words", setup.estimate_words as f64);
        set_compat(&mut ctx.report, &[setup.graph.graph()], build_s);
        let mut session =
            DeterrentSession::with_store(&setup.netlist, base.clone(), ArtifactStore::new());
        let analysis = session.analyze().analysis().clone();
        store_probe(ctx, &setup.netlist, &base, &analysis);
        ctx.absent(&[
            "campaign.cell_s_p50",
            "campaign.cell_s_max",
            "campaign.estimates_computed",
            "campaign.cells_per_min",
        ]);
    }
}

// ------------------------------------------------------------ campaign_grid

/// Per-cell wall times and per-stage compute times of a campaign run.
#[derive(Default)]
struct TimingSink {
    started: Mutex<Vec<(usize, Instant)>>,
    cells: Mutex<Vec<f64>>,
    /// Summed wall seconds of computed (not cache-served) stages, by
    /// `Stage` order: estimate, analyze, build_graph, train, select,
    /// generate.
    stages: Mutex<[f64; 6]>,
}

impl ProgressSink for TimingSink {
    fn cell_started(&self, cell: &CampaignCell) {
        self.started
            .lock()
            .expect("sink lock")
            .push((cell.index, Instant::now()));
    }

    fn stage_finished(&self, _cell: &CampaignCell, metrics: &StageMetrics) {
        if metrics.cache_hit {
            return;
        }
        let slot = match metrics.stage {
            Stage::Estimate => 0,
            Stage::Analyze => 1,
            Stage::BuildGraph => 2,
            Stage::Train => 3,
            Stage::Select => 4,
            Stage::Generate => 5,
        };
        self.stages.lock().expect("sink lock")[slot] += metrics.wall_seconds;
    }

    fn cell_finished(&self, result: &CellResult) {
        let started = self.started.lock().expect("sink lock");
        if let Some((_, at)) = started.iter().find(|(i, _)| *i == result.cell.index) {
            self.cells
                .lock()
                .expect("sink lock")
                .push(at.elapsed().as_secs_f64());
        }
    }
}

fn campaign_plan(sizes: &Sizes, seed: u64) -> CampaignPlan {
    let scale = sizes.campaign_scale;
    CampaignPlan {
        netlists: [
            BenchmarkProfile::c2670(),
            BenchmarkProfile::s13207(),
            BenchmarkProfile::c6288(),
        ]
        .into_iter()
        .map(|p| NetlistSpec::new(p, scale, NETLIST_SEED))
        .collect(),
        thetas: vec![0.15, 0.2],
        seeds: vec![seed, seed.wrapping_add(1)],
        base: base_config_for(scale, sizes.campaign_episodes),
        cell_threads: 1,
    }
}

/// The configuration `CampaignPlan` gives the session of `cell`.
fn cell_config(plan: &CampaignPlan, cell: &CampaignCell) -> DeterrentConfig {
    plan.base
        .clone()
        .with_threshold(cell.theta)
        .with_seed(cell.seed)
        .with_threads(plan.cell_threads)
}

/// A cold 12-cell grid through `CampaignPlan::run_with_policy`: many
/// mid-size sessions at once, on 2 campaign workers with serial sessions,
/// sharing one empty disk cache.
fn campaign_grid(ctx: &mut Ctx) {
    let scale = ctx.sizes.campaign_scale;
    let plan = campaign_plan(ctx.sizes, ctx.args.seed);
    let cells = plan.cells();
    let synthesize = |ctx: &mut Ctx| -> Vec<Netlist> {
        let open = ctx.tracer.begin("netlist.synth");
        let built = plan.netlists.iter().map(NetlistSpec::build).collect();
        ctx.tracer.end(open);
        built
    };
    let dir = ctx.work.join("campaign-cache");
    let mut kept = Vec::new();
    repeat(
        ctx,
        ctx.sizes.cheap_setups,
        synthesize,
        |ctx, netlists, traced| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = ArtifactStore::with_disk(&dir);
            let exec = Exec::new(THREADS);
            let sink = TimingSink::default();
            let open = ctx.tracer.begin("campaign.run");
            let report = plan.run_with_policy(&store, &exec, &sink, &RunPolicy::default());
            let wall = ctx.tracer.end(open);
            let counters = store.counters();

            // Checks: every cell ends `ok`; each cell's graph and patterns
            // (served from the campaign's store) pass the graph and pattern
            // checks, and its pattern count matches the report row.
            let mut graphs = Vec::new();
            let mut test_length = 0;
            let mut selection = [0u64; 4];
            let mut training = [0u64; 2];
            let mut peak_words = 0;
            for (cell, row) in cells.iter().zip(&report.cells) {
                let outcome = row.outcome.column();
                ctx.report.check(outcome == "ok", || {
                    format!("cell {}: outcome {outcome}", cell.index)
                });
                let netlist = &netlists[cell.netlist_index];
                let config = cell_config(&plan, cell);
                let mut session = DeterrentSession::with_store(netlist, config, store.clone());
                let prob = session.estimate();
                let rare = session.analyze();
                let graph = session.build_graph(&rare);
                let spec = &plan.netlists[cell.netlist_index];
                let label = graph_label(
                    Workload::CampaignGrid,
                    &spec.label,
                    scale,
                    cell.theta,
                    cell.seed,
                );
                ctx.check_graph(&label, netlist, graph.graph());
                let policy = session.train(&graph);
                let sets = session.select(&graph, &policy);
                let result = session.generate(&graph, &policy, &sets);
                ctx.check_patterns(&label, netlist, &result, plan.base.select.k_patterns);
                ctx.report.check(result.patterns.len() == row.patterns, || {
                    format!("cell {}: report says {} patterns", cell.index, row.patterns)
                });
                test_length += result.patterns.len();
                selection[0] += sets.selected().harvested_total as u64;
                selection[1] = selection[1].max(sets.selected().max_compatible_set as u64);
                selection[2] += result.metrics.pattern_sat_queries;
                selection[3] += result.metrics.patterns_witness_reused;
                training[0] += policy.policy().trainer.total_updates();
                training[1] += policy.policy().trainer.total_steps();
                peak_words = peak_words.max(prob.estimate().peak_retained_words());
                graphs.push(graph);
            }
            ctx.report.set("selection.test_length", test_length as f64);
            if traced {
                let cell_s = sink.cells.lock().expect("sink lock").clone();
                let stages = *sink.stages.lock().expect("sink lock");
                let gate_patterns: f64 = netlists
                    .iter()
                    .map(|n| {
                        n.num_logic_gates() as f64 * plan.base.analysis.probability_patterns as f64
                    })
                    .sum::<f64>()
                    * plan.seeds.len() as f64;
                let graph_refs: Vec<&CompatibilityGraph> =
                    graphs.iter().map(|g| g.graph()).collect();
                set_compat(&mut ctx.report, &graph_refs, stages[2]);
                let episodes = (cells.len() * plan.base.train.episodes) as f64;
                let bytes = cache_stats(&dir).map_or(0, |s| s.total_bytes());
                for (name, value) in [
                    ("sim.estimate_s", stages[0]),
                    ("sim.gate_patterns_per_s", gate_patterns / stages[0]),
                    ("sim.peak_retained_words", peak_words as f64),
                    ("rl.train_s", stages[3]),
                    ("rl.updates", training[0] as f64),
                    ("rl.env_steps", training[1] as f64),
                    ("rl.steps_per_s", training[1] as f64 / stages[3]),
                    ("selection.select_s", stages[4]),
                    ("selection.generate_s", stages[5]),
                    ("selection.harvested_sets", selection[0] as f64),
                    ("selection.max_compatible_set", selection[1] as f64),
                    ("selection.sat_queries", selection[2] as f64),
                    ("selection.witness_reused", selection[3] as f64),
                    (
                        "selection.us_per_query",
                        stages[5] * 1e6 / selection[2].max(1) as f64,
                    ),
                    ("store.bytes_written", bytes as f64),
                    ("store.disk_hits", counters.total_disk_hits() as f64),
                    ("store.computed", counters.total_misses() as f64),
                    ("campaign.cell_s_p50", median(&cell_s)),
                    (
                        "campaign.cell_s_max",
                        cell_s.iter().copied().fold(0.0, f64::max),
                    ),
                    (
                        "campaign.estimates_computed",
                        counters.estimate.misses as f64,
                    ),
                    ("rl.episodes_per_min", episodes * 60.0 / stages[3]),
                ] {
                    ctx.report.set(name, value);
                }
                set_exec(&mut ctx.report, &exec.stats());
            }
            kept = netlists;
            wall
        },
    );
    let wall = ctx.report.get("wall_s").unwrap_or(0.0);
    ctx.report
        .set("campaign.cells_per_min", cells.len() as f64 * 60.0 / wall);
    if ctx.args.trace {
        let config = cell_config(&plan, &cells[0]);
        let netlist = &kept[cells[0].netlist_index];
        let mut session =
            DeterrentSession::with_store(netlist, config.clone(), ArtifactStore::new());
        let analysis = session.analyze().analysis().clone();
        store_probe(ctx, netlist, &config, &analysis);
        // Rollout and update run inside the campaign's sessions, where the
        // benchmark has no span; retrain_c2670 measures them.
        ctx.absent(&[
            "rl.rollout_s",
            "rl.update_s",
            "rl.update_ms_per_update",
            "env.mask_calls",
            "env.mask_us_per_call",
            "env.step_us_per_call",
            "store.read_s",
            "trojan.coverage_eval_s",
            "trojan.coverage_pct",
        ]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rebuilds every graph of the workload at `args.seed` with
/// `CompatStrategy::AllSat`, requires the funnel's adjacency to equal it, and
/// prints the `digests.tsv` lines.
pub fn record_digests(args: &Args, sizes: &Sizes) {
    let seed = args.seed;
    let exec = Exec::new(THREADS);
    let mut jobs: Vec<(String, Netlist, DeterrentConfig)> = Vec::new();
    match args.workload {
        Workload::GraphSeq => {
            for (p, scale) in &sizes.graph_seq {
                let label = graph_label(args.workload, &p.name, *scale, THETA, seed);
                jobs.push((label, netlist_of(p, *scale), graph_config(seed)));
            }
        }
        Workload::RetrainC2670 => {
            let p = BenchmarkProfile::c2670();
            let scale = sizes.retrain_scale;
            let label = graph_label(args.workload, &p.name, scale, THETA, seed);
            jobs.push((label, netlist_of(&p, scale), retrain_config(sizes, seed)));
        }
        Workload::CampaignGrid => {
            let plan = campaign_plan(sizes, seed);
            for cell in plan.cells() {
                let spec = &plan.netlists[cell.netlist_index];
                let label = graph_label(
                    args.workload,
                    &spec.label,
                    spec.scale,
                    cell.theta,
                    cell.seed,
                );
                jobs.push((label, spec.build(), cell_config(&plan, &cell)));
            }
        }
    }
    for (label, netlist, config) in jobs {
        let mut session = DeterrentSession::with_store(&netlist, config, ArtifactStore::new());
        let rare = session.analyze();
        let funnel = session.build_graph(&rare);
        let start = Instant::now();
        let all_sat =
            CompatibilityGraph::build_on(&netlist, rare.analysis(), CompatStrategy::AllSat, &exec);
        let same = funnel.graph().adjacency() == all_sat.adjacency()
            && funnel.graph().rare_nets() == all_sat.rare_nets();
        let digest = graph_digest(funnel.graph());
        eprintln!(
            "[perfbench] {label}: AllSat {:.1}s, {}",
            start.elapsed().as_secs_f64(),
            if same { "equal" } else { "DIFFERENT" }
        );
        assert!(same, "{label}: funnel adjacency differs from AllSat");
        println!("{label}\t{seed}\t{digest:016x}");
    }
}
