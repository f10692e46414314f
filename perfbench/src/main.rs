//! End-to-end and per-layer benchmark of the DETERRENT reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <graph_seq|retrain_c2670|campaign_grid|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `all` runs the three workloads one after another, each in its own
//! process.
//!
//! Each run sets its workload up several times (reporting the median set-up
//! time), repeats the workload's timed part until `--seconds` have passed
//! (reporting the median), checks every output, and prints one JSON object as
//! the last line of stdout: `correct`, `attempted`, `failed` (operations are
//! correctness checks and campaign cells) and `metrics`. `--trace 0` reports
//! the end-to-end metrics of [`END_TO_END`]; `--trace 1` alternates untraced
//! and traced repetitions and reports the per-layer metrics of [`PER_LAYER`],
//! including the tracing overhead. Lines before the JSON print every metric
//! the run measured, by name and unit, plus the host's steal share.
//!
//! `--seed` drives every stochastic input the program receives: the
//! Monte-Carlo estimation and PPO seed of the configuration, the campaign's
//! cell seeds and the planted Trojans. The netlists are the fixed synthetic
//! benchmark profiles generated at [`NETLIST_SEED`], so a seed changes the
//! draw, not the size of the workload. [`DEFAULT_SEED`] is the baseline seed
//! and [`HELD_OUT_SEED`] the held-out seed a performance claim must also hold
//! on.
//!
//! The benchmark drives the program only through the public functions of its
//! crates, and reads the counters those functions return as they are.

mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Baseline workload seed.
pub const DEFAULT_SEED: u64 = 2022;
/// Held-out workload seed.
pub const HELD_OUT_SEED: u64 = 7;
/// Generation seed of every synthetic netlist (the harness default).
pub const NETLIST_SEED: u64 = 2022;

/// A metric: name, unit, which direction is better, and (per layer) the
/// end-to-end metric and workload it should move.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Metrics of `--trace 0` runs, reported by every workload: the median
/// set-up time (netlist synthesis, Trojan planting and, for retrain_c2670,
/// the cold cache fill), the median wall time of one timed repetition, and
/// the peak resident set of the process.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", ""),
    m("wall_s", "s", "lower", ""),
    m("peak_rss_mb", "MiB", "lower", ""),
];

const GS: &str = "wall_s on graph_seq";
const RT: &str = "wall_s on retrain_c2670";
const CG: &str = "wall_s and cells_per_min on campaign_grid";
const COMPAT: &str = "wall_s on graph_seq, setup_s on retrain_c2670, cells_per_min on campaign_grid; not wall_s on retrain_c2670";
const RL: &str =
    "wall_s and episodes_per_min on retrain_c2670, cells_per_min on campaign_grid; not graph_seq";

/// Metrics of `--trace 1` runs. A layer a workload does not run reports 0.
pub const PER_LAYER: &[Metric] = &[
    m(
        "sim.estimate_s",
        "s",
        "lower",
        "wall_s on graph_seq, setup_s on retrain_c2670",
    ),
    m("sim.gate_patterns_per_s", "1/s", "higher", GS),
    m(
        "sim.rare_nets",
        "count",
        "higher",
        "nothing (deterministic input size)",
    ),
    m(
        "sim.peak_retained_words",
        "words",
        "lower",
        "peak_rss_mb on graph_seq",
    ),
    m("sim.self_s", "s", "lower", GS),
    m("compat.build_graph_s", "s", "lower", COMPAT),
    m(
        "compat.pairs",
        "count",
        "lower",
        "nothing (deterministic input size)",
    ),
    m("compat.tier1_pairs", "count", "higher", COMPAT),
    m("compat.tier2_pruned_pairs", "count", "higher", COMPAT),
    m("compat.tier2_enum_pairs", "count", "higher", COMPAT),
    m("compat.tier3_pairs", "count", "lower", COMPAT),
    m("compat.singleton_sat_queries", "count", "lower", COMPAT),
    m("compat.sat_free_share", "fraction", "higher", COMPAT),
    m("compat.sat_query_reduction", "x", "higher", COMPAT),
    m("compat.pairs_per_s", "1/s", "higher", COMPAT),
    m("compat.tier1_ms", "ms", "lower", COMPAT),
    m("compat.tier2_ms", "ms", "lower", COMPAT),
    m("compat.tier3_ms", "ms", "lower", COMPAT),
    m("compat.tier3_us_per_query", "us", "lower", COMPAT),
    m("compat.self_s", "s", "lower", COMPAT),
    m("sat.decisions", "count", "lower", COMPAT),
    m("sat.propagations", "count", "lower", COMPAT),
    m("sat.conflicts", "count", "lower", COMPAT),
    m("sat.conflicts_per_query", "1/query", "lower", COMPAT),
    m("sat.props_per_query", "1/query", "lower", COMPAT),
    m("rl.train_s", "s", "lower", RL),
    m("rl.rollout_s", "s", "lower", RL),
    m("rl.update_s", "s", "lower", RL),
    m("rl.updates", "count", "lower", RL),
    m("rl.update_ms_per_update", "ms", "lower", RL),
    m("rl.env_steps", "count", "lower", RL),
    m("rl.steps_per_s", "1/s", "higher", RL),
    m(
        "rl.episodes_per_min",
        "1/min",
        "higher",
        "wall_s on retrain_c2670 (the paper's Table 2 metric)",
    ),
    m("rl.self_s", "s", "lower", RL),
    m("env.mask_calls", "count", "lower", RL),
    m("env.mask_us_per_call", "us", "lower", RL),
    m("env.step_us_per_call", "us", "lower", RL),
    m("selection.select_s", "s", "lower", RT),
    m("selection.harvested_sets", "count", "higher", RT),
    m("selection.max_compatible_set", "count", "higher", RT),
    m("selection.generate_s", "s", "lower", RT),
    m("selection.sat_queries", "count", "lower", RT),
    m("selection.witness_reused", "count", "higher", RT),
    m("selection.us_per_query", "us", "lower", RT),
    m(
        "selection.test_length",
        "patterns",
        "lower",
        "nothing (a quality guard that must not move)",
    ),
    m("selection.self_s", "s", "lower", RT),
    m(
        "store.read_s",
        "s",
        "lower",
        "wall_s on retrain_c2670 (reads)",
    ),
    m(
        "store.read_MBps",
        "MB/s",
        "higher",
        "wall_s on retrain_c2670 (reads)",
    ),
    m(
        "store.write_MBps",
        "MB/s",
        "higher",
        "cells_per_min on campaign_grid (writes)",
    ),
    m(
        "store.bytes_written",
        "bytes",
        "lower",
        "cells_per_min on campaign_grid (writes)",
    ),
    m(
        "store.disk_hits",
        "count",
        "higher",
        "wall_s on retrain_c2670",
    ),
    m(
        "store.computed",
        "count",
        "lower",
        "wall_s on retrain_c2670 and campaign_grid",
    ),
    m("store.self_s", "s", "lower", "wall_s on retrain_c2670"),
    m(
        "exec.calls",
        "count",
        "lower",
        "wall_s on graph_seq, cells_per_min on campaign_grid",
    ),
    m(
        "exec.tasks",
        "count",
        "lower",
        "wall_s on graph_seq, cells_per_min on campaign_grid",
    ),
    m(
        "exec.speedup",
        "x",
        "higher",
        "wall_s on graph_seq, cells_per_min on campaign_grid",
    ),
    m("campaign.cell_s_p50", "s", "lower", CG),
    m("campaign.cell_s_max", "s", "lower", CG),
    m("campaign.estimates_computed", "count", "lower", CG),
    m("campaign.cells_per_min", "1/min", "higher", CG),
    m("campaign.self_s", "s", "lower", CG),
    m(
        "trojan.coverage_eval_s",
        "s",
        "lower",
        "nothing (check cost outside the timed part)",
    ),
    m(
        "trojan.coverage_pct",
        "%",
        "higher",
        "nothing (a quality guard that must not move)",
    ),
    m(
        "trace.overhead_share",
        "fraction",
        "lower",
        "nothing (traced minus untraced wall_s, over untraced)",
    ),
    m(
        "host.steal_share",
        "fraction",
        "lower",
        "nothing (hypervisor steal: a high share marks a slow run as noise)",
    ),
    m("host.nproc", "count", "higher", "nothing (available cores)"),
    m(
        "host.threads",
        "count",
        "higher",
        "nothing (worker threads the workload configures)",
    ),
];

/// Metrics that untraced runs print (but do not put in the JSON line): the
/// workload-specific headline figures and the host context.
const HEADLINE: &[&str] = &[
    "rl.episodes_per_min",
    "campaign.cells_per_min",
    "selection.test_length",
    "trojan.coverage_pct",
    "host.steal_share",
    "host.nproc",
    "host.threads",
];

fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values and check counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metric(name).is_some(), "undeclared metric {name}");
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {}", what());
        }
    }

    /// The last stdout line: `metrics` holds exactly `declared`.
    pub fn json(&self, declared: &[Metric]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|m| {
                let value = self.get(m.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: every measured metric with its unit.
    pub fn summary(&self, trace: bool) -> Vec<String> {
        let mut lines: Vec<String> = self
            .values
            .iter()
            .filter(|(name, _)| {
                trace || END_TO_END.iter().any(|m| m.name == **name) || HEADLINE.contains(name)
            })
            .filter_map(|(name, value)| {
                let m = metric(name)?;
                let moves = if m.moves.is_empty() {
                    String::new()
                } else {
                    format!("; moves {}", m.moves)
                };
                Some(format!(
                    "# {name} = {value} {} ({} is better{moves})",
                    m.unit, m.better
                ))
            })
            .collect();
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!("# failed_share = {share} fraction"));
        lines
    }
}

/// The three workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GraphSeq,
    RetrainC2670,
    CampaignGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::GraphSeq, Self::RetrainC2670, Self::CampaignGrid];

    pub fn name(self) -> &'static str {
        match self {
            Self::GraphSeq => "graph_seq",
            Self::RetrainC2670 => "retrain_c2670",
            Self::CampaignGrid => "campaign_grid",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rebuild each graph with `CompatStrategy::AllSat`, require it to equal
    /// the funnel's, and print digest lines for `digests.tsv`.
    pub record_digests: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record_digests = false;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record-digests" => {
                record_digests = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record_digests,
    })
}

/// Scratch space for cache directories, inside the directory the benchmark
/// runs from, removed when the run ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench-work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent when no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `--workload all`: runs every workload in turn, each in a process of its
/// own (so each reports its own peak RSS), with the same other arguments.
fn run_all(argv: &[String], workload_at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("[perfbench] cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut args = argv.to_vec();
        args[workload_at] = workload.name().to_string();
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) => all_ok &= status.success(),
            Err(e) => {
                eprintln!("[perfbench] cannot run {}: {e}", workload.name());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|a| a == "--workload") {
        if argv.get(at + 1).is_some_and(|w| w == "all") {
            return run_all(&argv, at + 1);
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(args.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("[perfbench] cannot create the work directory: {e}");
            return ExitCode::from(1);
        }
    };
    let sizes = workloads::Sizes::full();
    if args.record_digests {
        workloads::record_digests(&args, &sizes);
        return ExitCode::SUCCESS;
    }
    let (report, tracer) = workloads::run(&args, &sizes, &work.0);
    if tracer.is_on() {
        let path = PathBuf::from(".perfbench-trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("[perfbench] cannot write {}: {e}", path.display());
        }
    }
    for line in report.summary(args.trace) {
        println!("{line}");
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.json(declared));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(json: &str) -> Vec<(String, String)> {
        let metrics = &json[json.find("\"metrics\"").expect("metrics key")..];
        metrics
            .split("}, \"")
            .map(|entry| {
                let entry = entry.trim_start_matches("\"metrics\": {\"");
                let name = entry[..entry.find('"').expect("name")].to_string();
                let unit_at = entry.find("\"unit\": \"").expect("unit") + 9;
                let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').expect("unit end")]
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let table = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    /// Every workload on a tiny input, untraced and traced: each declared
    /// metric is emitted with its unit and every check passes.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        let sizes = workloads::Sizes::smoke();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    record_digests: false,
                };
                let work = WorkDir::create(workload).expect("work dir");
                let (report, _) = workloads::run(&args, &sizes, &work.0);
                let section = if trace { "per_layer" } else { "end_to_end" };
                let json = report.json(if trace { PER_LAYER } else { END_TO_END });
                assert_eq!(
                    emitted(&json),
                    declared(section),
                    "{workload:?} trace={trace}"
                );
                assert_eq!(report.failed, 0, "{workload:?} trace={trace}: {json}");
                assert!(report.attempted > 0);
                for m in if trace { PER_LAYER } else { END_TO_END } {
                    assert!(
                        report.get(m.name).is_some(),
                        "{workload:?} never set {}",
                        m.name
                    );
                }
            }
        }
    }
}
