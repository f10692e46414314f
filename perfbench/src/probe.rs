//! Measurement plumbing that lives on the benchmark's side of the public
//! API: an in-memory span recorder, an `rl::Environment` adapter that times
//! the compatible-set MDP, host readings from `/proc`, and the adjacency
//! digest.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use deterrent_core::{CompatSetEnv, CompatibilityGraph};
use rl::{Environment, StepOutcome};

/// One closed span: `start`/`end` are seconds since the recorder was made.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl SpanRec {
    fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// Span recorder. Spans stay in memory until [`Tracer::write_jsonl`]. When
/// off, `begin`/`end` still time the call but record nothing, so the
/// untraced and traced runs share one code path.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; timing is unaffected.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span named `<layer>.<operation>`, nested under the innermost
    /// open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(SpanRec {
                name,
                start: (start - self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(idx);
            idx
        });
        Open { idx, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(
                self.stack.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.spans[idx].end = (now - self.origin).as_secs_f64();
        }
        (now - open.start).as_secs_f64()
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur)
            .sum()
    }

    /// Self time per layer (the span-name prefix before the first `.`) of
    /// the spans under roots named `root`: each span's duration minus the
    /// part its direct children cover.
    pub fn self_time_by_layer(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        let mut root_of = vec![0; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            root_of[i] = span.parent.map_or(i, |p| root_of[p]);
            if let Some(parent) = span.parent {
                child_time[parent] += span.dur();
            }
        }
        let mut layers = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name != root {
                continue;
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0.0) += span.dur() - child_time[i];
        }
        layers
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Time and call counts of one episode's environment, drained by the
/// rollout `finish` hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvTiming {
    pub mask_calls: u64,
    pub mask_ns: u64,
    pub step_calls: u64,
    pub step_ns: u64,
}

impl EnvTiming {
    pub fn merge(&mut self, other: &EnvTiming) {
        self.mask_calls += other.mask_calls;
        self.mask_ns += other.mask_ns;
        self.step_calls += other.step_calls;
        self.step_ns += other.step_ns;
    }
}

/// `rl::Environment` adapter that times `action_mask` and `step` of the
/// wrapped [`CompatSetEnv`] and otherwise forwards every call unchanged, so
/// trajectories are identical to the bare environment's.
pub struct TimedEnv<'a> {
    pub inner: CompatSetEnv<'a>,
    // `action_mask` takes `&self`; relaxed atomics carry the statistics.
    mask_calls: AtomicU64,
    mask_ns: AtomicU64,
    step_calls: u64,
    step_ns: u64,
}

impl<'a> TimedEnv<'a> {
    pub fn new(inner: CompatSetEnv<'a>) -> Self {
        Self {
            inner,
            mask_calls: AtomicU64::new(0),
            mask_ns: AtomicU64::new(0),
            step_calls: 0,
            step_ns: 0,
        }
    }

    pub fn timing(&self) -> EnvTiming {
        EnvTiming {
            mask_calls: self.mask_calls.load(Ordering::Relaxed),
            mask_ns: self.mask_ns.load(Ordering::Relaxed),
            step_calls: self.step_calls,
            step_ns: self.step_ns,
        }
    }
}

impl Clone for TimedEnv<'_> {
    fn clone(&self) -> Self {
        let t = self.timing();
        Self {
            inner: self.inner.clone(),
            mask_calls: AtomicU64::new(t.mask_calls),
            mask_ns: AtomicU64::new(t.mask_ns),
            step_calls: t.step_calls,
            step_ns: t.step_ns,
        }
    }
}

impl Environment for TimedEnv<'_> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        self.inner.reset()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let start = Instant::now();
        let outcome = self.inner.step(action);
        self.step_ns += nanos(start);
        self.step_calls += 1;
        outcome
    }

    fn action_mask(&self) -> Vec<bool> {
        let start = Instant::now();
        let mask = self.inner.action_mask();
        self.mask_ns.fetch_add(nanos(start), Ordering::Relaxed);
        self.mask_calls.fetch_add(1, Ordering::Relaxed);
        mask
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a over the rare nets (id and rare value) and the adjacency matrix.
pub fn graph_digest(graph: &CompatibilityGraph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(&(graph.len() as u64).to_le_bytes());
    for rare in graph.rare_nets() {
        feed(&(rare.net.index() as u64).to_le_bytes());
        feed(&[u8::from(rare.rare_value)]);
    }
    let adjacency: Vec<u8> = graph.adjacency().iter().map(|&b| u8::from(b)).collect();
    feed(&adjacency);
    hash
}

/// Cumulative (all-CPU total, steal) ticks from the first line of
/// `/proc/stat`, or `None` where it cannot be read.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user/nice.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Share of CPU ticks stolen by the hypervisor between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
