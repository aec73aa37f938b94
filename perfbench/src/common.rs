//! Shared pieces of the benchmark: statistics, the span recorder, the
//! metric report, seeded paper-shaped workloads and correctness helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use medea_cluster::{ApplicationId, ClusterState, NodeId};
use medea_constraints::{violation_stats, PlacementConstraint};
use medea_core::{LraRequest, MedeaScheduler, NodeReport};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_sim::apps::{hbase_instance, storm_instance, tensorflow_instance, StormAffinity};

// ---------------------------------------------------------------- stats

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, b| a + b)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ----------------------------------------------------------- host speed

/// Probe time the end-to-end timings are expressed against: each timing
/// is reported as if the host ran at the speed at which one probe takes
/// this long.
pub const PROBE_REF_MS: f64 = 20.0;

/// Probes nearest in time that set the host speed at an instant.
const PROBES_NEAR: usize = 7;

/// A fixed probe of the host's memory speed, independent of the code
/// under test: ordered-map inserts, lookups and removals with small
/// allocations and string-keyed hash-map updates over a few MB, the
/// access pattern of the scheduler's state and constraint indexes.
fn probe_kernel() -> u64 {
    use std::collections::HashMap;
    let mut ordered: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut keyed: HashMap<String, u64> = HashMap::new();
    let mut x = 0x1234_5678u64;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.entry(x % 20_000).or_default().push(i as u32);
        *keyed.entry(format!("t{}", x % 5000)).or_insert(0) += 1;
        if let Some(v) = ordered.get(&(x % 20_011)) {
            acc += v.len() as u64;
        }
        if i % 3 == 0 {
            ordered.remove(&((x >> 7) % 20_000));
        }
    }
    acc + keyed.len() as u64
}

/// The host's speed over a run, sampled by timing [`probe_kernel`]
/// between the timed calls.
///
/// The machines this runs on are shared, and their speed drifts: on a
/// 2-vCPU VM the same seed's rounds ran ~30% faster in one minute than a
/// few minutes earlier, with no steal time to show for it. The probe
/// slows and speeds up with them, so an end-to-end timing is divided by
/// the probes' slowdown (their median time over [`PROBE_REF_MS`]): near
/// the instant it was taken, when the probes run on the thread that does
/// the timed work, or over the whole run otherwise. The raw timings are
/// printed beside the normalized ones.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// Times one probe (20–40 ms on a 2-vCPU VM).
    pub fn probe(&mut self) {
        let t = Instant::now();
        std::hint::black_box(probe_kernel());
        self.samples.push((t, ms(t.elapsed())));
    }

    /// Probe time over [`PROBE_REF_MS`] near `at`: the median of the
    /// [`PROBES_NEAR`] probes closest in time (1 without probes).
    pub fn slowdown_at(&self, at: Instant) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let mut by_distance: Vec<(Duration, f64)> = self
            .samples
            .iter()
            .map(|&(t, v)| (t.max(at) - t.min(at), v))
            .collect();
        by_distance.sort_by_key(|&(d, _)| d);
        let near: Vec<f64> = by_distance
            .iter()
            .take(PROBES_NEAR)
            .map(|&(_, v)| v)
            .collect();
        median(&near) / PROBE_REF_MS
    }

    /// Median probe time over [`PROBE_REF_MS`] over the whole run.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>()) / PROBE_REF_MS
    }

    /// Median raw probe time, ms.
    pub fn probe_ms(&self) -> f64 {
        self.slowdown() * PROBE_REF_MS
    }

    /// `value` taken at `at`, at the reference speed.
    pub fn normalize(&self, value: f64, at: Instant) -> f64 {
        value / self.slowdown_at(at)
    }

    /// Probes taken.
    pub fn probes(&self) -> usize {
        self.samples.len()
    }

    /// Adds another probe series of the same run.
    pub fn extend(&mut self, other: &HostSpeed) {
        self.samples.extend(other.samples.iter().copied());
    }
}

// ---------------------------------------------------------------- trace

/// One recorded span: a call into a layer, timed from the benchmark.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Round id (`scale_churn`) or request id (`serve`).
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, at exit. Disabled
/// recorders keep nothing, so untraced runs pay only the timestamps the
/// end-to-end metrics need anyway.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            parent,
            round,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Duration of a span minus the part its direct children cover
    /// (children of one parent never overlap here: the calls are
    /// sequential on one thread).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &str, header: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 * self.spans.len() + header.len());
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

// --------------------------------------------------------------- report

/// Metrics of one run plus its correctness verdict.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_string(), (v, unit));
    }

    /// A correctness gate: records a failure message when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.metrics.get(*name).map_or(0.0, |m| m.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// -------------------------------------------------------------- digests

/// FNV-1a accumulator for placement digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

// ------------------------------------------------------------ workloads

/// One paper-shaped LRA (§7.1) of the given kind: HBase (10 workers +
/// master, thrift and secondary), TensorFlow (8 workers, 2 PS, chief) or
/// a Storm topology (5 supervisors collocated per node). The HBase
/// master/secondary anti-affinity is made hard, so the hard-violation
/// gate has a constraint to watch; every other constraint stays soft, as
/// in §4.2.
pub fn paper_lra(kind: u8, app: u64) -> LraRequest {
    let id = ApplicationId(app);
    match kind {
        0 => {
            let mut r = hbase_instance(id, 10);
            if let Some(c) = r.constraints.get_mut(3) {
                *c = c.clone().hard();
            }
            r
        }
        1 => tensorflow_instance(id),
        _ => storm_instance(id, StormAffinity::IntraOnly),
    }
}

/// Seeded stream of batches of paper-shaped LRAs, stratified: kinds are
/// dealt from a deck holding one HBase, one TensorFlow and one Storm,
/// shuffled by the seed and refilled when empty. Every three LRAs thus
/// hold one of each kind (a batch of three is always one of each), so a
/// run's mix does not depend on luck, while order, app ids and
/// placements still vary with the seed.
pub struct LraMix {
    rng: StdRng,
    per_batch: usize,
    deck: Vec<u8>,
    next_app: u64,
}

impl LraMix {
    pub fn new(seed: u64, per_batch: usize) -> Self {
        LraMix {
            rng: StdRng::seed_from_u64(seed),
            per_batch,
            deck: Vec::new(),
            next_app: 1,
        }
    }

    pub fn next_batch(&mut self) -> Vec<LraRequest> {
        (0..self.per_batch)
            .map(|_| {
                if self.deck.is_empty() {
                    self.deck = vec![0, 1, 2];
                    self.rng.shuffle(&mut self.deck);
                }
                let kind = self.deck.pop().expect("deck refilled");
                self.next_app += 1;
                paper_lra(kind, self.next_app - 1)
            })
            .collect()
    }
}

/// Violating fraction (§7.4) over every constraint registered with the
/// scheduler, and the number of containers violating a hard one.
pub fn violations(m: &MedeaScheduler) -> (f64, usize) {
    let all = m.constraint_manager().active_constraints();
    let hard: Vec<&PlacementConstraint> = all.iter().filter(|c| c.is_hard()).collect();
    let frac = violation_stats(m.state(), &all).violating_fraction();
    let hard_violating = violation_stats(m.state(), hard).containers_violating;
    (frac, hard_violating)
}

/// Node re-registration reports matching the live state (what the node
/// managers would tell a restarted resource manager).
pub fn node_reports(m: &MedeaScheduler) -> Vec<NodeReport> {
    m.state()
        .node_ids()
        .map(|n| NodeReport {
            node: n,
            available: m.state().is_available(n),
            containers: m
                .state()
                .containers_on(n)
                .map(<[_]>::to_vec)
                .unwrap_or_default(),
        })
        .collect()
}

/// Checks that the recovery ledger balances
/// (`lost = replaced + unplaceable + pending`) and the audit is clean.
pub fn ledger_and_audit(m: &MedeaScheduler, report: &mut Report, when: &str) {
    let r = m.recovery_report();
    report.check(r.accounted(), || {
        format!(
            "{when}: recovery ledger broken: lost {} != replaced {} + unplaceable {} + pending {}",
            r.containers_lost,
            r.containers_replaced,
            r.containers_unplaceable,
            r.containers_pending
        )
    });
    if let Err(e) = m.audit() {
        report.check(false, || format!("{when}: audit failed: {e}"));
    }
}

/// Constraint checks of one `Scorer::is_violation_free` pass over every
/// candidate node of every container in `batch`, on a clone of `state`:
/// (checks per container, mean ns per check).
pub fn candidate_pass(
    state: &ClusterState,
    batch: &[LraRequest],
    deployed: &[PlacementConstraint],
) -> (f64, f64) {
    let mut work = state.clone();
    let mut constraints = deployed.to_vec();
    for r in batch {
        constraints.extend(r.constraints.iter().cloned());
    }
    let scorer = medea_core::Scorer::new(medea_core::ObjectiveWeights::default(), constraints);
    let nodes: Vec<NodeId> = work.node_ids().collect();
    let mut containers = 0usize;
    let t = Instant::now();
    for r in batch {
        for c in &r.containers {
            containers += 1;
            for &n in &nodes {
                std::hint::black_box(scorer.is_violation_free(&mut work, r.app, c, n));
            }
        }
    }
    let elapsed = t.elapsed();
    let checks = (containers * nodes.len()) as f64;
    (
        ratio(checks, containers as f64),
        ratio(elapsed.as_nanos() as f64, checks),
    )
}

// ----------------------------------------------------------- provenance

/// Seed, core count, source revision and build profile of this run.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{nproc},\"git_rev\":\"{}\",\"src_digest\":\"{:016x}\",\"profile\":\"{profile}\"}}",
        git_rev(),
        source_digest()
    )
}

/// The checked-out commit, read from `.git` when there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// FNV-1a digest over the sources the benchmark is built from
/// (`crates/` and `perfbench/src`), so a run names the code it measured
/// even in a checkout without git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|f| f != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut d = Digest::new();
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            d.add(u64::from(b));
        }
    }
    d.value()
}
